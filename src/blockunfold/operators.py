"""Block soft-thresholding and its derivative information.

The block soft-threshold eta_alpha scales every block by
``max(0, 1 - alpha/||z[i]||)``: it shrinks block norms by alpha and kills
blocks at or below the threshold.  It is the proximal operator of
``alpha * sum_i ||x[i]||_2``.

Besides the operator itself this module provides the pieces needed to
differentiate through it: Jacobian-vector products for backpropagation,
the derivative with respect to the threshold, and the Jacobian trace used
as the Onsager correction in approximate message passing.

Everything operates on raw arrays whose last axis has length ``n*d``, with
the block structure ``(n, d)`` passed alongside, so batched evaluation is a
reshape away.  All functions are pure.

Per block the kernels need an inner product and a scaling by the block's
own factor.  For blocks of at most ``_PLANE_MAX_D`` entries (albista's
training frame has 2) both run over the d strided coordinate planes
``Z[..., j]``, each a long array: ``einsum`` over so short a last axis and
a ``(..., n, 1)`` factor broadcast over ``(..., n, d)`` spend their time
in inner loops of d entries.  The sums take the planes in the order of
numpy's two-lane ``einsum`` loop, so both forms give the same bits there.
Larger blocks, where the plane loop loses, take ``einsum`` and the
broadcast product.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "eta",
    "eta_jvp",
    "eta_dalpha",
    "eta_trace",
]

_TINY = np.finfo(np.float64).tiny

# Largest block size whose per-block sums and scalings run one coordinate
# plane at a time; larger blocks take einsum and a broadcast product.
_PLANE_MAX_D = 3


def _block_view(Z: np.ndarray, n: int, d: int) -> np.ndarray:
    Z = np.asarray(Z, dtype=np.float64)
    if Z.shape[-1] != n * d:
        raise ValueError(f"last axis has length {Z.shape[-1]}, expected n*d = {n * d}")
    return Z.reshape(Z.shape[:-1] + (n, d))


def _block_dot(Ab: np.ndarray, Bb: np.ndarray) -> np.ndarray:
    """Inner product of every pair of blocks of two ``(..., n, d)`` views, as
    ``(..., n)``.  Up to ``_PLANE_MAX_D`` the sum runs over the d strided
    coordinate planes.  Like ``einsum`` it warns of no overflow."""
    d = Ab.shape[-1]
    if d > _PLANE_MAX_D:
        return np.einsum("...i,...i->...", Ab, Bb)
    with np.errstate(over="ignore", invalid="ignore"):
        out = Ab[..., 0] * Bb[..., 0]
        # planes 0, 2, 1: the order of numpy's two-lane einsum sum, whose
        # bits this then gives
        for j in range(d - 1, 0, -1):
            out += Ab[..., j] * Bb[..., j]
    return out


def _block_scale(scale: np.ndarray, Ab: np.ndarray) -> np.ndarray:
    """Every block of a ``(..., n, d)`` view times its own factor from the
    ``(..., n)`` array ``scale``: the bits of the broadcast product, one
    coordinate plane at a time up to ``_PLANE_MAX_D``."""
    d = Ab.shape[-1]
    if d > _PLANE_MAX_D:
        return scale[..., None] * Ab
    out = np.empty(Ab.shape)
    for j in range(d):
        np.multiply(scale, Ab[..., j], out=out[..., j])
    return out


def _block_norms(Zb: np.ndarray) -> np.ndarray:
    """Euclidean norm of every block of a ``(..., n, d)`` view, as ``(..., n)``:
    ``sqrt`` of the summed squares, or the max-scaled norm where that sum is
    subnormal and has lost bits (``sqrt`` of 2.2e-162 squared exceeds 2.2e-162)."""
    squares = _block_dot(Zb, Zb)
    norms = np.sqrt(squares)
    if squares.min(initial=np.inf) < _TINY:
        subnormal = (squares > 0) & (squares < _TINY)
        if subnormal.any():
            norms[subnormal] = _scaled_block_norms(Zb)[subnormal]
    return norms


def _scaled_block_norms(Zb: np.ndarray) -> np.ndarray:
    """Block norms as ``(..., n)``, each block scaled by its largest entry
    first, so a nonzero block never gets norm 0 by underflow."""
    top = np.abs(Zb).max(axis=-1)
    return top * _block_norms(Zb / np.where(top > 0, top, 1.0)[..., None])


def eta(
    Z: np.ndarray, alpha: float, n: int, d: int, norms: np.ndarray | None = None
) -> np.ndarray:
    """Block soft-threshold of ``Z`` (last axis = n*d), batched over leading axes.

    ``norms`` may carry :func:`_block_norms` of ``Z``'s ``(..., n, d)`` view
    when the caller has it; here and in :func:`eta_jvp` and
    :func:`eta_dalpha` it is computed otherwise.
    """
    if alpha < 0:
        raise ValueError(f"threshold must be nonnegative, got {alpha}")
    Zb = _block_view(Z, n, d)
    if alpha == 0.0:
        # the identity, also for nonzero blocks whose squared norm underflows
        return Zb.reshape(Z.shape).copy()
    # alpha / alpha == 1, so the scale is exactly 0 wherever r <= alpha (the
    # gate of eta_jvp and eta_dalpha) and a block whose squared norm
    # underflows to 0 is killed rather than kept
    r = _block_norms(Zb) if norms is None else norms
    scale = 1.0 - alpha / np.maximum(r, alpha)
    return _block_scale(scale, Zb).reshape(Z.shape)


def eta_jvp(
    Z: np.ndarray, alpha: float, V: np.ndarray, n: int, d: int, norms: np.ndarray | None = None
) -> np.ndarray:
    """Jacobian-vector product of the threshold at Z applied to V.

    Per active block (||z[i]|| > alpha) the Jacobian is
    ``(1 - alpha/r) I + (alpha/r) u u^T`` with ``u = z[i]/r``; inactive
    blocks (r <= alpha, including the kink) contribute the zero matrix,
    which keeps training gradients bounded.  The Jacobian is symmetric,
    so this is also the vector-Jacobian product.  Per block the product is
    ``s v + c z`` with ``s = 1 - alpha/r`` and ``c = (alpha/r) (u.v) / r``,
    so the activity mask only touches the two per-block scalars.  ``norms``
    as in :func:`eta`; at alpha = 0 it is not used.
    """
    Zb = _block_view(Z, n, d)
    Vb = _block_view(V, n, d)
    if alpha == 0.0:
        # the identity on every nonzero block, as eta keeps them all
        return np.where(_scaled_block_norms(Zb)[..., None] > 0, Vb, 0.0).reshape(Z.shape)
    r = _block_norms(Zb) if norms is None else norms
    # m = r on active blocks; on the others m = alpha, so s = 1 - alpha/alpha
    # is exactly 0, and m >= alpha > 0 never divides by zero.  The mask goes
    # on before the divisions: over a tiny alpha, c of an inactive block
    # would overflow to inf, and inf * 0 is nan
    m = np.maximum(r, alpha)
    ratio = alpha / m
    s = 1.0 - ratio
    radial = _block_dot(Zb, Vb) * (r > alpha) / m
    c = ratio * radial / m
    out = _block_scale(s, Vb)
    out += _block_scale(c, Zb)
    return out.reshape(Z.shape)


def eta_dalpha(
    Z: np.ndarray, alpha: float, n: int, d: int, norms: np.ndarray | None = None
) -> np.ndarray:
    """Derivative of the threshold output with respect to alpha.

    Equals ``-z[i]/||z[i]||`` on active blocks and 0 on inactive ones
    (one-sided derivative at the kink).  ``norms`` as in :func:`eta_jvp`.
    """
    Zb = _block_view(Z, n, d)
    if alpha == 0.0:
        # every nonzero block is active, also a tiny one: divided by its
        # largest entry first, its norm is >= 1, so -1/r cannot overflow
        top = np.abs(Zb).max(axis=-1)
        Zb = Zb / np.where(top > 0, top, 1.0)[..., None]
        r = _block_norms(Zb)
        coef = np.where(r > 0, -1.0 / np.where(r > 0, r, 1.0), 0.0)
    else:
        r = _block_norms(Zb) if norms is None else norms
        # -1/r on active blocks; 0/-alpha on the others, never -1/alpha * 0,
        # which is nan where 1/alpha overflows
        coef = (r > alpha) / -np.maximum(r, alpha)
    return _block_scale(coef, Zb).reshape(Z.shape)


def eta_trace(Z: np.ndarray, alpha: float, n: int, d: int) -> np.ndarray:
    """Trace of the threshold Jacobian, batched: sum over active blocks of
    ``d - alpha (d-1)/||z[i]||``."""
    Zb = _block_view(Z, n, d)
    # the block norm and activity gate of eta_dalpha, so the trace counts
    # exactly the blocks eta keeps
    r = _scaled_block_norms(Zb) if alpha == 0.0 else _block_norms(Zb)
    active = r > alpha
    safe = np.where(active, r, 1.0)
    per_block = np.where(active, d - alpha * (d - 1) / safe, 0.0)
    return per_block.sum(axis=-1)
