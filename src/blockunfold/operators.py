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


def _block_view(Z: np.ndarray, n: int, d: int) -> np.ndarray:
    Z = np.asarray(Z, dtype=np.float64)
    if Z.shape[-1] != n * d:
        raise ValueError(f"last axis has length {Z.shape[-1]}, expected n*d = {n * d}")
    return Z.reshape(Z.shape[:-1] + (n, d))


def _block_norms(Zb: np.ndarray) -> np.ndarray:
    """Euclidean norm of every block of a ``(..., n, d)`` view, as ``(..., n, 1)``:
    ``sqrt`` of the summed squares, or the max-scaled norm where that sum is
    subnormal and has lost bits (``sqrt`` of 2.2e-162 squared exceeds 2.2e-162)."""
    squares = np.einsum("...i,...i->...", Zb, Zb)[..., None]
    norms = np.sqrt(squares)
    if squares.min(initial=np.inf) < _TINY:
        subnormal = (squares > 0) & (squares < _TINY)
        if subnormal.any():
            norms[subnormal] = _scaled_block_norms(Zb)[subnormal]
    return norms


def _scaled_block_norms(Zb: np.ndarray) -> np.ndarray:
    """Block norms as ``(..., n, 1)``, each block scaled by its largest entry
    first, so a nonzero block never gets norm 0 by underflow."""
    top = np.abs(Zb).max(axis=-1, keepdims=True)
    return top * _block_norms(Zb / np.where(top > 0, top, 1.0))


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
    return (scale * Zb).reshape(Z.shape)


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
        return np.where(_scaled_block_norms(Zb) > 0, Vb, 0.0).reshape(Z.shape)
    r = _block_norms(Zb) if norms is None else norms
    # m = r on active blocks; on the others m = alpha, so s = 1 - alpha/alpha
    # is exactly 0, and m >= alpha > 0 never divides by zero.  The mask goes
    # on before the divisions: over a tiny alpha, c of an inactive block
    # would overflow to inf, and inf * 0 is nan
    m = np.maximum(r, alpha)
    ratio = alpha / m
    s = 1.0 - ratio
    radial = np.einsum("...i,...i->...", Zb, Vb)[..., None] * (r > alpha) / m
    c = ratio * radial / m
    return (s * Vb + c * Zb).reshape(Z.shape)


def eta_dalpha(
    Z: np.ndarray, alpha: float, n: int, d: int, norms: np.ndarray | None = None
) -> np.ndarray:
    """Derivative of the threshold output with respect to alpha.

    Equals ``-z[i]/||z[i]||`` on active blocks and 0 on inactive ones
    (one-sided derivative at the kink).  ``norms`` as in :func:`eta_jvp`.
    """
    Zb = _block_view(Z, n, d)
    if alpha == 0.0:
        # every nonzero block is active, also one whose squared norm underflows
        r = _scaled_block_norms(Zb)
        active = r > alpha
        coef = np.where(active, -1.0 / np.where(active, r, 1.0), 0.0)
    else:
        r = _block_norms(Zb) if norms is None else norms
        # -1/r on active blocks; 0/-alpha on the others, never -1/alpha * 0,
        # which is nan where 1/alpha overflows
        coef = (r > alpha) / -np.maximum(r, alpha)
    return (coef * Zb).reshape(Z.shape)


def eta_trace(Z: np.ndarray, alpha: float, n: int, d: int) -> np.ndarray:
    """Trace of the threshold Jacobian, batched: sum over active blocks of
    ``d - alpha (d-1)/||z[i]||``."""
    Zb = _block_view(Z, n, d)
    # the block norm and activity gate of eta_dalpha, so the trace counts
    # exactly the blocks eta keeps
    r = (_scaled_block_norms(Zb) if alpha == 0.0 else _block_norms(Zb))[..., 0]
    active = r > alpha
    safe = np.where(active, r, 1.0)
    per_block = np.where(active, d - alpha * (d - 1) / safe, 0.0)
    return per_block.sum(axis=-1)
