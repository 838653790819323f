"""Analytical weight matrices for unfolded block-sparse recovery.

A weight matrix B is feasible for a dictionary D when ``B[i]^T D[i] = I_d``
for every block; among feasible matrices one wants small cross block
coherence.  Minimizing the tractable surrogate ``(1/d) ||B^T D||_F^2`` over
the feasible set decouples into per-block equality-constrained least squares
problems whose KKT system is

    [ 2 D D^T   D[i] ] [ B[i]   ]   [ 0   ]
    [ D[i]^T    0    ] [ Lambda ] = [ I_d ],

solved in minimum norm by the Moore-Penrose inverse.  This module provides:

* the KKT pseudo-inverse oracle (reference route),
* the closed form of that minimum-norm solution in terms of the Gram
  matrix ``G = D D^T``: one pseudo-inverse of G and a batch of ``d x d``
  solves,
* the Kronecker reduction: for D = K (x) I_d it suffices to solve at the
  d = 1 level and lift the result, held as that d = 1 solution,
* an FFT solution for circulant K, where the dual spectrum is the
  conjugate reciprocal of the kernel spectrum (zeroed bins dropped, and the
  kernel rescaled by n/rank so the diagonal constraint still holds).

The KKT oracle inverts the full ``(n_y + d)``-square KKT matrix once per
block and shares no code path with the closed form, so it stays an
independent correctness check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blockcore import FEASIBILITY_TOL, BlockDictionary, cross_block_coherence, kron_lift
from .blockcore import _feasibility_residuals

__all__ = [
    "AnalyticWeights",
    "solve_kkt_oracle",
    "kkt_weights",
    "closed_form_weights",
    "kron_weights",
    "circulant",
    "circulant_dual_kernel",
    "circulant_weights_fft",
]

# Singular values below PINV_RTOL * sigma_max are truncated everywhere.
PINV_RTOL = 1e-10

# FFT bins below ZERO_BIN_TOL * max|k_hat| count as zero.
ZERO_BIN_TOL = 1e-10


@dataclass(frozen=True)
class AnalyticWeights:
    """A feasible weight matrix together with its quality certificates.

    ``feasibility_residual`` is ``max_i ||B[i]^T D[i] - I_d||_F`` against the
    dictionary the weights were computed for, and ``cross_coherence`` the
    achieved cross block coherence.  ``kernel``/``rank`` are set by the
    circulant route.
    """

    B: BlockDictionary
    feasibility_residual: float
    cross_coherence: float
    kernel: np.ndarray | None = None
    rank: int | None = None


def _pinv(A: np.ndarray) -> np.ndarray:
    return np.linalg.pinv(A, rcond=PINV_RTOL)


def _assemble(
    Bmat: np.ndarray,
    D: BlockDictionary,
    kernel: np.ndarray | None = None,
    rank: int | None = None,
) -> AnalyticWeights:
    B = BlockDictionary(Bmat, n=D.n, d=D.d)
    resid = float(_feasibility_residuals(B, D).max())
    if resid > FEASIBILITY_TOL:
        raise ValueError(
            f"computed weights are infeasible: max ||B[i]^T D[i] - I||_F = {resid:.3e}"
        )
    coherence = cross_block_coherence(B, D) if D.n >= 2 else 0.0
    return AnalyticWeights(
        B=B, feasibility_residual=resid, cross_coherence=coherence, kernel=kernel, rank=rank
    )


def _require_orthonormal_blocks(D: BlockDictionary) -> None:
    resid = D.max_block_gram_residual()
    if resid > FEASIBILITY_TOL:
        raise ValueError(
            f"dictionary blocks must be orthonormal: max ||D[i]^T D[i] - I||_F = {resid:.3e}"
        )


# ---------------------------------------------------------------------------
# KKT oracle and closed form


def solve_kkt_oracle(D: BlockDictionary, i: int) -> np.ndarray:
    """Minimum-norm solution of the per-block KKT system, via one dense
    pseudo-inverse of the stacked (n_y + d) x (n_y + d) matrix.

    Returns the n_y x d weight block; the multiplier rows are discarded.
    """
    if not 0 <= i < D.n:
        raise IndexError(f"block index {i} out of range [0, {D.n})")
    n_y, d = D.n_y, D.d
    Di = D.block(i)
    M = np.zeros((n_y + d, n_y + d))
    M[:n_y, :n_y] = 2.0 * D.data @ D.data.T
    M[:n_y, n_y:] = Di
    M[n_y:, :n_y] = Di.T
    rhs = np.zeros((n_y + d, d))
    rhs[n_y:, :] = np.eye(d)
    sol = _pinv(M) @ rhs
    if not np.all(np.isfinite(sol)):
        raise np.linalg.LinAlgError(f"pseudo-inverse of KKT system failed for block {i}")
    return sol[:n_y, :]


def kkt_weights(D: BlockDictionary) -> AnalyticWeights:
    """Concatenate the KKT oracle solutions of all blocks."""
    Bmat = np.hstack([solve_kkt_oracle(D, i) for i in range(D.n)])
    return _assemble(Bmat, D)


def closed_form_weights(D: BlockDictionary) -> AnalyticWeights:
    """Closed form of the minimum-norm KKT solution, for all blocks at once.

    With the Gram matrix G = D D^T the weight block is

        B[i] = G^+ D[i] (D[i]^T G^+ D[i])^{-1},

    one pseudo-inverse (singular values below 1e-10 relative to the largest
    truncated) and ``n`` batched ``d x d`` solves.  For a rank-deficient G
    every D[i] lies in its range, so the G^+ keeps B[i] there too: the
    minimum-norm solution, as the KKT oracle's pseudo-inverse gives it.
    """
    _require_orthonormal_blocks(D)
    n_y, n, d = D.n_y, D.n, D.d
    P = (_pinv(D.data @ D.data.T) @ D.data).reshape(n_y, n, d).transpose(1, 0, 2)
    Db = D.data.reshape(n_y, n, d).transpose(1, 2, 0)
    # B[i]^T = (D[i]^T G^+ D[i])^{-T} (G^+ D[i])^T, batched over the blocks
    Bt = np.linalg.solve(np.matmul(Db, P).transpose(0, 2, 1), P.transpose(0, 2, 1))
    return _assemble(Bt.transpose(2, 0, 1).reshape(n_y, n * d), D)


# ---------------------------------------------------------------------------
# Kronecker reduction


def kron_weights(K: np.ndarray, d: int, base: AnalyticWeights) -> AnalyticWeights:
    """Lift a d = 1 weight matrix for K to the MMV dictionary K (x) I_d.

    The lifted matrix ``base.B (x) I_d`` is feasible and optimal for the
    Frobenius surrogate without ever solving at the lifted dimensions.  It
    is held as ``base.B``, and its residual and coherence come from
    ``base.B^T K`` (:func:`~.blockcore.cross_block_coherence`).
    """
    if base.B.d != 1:
        raise ValueError("base weights must be at the d = 1 level")
    D = kron_lift(K, d)  # also checks that K is 2-d and d >= 1
    if base.B.held.shape != D.held.shape:
        raise ValueError(f"base weights are {base.B.held.shape}, expected {D.held.shape}")
    lifted = _assemble(base.B.held, D)  # raises for weights infeasible for K
    return base if d == 1 else lifted


# ---------------------------------------------------------------------------
# circulant construction


def circulant(v: np.ndarray) -> np.ndarray:
    """Square matrix whose i-th column is v cyclically shifted down by i."""
    v = np.asarray(v, dtype=np.float64)
    n = v.size
    return np.stack([np.roll(v, i) for i in range(n)], axis=1)


def circulant_dual_kernel(k: np.ndarray) -> tuple[np.ndarray, int]:
    """Unscaled dual kernel: spectrum conj(1/k_hat) with near-zero bins dropped.

    Returns ``(b, rank)`` where rank is the number of retained bins; the
    unscaled kernel satisfies ``b^T k = rank/n``.
    """
    k = np.asarray(k, dtype=np.float64)
    if k.ndim != 1 or k.size < 2:
        raise ValueError("kernel must be a 1-d vector of length >= 2")
    kh = np.fft.fft(k)
    mags = np.abs(kh)
    top = float(mags.max())
    if top == 0.0:
        raise ValueError("kernel spectrum is identically zero")
    keep = mags > ZERO_BIN_TOL * top
    bh = np.zeros_like(kh)
    bh[keep] = 1.0 / np.conj(kh[keep])
    b = np.fft.ifft(bh).real
    return b, int(np.count_nonzero(keep))


def circulant_weights_fft(k: np.ndarray) -> AnalyticWeights:
    """Circulant dual of circ(k), solved in the Fourier domain.

    For a rank-deficient kernel the retained-bin construction only reaches
    ``b^T k = rank/n``, so the kernel is rescaled by ``n/rank`` to restore
    the unit diagonal constraint.
    """
    b, rank = circulant_dual_kernel(k)
    n = b.size
    if rank < n:
        b = b * (n / rank)
    K = circulant(k)
    D = BlockDictionary(K, n=n, d=1)
    return _assemble(circulant(b), D, kernel=b, rank=rank)
