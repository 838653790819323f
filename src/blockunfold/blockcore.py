"""Block-structured vectors, dictionaries and coherence measures.

A signal of length ``n*d`` is partitioned into ``n`` contiguous blocks of
length ``d``; sparsity is counted in whole blocks.  A multiple measurement
vector (MMV) system ``Y = K X`` with ``d`` channels sharing one support is
equivalent, after row-major vectorization of ``X``, to a single block-sparse
system whose dictionary is the Kronecker lift ``K (x) I_d``.

Block structure is carried as metadata ``(n, d)`` on flat arrays, so the same
vectors flow through every solver without nested storage.  All values are
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import TextIO

import numpy as np

__all__ = [
    "BlockVector",
    "BlockDictionary",
    "MMVProblem",
    "MatrixKind",
    "SignalClass",
    "l21_norm",
    "l20_norm",
    "block_support",
    "support_tolerance",
    "block_coherence",
    "cross_block_coherence",
    "mutual_coherence",
    "kron_lift",
    "mmv_vectorize",
    "mmv_devectorize",
    "write_matrix",
    "save_matrix",
    "load_matrix",
]

# Hard cap on dense Kronecker lifts; beyond this the lift is a usage error.
MAX_LIFT_ENTRIES = 10**8

ORTHONORMAL_TOL = 1e-10


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.float64, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class BlockVector:
    """Flat vector of length ``n*d`` with declared block structure.

    ``block(i)`` returns the contiguous slice ``[i*d, (i+1)*d)`` (0-based).
    """

    data: np.ndarray
    n: int
    d: int

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64)
        if data.ndim != 1:
            raise ValueError(f"BlockVector data must be 1-d, got shape {data.shape}")
        if self.n < 0 or self.d < 1:
            raise ValueError(f"invalid block structure n={self.n}, d={self.d}")
        if data.size != self.n * self.d:
            raise ValueError(
                f"data length {data.size} does not match n*d = {self.n * self.d}"
            )
        object.__setattr__(self, "data", _freeze(data))

    @property
    def n_x(self) -> int:
        return self.n * self.d

    def block(self, i: int) -> np.ndarray:
        if not 0 <= i < self.n:
            raise IndexError(f"block index {i} out of range [0, {self.n})")
        return self.data[i * self.d : (i + 1) * self.d]

    def blocks(self) -> np.ndarray:
        """All blocks as an ``(n, d)`` view."""
        return self.data.reshape(self.n, self.d)

    def block_norms(self) -> np.ndarray:
        return np.linalg.norm(self.blocks(), axis=1)

    @staticmethod
    def zeros(n: int, d: int) -> "BlockVector":
        return BlockVector(np.zeros(n * d), n, d)


@dataclass(frozen=True)
class BlockDictionary:
    """Dense ``n_y x (n*d)`` matrix partitioned into ``n`` column blocks of width ``d``.

    When ``orthonormal_blocks`` is set, every block satisfies
    ``D[i]^T D[i] = I_d`` up to ``1e-10`` in Frobenius norm; construction
    fails otherwise.
    """

    data: np.ndarray
    n: int
    d: int
    orthonormal_blocks: bool = False

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64)
        if data.ndim != 2:
            raise ValueError(f"BlockDictionary data must be 2-d, got shape {data.shape}")
        if self.n < 1 or self.d < 1:
            raise ValueError(f"invalid block structure n={self.n}, d={self.d}")
        if data.shape[1] != self.n * self.d:
            raise ValueError(
                f"column count {data.shape[1]} does not match n*d = {self.n * self.d}"
            )
        object.__setattr__(self, "data", _freeze(data))
        if self.orthonormal_blocks:
            resid = self.max_block_gram_residual()
            if resid > ORTHONORMAL_TOL:
                raise ValueError(
                    f"blocks are not orthonormal: max ||D[i]^T D[i] - I||_F = {resid:.3e}"
                )

    @property
    def n_y(self) -> int:
        return self.data.shape[0]

    @property
    def n_x(self) -> int:
        return self.data.shape[1]

    def block(self, i: int) -> np.ndarray:
        if not 0 <= i < self.n:
            raise IndexError(f"block index {i} out of range [0, {self.n})")
        return self.data[:, i * self.d : (i + 1) * self.d]

    def max_block_gram_residual(self) -> float:
        eye = np.eye(self.d)
        return max(
            float(np.linalg.norm(self.block(i).T @ self.block(i) - eye))
            for i in range(self.n)
        )


class MatrixKind(Enum):
    GAUSSIAN = "gaussian"
    CIRCULANT = "circulant"
    TOEPLITZ = "toeplitz"
    GENERAL = "general"


@dataclass(frozen=True)
class MMVProblem:
    """Compact MMV description: channel matrix ``K`` (m x n) and ``d`` channels.

    The equivalent block-sparse dictionary ``K (x) I_d`` is built lazily by
    :func:`kron_lift`; lifted dimensions are ``n_y = m*d`` and ``n_x = n*d``.
    """

    K: np.ndarray
    d: int
    kind: MatrixKind = MatrixKind.GENERAL

    def __post_init__(self):
        K = np.asarray(self.K, dtype=np.float64)
        if K.ndim != 2:
            raise ValueError(f"K must be 2-d, got shape {K.shape}")
        if self.d < 1:
            raise ValueError(f"channel count d must be >= 1, got {self.d}")
        object.__setattr__(self, "K", _freeze(K))

    @property
    def m(self) -> int:
        return self.K.shape[0]

    @property
    def n(self) -> int:
        return self.K.shape[1]

    @property
    def n_y(self) -> int:
        return self.m * self.d

    @property
    def n_x(self) -> int:
        return self.n * self.d


@dataclass(frozen=True)
class SignalClass:
    """Bounded block-sparse signal class: per-block norm <= M, at most s
    active blocks, noise norm <= sigma."""

    M: float
    s: int
    sigma: float

    def __post_init__(self):
        if not self.M > 0:
            raise ValueError(f"M must be positive, got {self.M}")
        if self.s < 0 or int(self.s) != self.s:
            raise ValueError(f"s must be a nonnegative integer, got {self.s}")
        if self.sigma < 0:
            raise ValueError(f"sigma must be nonnegative, got {self.sigma}")

    def contains(self, x: BlockVector, noise_norm: float = 0.0) -> bool:
        return (
            bool(np.all(x.block_norms() <= self.M + 1e-12))
            and l20_norm(x) <= self.s
            and noise_norm <= self.sigma + 1e-12
        )


# ---------------------------------------------------------------------------
# norms and supports


def l21_norm(x: BlockVector) -> float:
    """Sum of per-block l2 norms."""
    return float(x.block_norms().sum())


def l20_norm(x: BlockVector, tol: float = 0.0) -> int:
    """Number of blocks with norm strictly above ``tol``."""
    return int(np.count_nonzero(x.block_norms() > tol))


def support_tolerance(x: BlockVector) -> float:
    """Activity threshold used when no explicit tolerance is given.

    Exact zeros are unrealizable in floating point, so a block counts as
    active iff its norm exceeds ``1e-12 * max(1, ||x||_2)``.
    """
    return 1e-12 * max(1.0, float(np.linalg.norm(x.data)))


def block_support(x: BlockVector, tol: float | None = None) -> set[int]:
    """Index set of active blocks (0-based)."""
    if tol is None:
        tol = support_tolerance(x)
    norms = x.block_norms()
    return {int(i) for i in np.flatnonzero(norms > tol)}


# ---------------------------------------------------------------------------
# coherence measures


def _pairwise_block_spectral_max(G: np.ndarray, n: int, d: int) -> float:
    """max over i != j of ||G[i*d:(i+1)*d, j*d:(j+1)*d]||_2.

    Spectral norms come from singular values of the d x d sub-blocks,
    exact at these sizes; no power iteration needed.  One batched SVD per
    block row keeps the working set to that row's ``(n, d, d)`` stack.
    """
    if d == 1:
        off = np.abs(G).copy()
        np.fill_diagonal(off, 0.0)
        return float(off.max())
    best = 0.0
    for i in range(n):
        row = G[i * d : (i + 1) * d].reshape(d, n, d).transpose(1, 0, 2)
        sigma = np.linalg.svd(row, compute_uv=False)[:, 0]
        sigma[i] = 0.0
        best = max(best, float(sigma.max()))
    return best


def block_coherence(D: BlockDictionary) -> float:
    """max over i != j of (1/d) ||D[i]^T D[j]||_2."""
    if D.n < 2:
        raise ValueError("block coherence needs at least 2 blocks")
    G = D.data.T @ D.data
    return _pairwise_block_spectral_max(G, D.n, D.d) / D.d


def cross_block_coherence(
    B: BlockDictionary, D: BlockDictionary, feas_tol: float = 1e-8
) -> float:
    """max over i != j of (1/d) ||B[i]^T D[j]||_2, for feasible B.

    Feasibility means ``B[i]^T D[i] = I_d`` within ``feas_tol`` (Frobenius);
    a violating block raises with its index.
    """
    if B.n != D.n or B.d != D.d or B.n_y != D.n_y:
        raise ValueError("B and D must share shape and block structure")
    if D.n < 2:
        raise ValueError("cross block coherence needs at least 2 blocks")
    G = B.data.T @ D.data
    eye = np.eye(D.d)
    for i in range(D.n):
        resid = float(np.linalg.norm(G[i * D.d : (i + 1) * D.d, i * D.d : (i + 1) * D.d] - eye))
        if resid > feas_tol:
            raise ValueError(
                f"B is infeasible at block {i}: ||B[i]^T D[i] - I||_F = {resid:.3e}"
            )
    return _pairwise_block_spectral_max(G, D.n, D.d) / D.d


def mutual_coherence(A: np.ndarray) -> float:
    """Plain coherence max over i != j of |A[:,i]^T A[:,j]| (unit-column convention)."""
    A = np.asarray(A, dtype=np.float64)
    if A.shape[1] < 2:
        raise ValueError("mutual coherence needs at least 2 columns")
    G = np.abs(A.T @ A)
    np.fill_diagonal(G, 0.0)
    return float(G.max())


# ---------------------------------------------------------------------------
# MMV <-> block-sparse bridge


def kron_lift(P: MMVProblem, max_entries: int = MAX_LIFT_ENTRIES) -> BlockDictionary:
    """Dense lift ``K (x) I_d``; block ``i`` equals ``K[:,i] (x) I_d``.

    The lift has orthonormal blocks iff all columns of K have unit norm.
    """
    entries = P.n_y * P.n_x
    if entries > max_entries:
        raise ValueError(
            f"lift would have {entries} entries, above the configured cap {max_entries}"
        )
    lifted = np.kron(P.K, np.eye(P.d))
    col_norms = np.linalg.norm(P.K, axis=0)
    orth = bool(np.max(np.abs(col_norms**2 - 1.0)) * np.sqrt(P.d) <= ORTHONORMAL_TOL)
    return BlockDictionary(lifted, n=P.n, d=P.d, orthonormal_blocks=orth)


def mmv_vectorize(X: np.ndarray) -> BlockVector:
    """Stack the rows of the ``n x d`` signal matrix into one block vector.

    Row-major flattening of X realizes vec(X^T): block i of the result is
    the i-th row of X, i.e. the i-th coefficient across all d channels.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"expected an n x d matrix, got shape {X.shape}")
    n, d = X.shape
    return BlockVector(X.reshape(-1), n=n, d=d)


def mmv_devectorize(x: BlockVector) -> np.ndarray:
    """Inverse of :func:`mmv_vectorize`: block vector back to an ``n x d`` matrix."""
    return x.blocks().copy()


# ---------------------------------------------------------------------------
# text matrix format shared by all save/load paths
#
# Header line "rows cols", then rows lines of cols whitespace-separated
# decimal values printed with 17 significant digits (float64 round-trips).


def write_matrix(f: TextIO, A: np.ndarray, prefix: str = "") -> None:
    """Write 2-d ``A`` to an open text file: a ``{prefix}rows cols`` header
    line, then one line per row."""
    rows, cols = A.shape
    f.write(f"{prefix}{rows} {cols}\n")
    row_format = " ".join(["%.17g"] * cols) + "\n"
    for row in A:
        f.write(row_format % tuple(row.tolist()))


def save_matrix(path: str | Path, A: np.ndarray) -> None:
    A = np.asarray(A, dtype=np.float64)
    if A.ndim == 1:
        A = A[:, None]
    if A.ndim != 2:
        raise ValueError(f"can only save 1-d or 2-d arrays, got shape {A.shape}")
    with open(path, "w", encoding="utf-8") as f:
        write_matrix(f, A)


def load_matrix(path: str | Path) -> np.ndarray:
    """Read a matrix written by :func:`save_matrix`.

    A truncated or malformed file raises ValueError naming the file and
    the line.  Every line ``save_matrix`` writes ends in a newline, so a
    last line without one means the file was cut short.
    """
    with open(path, "r", encoding="utf-8") as f:
        header = f.readline()
        try:
            if not header.endswith("\n"):
                raise ValueError("no newline")
            rows, cols = (int(v) for v in header.split())
            A = np.empty((rows, cols))
        except ValueError as exc:
            raise ValueError(f"{path}:1: malformed header {header!r}: {exc}") from exc
        for r in range(rows):
            line = f.readline()
            lineno = r + 2
            if not line:
                raise ValueError(f"{path}: ends after {r} of {rows} rows (line {lineno} missing)")
            if not line.endswith("\n"):
                raise ValueError(f"{path}:{lineno}: file ends mid-line (truncated)")
            vals = line.split()
            if len(vals) != cols:
                raise ValueError(f"{path}:{lineno}: row has {len(vals)} values, expected {cols}")
            try:
                A[r] = [float(v) for v in vals]
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return A
