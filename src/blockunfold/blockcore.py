"""Block-structured dictionaries, coherence measures and the file formats.

A signal of length ``n*d`` is partitioned into ``n`` contiguous blocks of
length ``d``; sparsity is counted in whole blocks.  A multiple measurement
vector (MMV) system ``Y = K X`` with ``d`` channels sharing one support is
equivalent, after row-major vectorization of ``X``, to a single block-sparse
system whose dictionary is the Kronecker lift ``K (x) I_d``:
``kron_lift(K, d).data @ X.reshape(-1) == (K @ X).reshape(-1)``.

Signals are plain flat arrays with the block structure ``(n, d)`` passed
alongside, so the same arrays flow through every solver without nested
storage.  The solvers, metrics and networks take them in batches, one
signal per row of a ``(batch, n*d)`` array.  Dictionaries are immutable
after construction and safe to share across threads.

A lift ``M = W (x) I_d`` is held as its ``m x n`` base ``W`` (its width says
so, :func:`_is_base`); the dense ``(m*d) x (n*d)`` matrix is built only on
request.  The products (:func:`kron_apply`, :func:`kron_adjoint`, ``d``
times fewer flops), coherence, feasibility and block norms take ``W``.
:func:`kron_factor` finds the base of a dense lift.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

__all__ = [
    "BlockDictionary",
    "block_coherence",
    "cross_block_coherence",
    "mutual_coherence",
    "kron_lift",
    "kron_factor",
    "kron_apply",
    "kron_adjoint",
    "save_matrix",
    "load_matrix",
]

# Hard cap on the dense data of a lift; beyond this it is a usage error.
MAX_LIFT_ENTRIES = 10**8

# Largest block Gram residual of a dictionary with orthonormal blocks.
ORTHONORMAL_TOL = 1e-10

# Feasibility demanded of weight matrices: ||B[i]^T D[i] - I_d||_F per block.
FEASIBILITY_TOL = 1e-8


def _freeze(a: np.ndarray) -> np.ndarray:
    """``a`` as a read-only float64 array nobody else can write: ``a`` itself
    when it already is one that owns its data, a read-only copy otherwise."""
    if a.dtype == np.float64 and a.flags.owndata and not a.flags.writeable:
        return a
    out = np.array(a, dtype=np.float64, copy=True)
    out.flags.writeable = False
    return out


def _as_batch(A: np.ndarray, width: int, name: str) -> np.ndarray:
    """``A`` as a ``(batch, width)`` float array, one signal per row; any
    other shape, a single 1-d signal included, raises ValueError."""
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[1] != width:
        raise ValueError(f"{name} has shape {A.shape}, expected (batch, {width})")
    return A


def _is_base(M: np.ndarray, n: int) -> bool:
    """The width rule for ``n`` blocks of ``d`` entries: a matrix of ``n`` columns
    is the base ``W`` of the lift ``W (x) I_d``, one of ``n*d`` is dense; at d = 1 both."""
    return M.shape[1] == n


@dataclass(frozen=True)
class BlockDictionary:
    """An ``n_y x (n*d)`` matrix partitioned into ``n`` column blocks of width ``d``.

    ``held``, the one matrix stored, is the ``m x n`` base ``W`` of a lift
    ``W (x) I_d`` (``n_y = m*d``) or the dense matrix (:func:`_is_base`).
    """

    held: np.ndarray
    n: int
    d: int

    def __post_init__(self):
        held = np.asarray(self.held, dtype=np.float64)
        if held.ndim != 2:
            raise ValueError(f"BlockDictionary matrix must be 2-d, got shape {held.shape}")
        if self.n < 1 or self.d < 1:
            raise ValueError(f"invalid block structure n={self.n}, d={self.d}")
        if held.shape[1] not in (self.n, self.n * self.d):
            raise ValueError(
                f"column count {held.shape[1]} matches neither n = {self.n} "
                f"nor n*d = {self.n * self.d}"
            )
        object.__setattr__(self, "held", _freeze(held))

    @property
    def kron_base(self) -> np.ndarray | None:
        """The base ``W`` when the dictionary is the lift ``W (x) I_d``, else None."""
        return self.held if _is_base(self.held, self.n) else None

    @cached_property
    def data(self) -> np.ndarray:
        """The dense matrix; a lift's is built on first request and kept (two
        threads asking at once may each build it, to equal read-only arrays)."""
        if self.d == 1 or self.kron_base is None:
            return self.held
        if self.held.size * self.d**2 > MAX_LIFT_ENTRIES:
            raise ValueError(f"a lift of {self.held.size * self.d**2} entries is above the cap")
        lifted = _kron_eye(self.held, self.d)
        lifted.flags.writeable = False
        return lifted

    @property
    def n_y(self) -> int:
        return self.held.shape[0] * (1 if self.kron_base is None else self.d)

    @property
    def n_x(self) -> int:
        return self.n * self.d

    def block(self, i: int) -> np.ndarray:
        if not 0 <= i < self.n:
            raise IndexError(f"block index {i} out of range [0, {self.n})")
        if self.d > 1 and self.kron_base is not None:
            return _kron_eye(self.held[:, i : i + 1], self.d)
        return self.held[:, i * self.d : (i + 1) * self.d]

    def max_block_gram_residual(self) -> float:
        return float(_feasibility_residuals(self, self).max())


def _feasibility_residuals(B: BlockDictionary, D: BlockDictionary) -> np.ndarray:
    """``||B[i]^T D[i] - I_d||_F`` per block; for two lifts ``W (x) I_d`` and
    ``K (x) I_d`` it is ``sqrt(d) |w_i^T k_i - 1|``, taken on the bases."""
    if D.d > 1 and B.kron_base is not None and D.kron_base is not None:
        return np.sqrt(D.d) * np.abs(np.einsum("ij,ij->j", B.held, D.held) - 1.0)
    return _block_gram_residuals(B.data, D.data, D.n, D.d)


def _block_gram_residuals(X: np.ndarray, Y: np.ndarray, n: int, d: int) -> np.ndarray:
    """``||X[i]^T Y[i] - I_d||_F`` for each of the ``n`` column blocks of two
    ``n_y x (n*d)`` matrices, as one batched product of the block stacks."""
    Xb = X.reshape(-1, n, d).transpose(1, 2, 0)
    Yb = Y.reshape(-1, n, d).transpose(1, 0, 2)
    return np.linalg.norm(np.matmul(Xb, Yb) - np.eye(d), axis=(1, 2))


# ---------------------------------------------------------------------------
# coherence measures


def _max_off_diagonal(G: np.ndarray) -> float:
    """max over i != j of |G_ij|."""
    off = np.abs(G)
    np.fill_diagonal(off, 0.0)
    return float(off.max())


def _pairwise_block_spectral_max(G: np.ndarray, n: int, d: int) -> float:
    """max over i != j of ||G[i*d:(i+1)*d, j*d:(j+1)*d]||_2.

    Spectral norms come from singular values of the d x d sub-blocks,
    exact at these sizes; no power iteration needed.  One batched SVD per
    block row keeps the working set to that row's ``(n, d, d)`` stack.
    """
    if d == 1:
        return _max_off_diagonal(G)
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


def cross_block_coherence(B: BlockDictionary, D: BlockDictionary) -> float:
    """max over i != j of (1/d) ||B[i]^T D[j]||_2, for feasible B.

    Feasibility means ``B[i]^T D[i] = I_d`` within ``FEASIBILITY_TOL``
    (Frobenius); a violating block raises with its index.  When both are
    lifts, ``B = W (x) I_d`` and ``D = K (x) I_d``, the product is
    ``B^T D = (W^T K) (x) I_d``, so the coherence is the largest
    off-diagonal ``|(W^T K)_ij|`` over d and the ``(n*d)^2`` product is
    never formed; so are the residuals (:func:`_feasibility_residuals`).
    """
    if B.n != D.n or B.d != D.d or B.n_y != D.n_y:
        raise ValueError("B and D must share shape and block structure")
    if D.n < 2:
        raise ValueError("cross block coherence needs at least 2 blocks")
    resid = _feasibility_residuals(B, D)
    bad = np.flatnonzero(resid > FEASIBILITY_TOL)
    if bad.size:
        raise ValueError(
            f"B is infeasible at block {bad[0]}: ||B[i]^T D[i] - I||_F = {resid[bad[0]]:.3e}"
        )
    if B.kron_base is not None and D.kron_base is not None:
        return _max_off_diagonal(B.held.T @ D.held) / D.d
    return _pairwise_block_spectral_max(B.data.T @ D.data, D.n, D.d) / D.d


def mutual_coherence(A: np.ndarray) -> float:
    """Plain coherence max over i != j of |A[:,i]^T A[:,j]| (unit-column convention)."""
    A = np.asarray(A, dtype=np.float64)
    if A.shape[1] < 2:
        raise ValueError("mutual coherence needs at least 2 columns")
    return _max_off_diagonal(A.T @ A)


# ---------------------------------------------------------------------------
# MMV <-> block-sparse bridge


def kron_lift(K: np.ndarray, d: int) -> BlockDictionary:
    """The lift ``K (x) I_d`` of the ``m x n`` channel matrix K, held as K;
    block ``i`` equals ``K[:,i] (x) I_d``, so ``n_y = m*d`` and ``n_x = n*d``.

    The lift has orthonormal blocks iff all columns of K have unit norm.
    """
    K = np.asarray(K, dtype=np.float64)
    if K.ndim != 2:
        raise ValueError(f"K must be 2-d, got shape {K.shape}")
    if d < 1:
        raise ValueError(f"channel count d must be >= 1, got {d}")
    return BlockDictionary(K, n=K.shape[1], d=d)


def _kron_eye(W: np.ndarray, d: int) -> np.ndarray:
    """``W (x) I_d``, bit for bit numpy's Kronecker product with ``eye(d)``
    (signed zeros included), built in one array that owns its data: numpy's
    returns a view of its product, which :func:`_freeze` would have to copy."""
    m, n = W.shape
    lifted = np.empty((m * d, n * d))
    np.multiply(W[:, None, :, None], np.eye(d)[None, :, None, :], out=lifted.reshape(m, d, n, d))
    return lifted


def kron_factor(M: np.ndarray, d: int) -> np.ndarray | None:
    """The C-contiguous base ``W`` of a lift ``M = W (x) I_d``, or None when
    ``M`` is not exactly such a lift (a shape that is not a multiple of d
    included).

    ``M`` is a lift iff its ``d`` diagonal channel slices ``M[c::d, c::d]``
    are equal and every other entry is zero; the latter holds iff ``M`` has
    exactly ``d`` times the nonzeros of ``W``.  No second full-size array is
    built.  For d > 1 the base is a copy: a product through the strided
    view ``M[::d, ::d]`` is slower than through the lift itself.  At d = 1
    every matrix is its own base.
    """
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2 or d < 1:
        raise ValueError(f"need a 2-d matrix and d >= 1, got shape {M.shape} and d = {d}")
    if d == 1:
        return np.ascontiguousarray(M)
    if M.shape[0] % d or M.shape[1] % d:
        return None
    base = np.ascontiguousarray(M[::d, ::d])
    for c in range(1, d):
        if not np.array_equal(M[c::d, c::d], base):
            return None
    if np.count_nonzero(M) != d * np.count_nonzero(base):
        return None
    return base


def _through_base(W: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Rows of ``X``, each a ``(q, d)`` block signal, multiplied by the
    ``p x q`` matrix ``W`` on the block axis: one batched matmul of
    ``(batch, q, d)`` views, returned as ``(batch, p*d)``.  OpenBLAS runs
    it faster, to the same bits, with ``W`` column-major."""
    batch = X.shape[0]
    d = X.shape[1] // W.shape[1]
    if d == 1:
        return X @ W.T
    out = np.matmul(np.asfortranarray(W), X.reshape(batch, W.shape[1], d))
    return out.reshape(batch, W.shape[0] * d)


def kron_apply(X: np.ndarray, M: np.ndarray) -> np.ndarray:
    """``M`` applied to every row of the batch ``X``: ``X @ (M (x) I_d).T``
    for a base ``M`` with ``X.shape[1] / M.shape[1] = d`` columns per block,
    ``X @ M.T`` for a dense ``M`` as wide as ``X``."""
    return _through_base(M, X)


def kron_adjoint(R: np.ndarray, M: np.ndarray) -> np.ndarray:
    """``M^T`` applied to every row of the batch ``R``; ``M`` as in
    :func:`kron_apply`, which gives ``R @ M`` for a dense ``M``."""
    return _through_base(M.T, R)


# ---------------------------------------------------------------------------
# files
#
# Datasets, weights and checkpoints are a text manifest of ``key = value``
# lines (:func:`_write_manifest`, :func:`_read_manifest`) and numpy ``.npy``
# files of one 2-d float64 array each (:func:`save_matrix`,
# :func:`load_matrix`).


def save_matrix(path: str | Path, A: np.ndarray) -> None:
    """Write ``A`` (a 1-d array as one column) to exactly ``path`` as a
    C-ordered ``.npy`` file; ``np.save`` given a name would append
    ``.npy`` to it."""
    A = np.asarray(A, dtype=np.float64)
    if A.ndim == 1:
        A = A[:, None]
    if A.ndim != 2:
        raise ValueError(f"can only save 1-d or 2-d arrays, got shape {A.shape}")
    with open(path, "wb") as f:
        np.save(f, np.ascontiguousarray(A), allow_pickle=False)


def load_matrix(path: str | Path) -> np.ndarray:
    """The C-ordered matrix of a file written by :func:`save_matrix`.

    A truncated file, one that is not ``.npy`` (a pickle or a text matrix
    included), an array that is not 2-d float64 and a non-finite value
    each raise ValueError naming the file; a non-finite value also names
    its row and column.  ``read_array`` is :func:`np.load` without its
    ``.npz`` and pickle branches: every fault of the file is a ValueError.
    """
    with open(path, "rb") as f:
        try:
            A = np.lib.format.read_array(f, allow_pickle=False)
        except ValueError as exc:
            raise ValueError(f"{path}: not a readable .npy matrix: {exc}") from exc
    if A.ndim != 2 or A.dtype != np.float64:
        raise ValueError(f"{path}: holds a {A.ndim}-d {A.dtype} array, expected 2-d float64")
    finite = np.isfinite(A)
    if not finite.all():
        r, c = np.argwhere(~finite)[0]
        raise ValueError(f"{path}: non-finite value {A[r, c]} at row {r + 1}, column {c + 1}")
    return np.ascontiguousarray(A)


def _write_manifest(path: str | Path, section: str, values: dict[str, object]) -> None:
    """Write ``values`` to ``path`` as a manifest: a ``[section]`` line, then
    one ``key = value`` line per entry."""
    lines = [f"[{section}]"] + [f"{key} = {value}" for key, value in values.items()]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _read_text(path: str | Path) -> str:
    """The UTF-8 text of ``path``; a file that is not UTF-8 (one cut inside
    a multi-byte character included) raises ValueError naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc


def _read_manifest(path: str | Path, section: str):
    """``field(key, parse)`` of a manifest written by :func:`_write_manifest`.

    The first line must be ``[section]``; each other line is blank, a
    ``[...]`` header or ``key = value``.  A line of any other form, a
    repeated key, a last line without its newline (the file was cut
    short), a missing key and a value ``parse`` rejects each raise
    ValueError naming the file and, but for a missing key, the line; so
    does a file that is not UTF-8.
    """
    *lines, tail = _read_text(path).split("\n")
    if tail:
        raise ValueError(f"{path}:{len(lines) + 1}: file ends mid-line (truncated)")
    if not lines or lines[0].strip() != f"[{section}]":
        raise ValueError(f"{path}:1: not a {section} manifest (no [{section}] line first)")
    entries: dict[str, tuple[int, str]] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        text = line.strip()
        if not text or (text.startswith("[") and text.endswith("]")):
            continue
        key, eq, value = (part.strip() for part in text.partition("="))
        if not eq or not key:
            raise ValueError(f"{path}:{lineno}: expected `key = value`, got {text!r}")
        if key in entries:
            raise ValueError(f"{path}:{lineno}: key {key!r} repeats line {entries[key][0]}")
        entries[key] = (lineno, value)

    def field(key: str, parse):
        if key not in entries:
            raise ValueError(f"{path}: missing key {key!r}")
        lineno, text = entries[key]
        try:
            return parse(text)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad {key} value {text!r}: {exc}") from exc

    return field
