"""Classical baselines: block ISTA, its momentum variant, and learned AMP.

Block ISTA minimizes ``1/2 ||Dx - y||^2 + alpha sum_i ||x[i]||_2`` via the
fixed-point iteration

    x{k} = eta_{alpha*gamma}( x{k-1} - gamma D^T (D x{k-1} - y) ),

which descends monotonically for gamma < 1/||D||_2^2.  The momentum variant
adds the usual Nesterov extrapolation.  The AMP variant replaces the plain
residual with an Onsager-corrected one,

    v{k} = y - D x{k} + b{k} v{k-1},    x{k+1} = eta_alpha(x{k} + gamma B^T v{k}),

where ``b{k}`` is the normalized divergence of the threshold at the previous
pre-threshold point and B may be any feasible weight matrix (B = D recovers
plain AMP form).

Solvers are pure given their inputs.  Each takes a batch of measurement
vectors, one per row of a ``(batch, n_y)`` array, and runs every row at
once, one GEMM per step.  A 1-d measurement vector is rejected; pass
``y[None]`` for one signal.  A dictionary that is a lift ``K (x) I_d``
multiplies through its base ``K`` (:attr:`~.blockcore.BlockDictionary.held`).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .blockcore import BlockDictionary, _as_batch, kron_adjoint, kron_apply
from .operators import eta, eta_trace

__all__ = [
    "SolverTrace",
    "DivergenceError",
    "spectral_norm",
    "default_step_size",
    "lasso_objective",
    "bista_run",
    "fast_bista_run",
    "alamp_run",
    "decorrelation_trace",
]

# Abort when iterates outgrow the data by this factor.
DIVERGENCE_FACTOR = 1e6

# Power iteration stops at this relative change, or after this many steps.
SPECTRAL_TOL = 1e-10
SPECTRAL_MAX_ITER = 10_000


class DivergenceError(RuntimeError):
    """Raised when an iteration produces non-finite or exploding state.

    ``row`` is the offending row of a solver's batch; None for an error
    that no single row caused.  ``unit`` names what ``iteration`` counts in
    the message: an unfolded network's iterations are its layers.
    """

    def __init__(
        self, message: str, iteration: int, row: int | None = None, unit: str = "iteration"
    ):
        where = "" if row is None else f" in row {row}"
        super().__init__(f"{message}{where} ({unit} {iteration})")
        self.iteration = iteration
        self.row = row


def spectral_norm(A: np.ndarray) -> float:
    """Largest singular value of A by power iteration on A^T A.

    Deterministic: the start vector comes from a fixed-seed generator.
    """
    A = np.asarray(A, dtype=np.float64)
    v = np.random.default_rng(0).standard_normal(A.shape[1])
    v /= np.linalg.norm(v)
    sigma = 0.0
    for _ in range(SPECTRAL_MAX_ITER):
        w = A.T @ (A @ v)
        norm_w = np.linalg.norm(w)
        if norm_w == 0.0:
            return 0.0
        v_new = w / norm_w
        sigma_new = np.sqrt(norm_w)
        if abs(sigma_new - sigma) <= SPECTRAL_TOL * max(1.0, sigma_new):
            return float(sigma_new)
        v, sigma = v_new, sigma_new
    return float(sigma)


def _dictionary_norm(D: BlockDictionary) -> float:
    """||D||_2, computed once per dictionary and kept on it.

    A dictionary's data is read-only, so the norm cannot go stale; this
    keeps repeated solver runs on one dictionary from repeating the power
    iteration.
    """
    norm = D.__dict__.get("_spectral_norm")
    if norm is None:
        norm = spectral_norm(D.data)
        object.__setattr__(D, "_spectral_norm", norm)
    return norm


def default_step_size(D: BlockDictionary) -> float:
    """Step size 1/(1.01 ||D||_2^2) used by all baselines."""
    return 1.0 / (1.01 * _dictionary_norm(D) ** 2)


def lasso_objective(
    D: BlockDictionary, y: np.ndarray, x: np.ndarray, alpha: float
) -> np.ndarray:
    """1/2 ||Dx - y||^2 + alpha ||x||_{2,1} for every row of a batch.

    ``y`` has shape ``(batch, n_y)`` and ``x`` shape ``(batch, n_x)``; the
    result has one value per row.
    """
    y = _as_batch(y, D.n_y, "y")
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (y.shape[0], D.n_x):
        raise ValueError(f"x has shape {x.shape}, expected {(y.shape[0], D.n_x)}")
    resid = kron_apply(x, D.held) - y
    block_norms = np.linalg.norm(x.reshape(-1, D.n, D.d), axis=-1)
    return 0.5 * np.einsum("ij,ij->i", resid, resid) + alpha * block_norms.sum(axis=-1)


@dataclass
class SolverTrace:
    """Iterates x{0..K} of a batch run, with the objective of each.

    The trace always includes the starting point, so its length is the
    iteration count plus one.  ``iterates[k]`` has shape ``(batch, n_x)``
    and ``objectives[k]`` shape ``(batch,)``, one row per signal.  Error
    metrics against a reference are the caller's: see
    :func:`~blockunfold.training.batch_nmse_ratios`.
    """

    iterates: list[np.ndarray] = field(default_factory=list)
    objectives: list[np.ndarray] = field(default_factory=list)

    def append(self, X: np.ndarray, objective: np.ndarray) -> None:
        self.iterates.append(X)
        self.objectives.append(objective)

    def __len__(self) -> int:
        return len(self.iterates)


def _check_inputs(
    D: BlockDictionary, y: np.ndarray, x0: np.ndarray | None, iters: int
) -> tuple[np.ndarray, np.ndarray]:
    """The measurements ``(batch, n_y)`` and start ``(batch, n_x)`` of a run.

    ``x0`` holds one starting point per row; None starts from zero.
    """
    Y = _as_batch(y, D.n_y, "y")
    if iters < 0:
        raise ValueError(f"iters must be >= 0, got {iters}")
    if x0 is None:
        return Y, np.zeros((Y.shape[0], D.n_x))
    X0 = np.asarray(x0, dtype=np.float64)
    if X0.shape != (Y.shape[0], D.n_x):
        raise ValueError(f"x0 has shape {X0.shape}, expected {(Y.shape[0], D.n_x)}")
    return Y, X0


def _guard(X: np.ndarray, limits: np.ndarray, k: int) -> None:
    """Raise for the first row of X that is non-finite or past its limit."""
    norms = np.sqrt(np.einsum("ij,ij->i", X, X))
    bad = ~(norms <= limits)
    if not bad.any():
        return
    row = int(np.argmax(bad))
    if np.all(np.isfinite(X[row])):
        message = "iterate norm exceeded divergence guard"
    else:
        message = "non-finite iterate"
    raise DivergenceError(message, k, row)


def _divergence_limits(Y: np.ndarray) -> np.ndarray:
    return DIVERGENCE_FACTOR * np.maximum(np.linalg.norm(Y, axis=1), 1.0)


def bista_run(
    D: BlockDictionary,
    y: np.ndarray,
    alpha: float,
    gamma: float,
    iters: int,
    x0: np.ndarray | None = None,
) -> SolverTrace:
    """Block ISTA with threshold alpha*gamma per step.

    ``y`` is a batch ``(batch, n_y)``, run all at once, one GEMM per step;
    ``x0``, if given, is one starting point per row, ``(batch, n_x)``.
    """
    Y, X = _check_inputs(D, y, x0, iters)
    L = _dictionary_norm(D) ** 2
    if not 0.0 < gamma <= 1.0 / L:
        warnings.warn(
            f"gamma={gamma:.3g} outside the recommended interval (0, {1.0 / L:.3g}]",
            stacklevel=2,
        )
    A = D.held
    limits = _divergence_limits(Y)
    trace = SolverTrace()
    trace.append(X, lasso_objective(D, Y, X, alpha))
    for k in range(1, iters + 1):
        grad = kron_adjoint(kron_apply(X, A) - Y, A)
        X = eta(X - gamma * grad, alpha * gamma, D.n, D.d)
        _guard(X, limits, k)
        trace.append(X, lasso_objective(D, Y, X, alpha))
    return trace


def fast_bista_run(
    D: BlockDictionary,
    y: np.ndarray,
    alpha: float,
    gamma: float,
    iters: int,
    x0: np.ndarray | None = None,
) -> SolverTrace:
    """Momentum block ISTA: Nesterov extrapolation before each threshold step.

    With t0 = 1 the first iteration has zero momentum and coincides with
    the plain method.  Batches as :func:`bista_run` does.
    """
    Y, X = _check_inputs(D, y, x0, iters)
    A = D.held
    limits = _divergence_limits(Y)
    trace = SolverTrace()
    X_prev = X
    t = 1.0
    trace.append(X, lasso_objective(D, Y, X, alpha))
    for k in range(1, iters + 1):
        t_next = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
        W = X + ((t - 1.0) / t_next) * (X - X_prev)
        X_prev = X
        grad = kron_adjoint(kron_apply(W, A) - Y, A)
        X = eta(W - gamma * grad, alpha * gamma, D.n, D.d)
        t = t_next
        _guard(X, limits, k)
        trace.append(X, lasso_objective(D, Y, X, alpha))
    return trace


def alamp_run(
    D: BlockDictionary,
    B: BlockDictionary,
    alpha: float,
    gamma: float,
    iters: int,
    y: np.ndarray,
    onsager: bool = True,
    x0: np.ndarray | None = None,
) -> SolverTrace:
    """AMP-style iteration with weight matrix B and Onsager memory term.

    b{0} = 0 and v{-1} = 0.  The correction b{k} is the threshold Jacobian
    trace at the previous pre-threshold point divided by n_y (configurable
    off via ``onsager=False``, which reduces the scheme to a plain
    thresholded gradient iteration with matrix B).  Batches as
    :func:`bista_run` does, with one correction per row.
    """
    if (B.n, B.d, B.n_y) != (D.n, D.d, D.n_y):
        raise ValueError("B and D must share shape and block structure")
    Y, X = _check_inputs(D, y, x0, iters)
    limits = _divergence_limits(Y)
    trace = SolverTrace()
    trace.append(X, lasso_objective(D, Y, X, alpha))
    V_prev = np.zeros_like(Y)
    b = np.zeros((Y.shape[0], 1))
    for k in range(1, iters + 1):
        V = Y - kron_apply(X, D.held) + b * V_prev
        Z = X + gamma * kron_adjoint(V, B.held)
        X = eta(Z, alpha, D.n, D.d)
        _guard(X, limits, k)
        if onsager:
            b = eta_trace(Z, alpha, D.n, D.d)[:, None] / D.n_y
        V_prev = V
        trace.append(X, lasso_objective(D, Y, X, alpha))
    return trace


def decorrelation_trace(B: BlockDictionary, D: BlockDictionary) -> float:
    """tr(I - B^T D) over the signal space; zero for feasible weights.

    Feasibility B[i]^T D[i] = I_d forces the diagonal blocks of B^T D to
    identity, so the trace vanishes exactly.
    """
    if (B.n, B.d, B.n_y) != (D.n, D.d, D.n_y):
        raise ValueError("B and D must share shape and block structure")
    return float(D.n_x - np.trace(B.data.T @ D.data))
