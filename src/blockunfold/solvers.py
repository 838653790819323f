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

Solvers are pure given their inputs; batch evaluation over many (x*, y)
pairs may run data-parallel without shared state.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .blockcore import BlockDictionary, BlockVector, block_support
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


class DivergenceError(RuntimeError):
    """Raised when an iteration produces non-finite or exploding state."""

    def __init__(self, message: str, iteration: int):
        super().__init__(f"{message} (iteration {iteration})")
        self.iteration = iteration


def spectral_norm(A: np.ndarray, tol: float = 1e-10, max_iter: int = 10_000) -> float:
    """Largest singular value of A by power iteration on A^T A.

    Deterministic: the start vector comes from a fixed-seed generator.
    """
    A = np.asarray(A, dtype=np.float64)
    v = np.random.default_rng(0).standard_normal(A.shape[1])
    v /= np.linalg.norm(v)
    sigma = 0.0
    for _ in range(max_iter):
        w = A.T @ (A @ v)
        norm_w = np.linalg.norm(w)
        if norm_w == 0.0:
            return 0.0
        v_new = w / norm_w
        sigma_new = np.sqrt(norm_w)
        if abs(sigma_new - sigma) <= tol * max(1.0, sigma_new):
            return float(sigma_new)
        v, sigma = v_new, sigma_new
    return float(sigma)


def _dictionary_norm(D: BlockDictionary) -> float:
    """||D||_2, computed once per dictionary and kept on it.

    A dictionary's data is read-only, so the norm cannot go stale; this
    keeps per-sample solver runs from repeating the power iteration.
    """
    norm = D.__dict__.get("_spectral_norm")
    if norm is None:
        norm = spectral_norm(D.data)
        object.__setattr__(D, "_spectral_norm", norm)
    return norm


def default_step_size(D: BlockDictionary) -> float:
    """Step size 1/(1.01 ||D||_2^2) used by all baselines."""
    return 1.0 / (1.01 * _dictionary_norm(D) ** 2)


def lasso_objective(D: BlockDictionary, y: np.ndarray, x: BlockVector, alpha: float) -> float:
    """1/2 ||Dx - y||^2 + alpha ||x||_{2,1}."""
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (D.n_y,):
        raise ValueError(f"y has shape {y.shape}, expected ({D.n_y},)")
    if x.n_x != D.n_x or (x.n, x.d) != (D.n, D.d):
        raise ValueError("x does not match the dictionary's block structure")
    resid = D.data @ x.data - y
    return float(0.5 * resid @ resid + alpha * x.block_norms().sum())


@dataclass
class SolverTrace:
    """Iterates x{0..K} with per-iteration diagnostics.

    The trace always includes the starting point, so its length is the
    iteration count plus one.
    """

    n: int
    d: int
    iterates: list[np.ndarray] = field(default_factory=list)
    objectives: list[float] = field(default_factory=list)
    nmse: list[float] | None = None
    supports: list[set[int]] = field(default_factory=list)

    def append(self, x: np.ndarray, objective: float, x_star: np.ndarray | None) -> None:
        self.iterates.append(x.copy())
        self.objectives.append(objective)
        self.supports.append(block_support(BlockVector(x, self.n, self.d)))
        if x_star is not None:
            if self.nmse is None:
                self.nmse = []
            denom = float(x_star @ x_star)
            self.nmse.append(float((x - x_star) @ (x - x_star)) / denom if denom > 0 else np.nan)

    @property
    def final(self) -> BlockVector:
        return BlockVector(self.iterates[-1], self.n, self.d)

    def __len__(self) -> int:
        return len(self.iterates)


def _check_inputs(D: BlockDictionary, y: np.ndarray, x0: BlockVector | None):
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (D.n_y,):
        raise ValueError(f"y has shape {y.shape}, expected ({D.n_y},)")
    if x0 is None:
        x0 = BlockVector.zeros(D.n, D.d)
    elif (x0.n, x0.d) != (D.n, D.d):
        raise ValueError("x0 does not match the dictionary's block structure")
    return y, x0


def _guard(x: np.ndarray, y_norm: float, k: int) -> None:
    if not np.all(np.isfinite(x)):
        raise DivergenceError("non-finite iterate", k)
    if np.linalg.norm(x) > DIVERGENCE_FACTOR * max(y_norm, 1.0):
        raise DivergenceError("iterate norm exceeded divergence guard", k)


def bista_run(
    D: BlockDictionary,
    y: np.ndarray,
    alpha: float,
    gamma: float,
    iters: int,
    x0: BlockVector | None = None,
    x_star: np.ndarray | None = None,
) -> SolverTrace:
    """Block ISTA with threshold alpha*gamma per step."""
    y, x0 = _check_inputs(D, y, x0)
    if iters < 0:
        raise ValueError(f"iters must be >= 0, got {iters}")
    L = _dictionary_norm(D) ** 2
    if not 0.0 < gamma <= 1.0 / L:
        warnings.warn(
            f"gamma={gamma:.3g} outside the recommended interval (0, {1.0 / L:.3g}]",
            stacklevel=2,
        )
    A = D.data
    y_norm = float(np.linalg.norm(y))
    trace = SolverTrace(D.n, D.d)
    x = x0.data.copy()
    trace.append(x, lasso_objective(D, y, BlockVector(x, D.n, D.d), alpha), x_star)
    for k in range(1, iters + 1):
        x = eta(x - gamma * (A.T @ (A @ x - y)), alpha * gamma, D.n, D.d)
        _guard(x, y_norm, k)
        trace.append(x, lasso_objective(D, y, BlockVector(x, D.n, D.d), alpha), x_star)
    return trace


def fast_bista_run(
    D: BlockDictionary,
    y: np.ndarray,
    alpha: float,
    gamma: float,
    iters: int,
    x0: BlockVector | None = None,
    x_star: np.ndarray | None = None,
) -> SolverTrace:
    """Momentum block ISTA: Nesterov extrapolation before each threshold step.

    With t0 = 1 the first iteration has zero momentum and coincides with
    the plain method.
    """
    y, x0 = _check_inputs(D, y, x0)
    if iters < 0:
        raise ValueError(f"iters must be >= 0, got {iters}")
    A = D.data
    y_norm = float(np.linalg.norm(y))
    trace = SolverTrace(D.n, D.d)
    x = x0.data.copy()
    x_prev = x.copy()
    t = 1.0
    trace.append(x, lasso_objective(D, y, BlockVector(x, D.n, D.d), alpha), x_star)
    for k in range(1, iters + 1):
        t_next = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
        w = x + ((t - 1.0) / t_next) * (x - x_prev)
        x_prev = x
        x = eta(w - gamma * (A.T @ (A @ w - y)), alpha * gamma, D.n, D.d)
        t = t_next
        _guard(x, y_norm, k)
        trace.append(x, lasso_objective(D, y, BlockVector(x, D.n, D.d), alpha), x_star)
    return trace


def alamp_run(
    D: BlockDictionary,
    B: BlockDictionary,
    alpha: float,
    gamma: float,
    iters: int,
    y: np.ndarray,
    onsager: bool = True,
    x0: BlockVector | None = None,
    x_star: np.ndarray | None = None,
) -> SolverTrace:
    """AMP-style iteration with weight matrix B and Onsager memory term.

    b{0} = 0 and v{-1} = 0.  The correction b{k} is the threshold Jacobian
    trace at the previous pre-threshold point divided by n_y (configurable
    off via ``onsager=False``, which reduces the scheme to a plain
    thresholded gradient iteration with matrix B).
    """
    y, x0 = _check_inputs(D, y, x0)
    if (B.n, B.d, B.n_y) != (D.n, D.d, D.n_y):
        raise ValueError("B and D must share shape and block structure")
    if iters < 0:
        raise ValueError(f"iters must be >= 0, got {iters}")
    A = D.data
    W = B.data
    n_y = D.n_y
    y_norm = float(np.linalg.norm(y))
    trace = SolverTrace(D.n, D.d)
    x = x0.data.copy()
    trace.append(x, lasso_objective(D, y, BlockVector(x, D.n, D.d), alpha), x_star)
    v_prev = np.zeros(n_y)
    b = 0.0
    for k in range(1, iters + 1):
        v = y - A @ x + b * v_prev
        z = x + gamma * (W.T @ v)
        x = eta(z, alpha, D.n, D.d)
        if not np.all(np.isfinite(x)):
            raise DivergenceError("non-finite AMP state", k)
        _guard(x, y_norm, k)
        b = float(eta_trace(z, alpha, D.n, D.d)) / n_y if onsager else 0.0
        v_prev = v
        trace.append(x, lasso_objective(D, y, BlockVector(x, D.n, D.d), alpha), x_star)
    return trace


def decorrelation_trace(B: BlockDictionary, D: BlockDictionary) -> float:
    """tr(I - B^T D) over the signal space; zero for feasible weights.

    Feasibility B[i]^T D[i] = I_d forces the diagonal blocks of B^T D to
    identity, so the trace vanishes exactly.
    """
    if (B.n, B.d, B.n_y) != (D.n, D.d, D.n_y):
        raise ValueError("B and D must share shape and block structure")
    return float(D.n_x - np.trace(B.data.T @ D.data))
