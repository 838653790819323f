"""Diagnostics for the recovery guarantees of analytically weighted networks.

For a network x{k+1} = eta_{a{k}}( x{k} - g{k} B^T (D x{k} - y) ) with a
feasible weight matrix B, thresholds that dominate the residual coupling,

    a{k} >= g{k} * mu * C_X{k} + C * sigma,          mu = d * mu_cross(B, D),

guarantee that iterates never activate blocks outside the true support,
and the worst l2 error over a bounded signal class obeys the per-layer
bound

    ||x{k} - x*||_2 <= exp(-sum_{t<k} a~(t)) s M
                       + C sigma (1 + sum_{t<k} exp(-sum_{r=t+1}^{k-1} a~(r)))

with contraction exponents a~(t) = -log( g{t} mu ((kappa+1)s - 1) + |1-g{t}| ),
valid while s < (1/mu + 1)/2 and every g{t} stays inside
(0, 2/(mu(2s-1)+1)).  Here C = sup_k max_j |g{k}| ||B[j]||_2 and C_X{k} is
the worst l2,1 error at layer k over the class; kappa >= 1 measures how far
the trained thresholds sit above the minimal compliant value.

The class suprema are uncomputable, so C_X{k} is measured as a max over a
finite test set; that under-estimate makes the kappa estimate an
over-estimate, the conservative direction for the threshold condition.
Likewise mu uses the achieved coherence of the supplied B, an upper bound
on the best possible value.  All analyses here are read-only and freely
parallel.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .blockcore import BlockDictionary, _as_batch, cross_block_coherence
# unused here; kept for benchmark/tests/test_harness.py's rebinding check
from .operators import eta  # noqa: F401
from .unfolding import ForwardPass, NetworkParams, NetworkVariant, forward

__all__ = [
    "BoundConstants",
    "KappaEstimate",
    "max_weight_block_norm",
    "measure_constants",
    "support_violation_layers",
    "estimate_kappa",
    "step_size_limit",
    "error_bound_curve",
    "calibrated_network",
    "write_verify_csv",
]


@dataclass(frozen=True)
class BoundConstants:
    """Measured quantities entering the recovery bounds.

    ``C_X[k]`` is the worst l2,1 error after k layers over the measured
    set, for k = 0..K (entry 0 is the worst ||x*||_{2,1}).
    """

    mu_tilde_b: float
    mu: float
    C: float
    C_X: np.ndarray
    sigma: float
    s: int
    M: float


@dataclass(frozen=True)
class KappaEstimate:
    """Per-layer ratios of :func:`estimate_kappa`, their max ``kappa`` and
    min ``min_ratio``, and ``thresholds_ok``: whether every threshold meets
    its condition, decided on the condition itself, not on the ratio."""

    kappa: float
    min_ratio: float
    ratios: np.ndarray
    thresholds_ok: bool


def max_weight_block_norm(B: BlockDictionary) -> float:
    """max_j ||B[j]||_2 over the weight blocks; for a lift ``W (x) I_d`` the
    largest column norm of ``W``, as ``||w_j (x) I_d||_2 = ||w_j||``."""
    if B.kron_base is not None:
        return float(np.linalg.norm(B.kron_base, axis=0).max())
    return max(float(np.linalg.norm(B.block(j), 2)) for j in range(B.n))


def _l21_rows(X: np.ndarray, n: int, d: int) -> np.ndarray:
    return np.linalg.norm(X.reshape(X.shape[0], n, d), axis=2).sum(axis=1)


def _observed_sparsity(X: np.ndarray, n: int, d: int) -> int:
    """The largest number of nonzero blocks in one row of ``X``."""
    norms = np.linalg.norm(X.reshape(X.shape[0], n, d), axis=2)
    return int(np.count_nonzero(norms > 0, axis=1).max())


def measure_constants(
    params: NetworkParams,
    fp: ForwardPass,
    X_star: np.ndarray,
    sigma: float = 0.0,
    s: int | None = None,
) -> BoundConstants:
    """Measure mu, C and the per-layer error suprema on a finite test set.

    ``fp`` must be a forward pass of ``params`` on the measurements of
    ``X_star``.  mu and C are maxima over the distinct weight matrices of
    the executed layers; an infeasible one raises naming its layer.  The
    sparsity level defaults to the largest block support observed in the
    set.
    """
    if params.variant not in (
        NetworkVariant.ALBISTA,
        NetworkVariant.TIED_LBISTA_CP,
        NetworkVariant.UNTIED_LBISTA_CP,
    ):
        raise ValueError(
            f"constants are defined for the gradient-step variants, not {params.variant.value}"
        )
    n, d = params.n, params.d
    D = BlockDictionary(params.dictionary, n=n, d=d)
    # the tied variants share one matrix across layers
    distinct = fp.depth if params.variant is NetworkVariant.UNTIED_LBISTA_CP else 1
    mu_tilde = B_norm = 0.0
    for k, Bk in enumerate(params.B[:distinct], start=1):
        B = BlockDictionary(Bk, n=n, d=d)
        try:
            mu_tilde = max(mu_tilde, cross_block_coherence(B, D))
        except ValueError as exc:
            raise ValueError(f"layer {k}: {exc}") from exc
        B_norm = max(B_norm, max_weight_block_norm(B))
    C = float(np.max(np.abs(params.gammas[: fp.depth]))) * B_norm
    X_star = _as_batch(X_star, params.n_x, "X_star")
    C_X = np.array(
        [float(_l21_rows(Xk - X_star, n, d).max()) for Xk in fp.iterates]
    )
    return BoundConstants(
        mu_tilde_b=mu_tilde,
        mu=d * mu_tilde,
        C=C,
        C_X=C_X,
        sigma=sigma,
        s=_observed_sparsity(X_star, n, d) if s is None else s,
        M=float(np.linalg.norm(X_star.reshape(X_star.shape[0], n, d), axis=2).max()),
    )


# ---------------------------------------------------------------------------
# support containment


def support_violation_layers(
    fp: ForwardPass, X_star: np.ndarray, n: int, d: int
) -> np.ndarray:
    """Per-sample first layer (0 = start) whose block support escapes
    supp(x*); -1 if none.

    A block is active when its norm exceeds ``1e-12 * max(1, ||x||_2)`` of
    the signal it belongs to: exact zeros are unrealizable in floating
    point.
    """
    X_star = _as_batch(X_star, n * d, "X_star")
    batch = X_star.shape[0]

    def active(X: np.ndarray) -> np.ndarray:
        norms = np.linalg.norm(X.reshape(batch, n, d), axis=2)
        return norms > 1e-12 * np.maximum(1.0, np.linalg.norm(X, axis=1))[:, None]

    outside = ~active(X_star)
    first = np.full(batch, -1, dtype=int)
    for k, Xk in enumerate(fp.iterates):
        escaped = np.any(active(Xk) & outside, axis=1)
        first[escaped & (first < 0)] = k
    return first


# ---------------------------------------------------------------------------
# threshold margin and error bound


def estimate_kappa(params: NetworkParams, constants: BoundConstants) -> KappaEstimate:
    """Margin of the trained thresholds over the minimal compliant value:
    ratios (a{k} - C sigma) / (g{k} mu C_X{k}), max over layers.

    The min ratio must be >= 1 for the guarantees to apply; one can always
    extract such a kappa from compliant trained parameters.  When
    g{k} mu C_X{k} is far below C sigma the numerator cancels, and a
    threshold at the edge can read a ratio on either side of 1, so
    ``thresholds_ok`` compares a{k} with g{k} mu C_X{k} + C sigma directly,
    with a relative slack of 1e-12 for rounding.
    """
    K = len(params.alphas)
    denom = params.gammas[:K] * constants.mu * constants.C_X[:K]
    if np.any(denom <= 0):
        bad = int(np.flatnonzero(denom <= 0)[0])
        raise ValueError(
            f"nonpositive threshold-condition denominator at layer {bad}: "
            f"gamma={params.gammas[bad]:.3g}, mu={constants.mu:.3g}, "
            f"C_X={constants.C_X[bad]:.3g}"
        )
    noise = constants.C * constants.sigma
    ratios = (params.alphas[:K] - noise) / denom
    ok = bool(np.all(params.alphas[:K] >= (denom + noise) * (1.0 - 1e-12)))
    return KappaEstimate(float(ratios.max()), float(ratios.min()), ratios, ok)


def step_size_limit(mu: float, s: int) -> float:
    """Upper end of the admissible step-size interval, 2/(mu(2s-1)+1)."""
    return 2.0 / (mu * (2 * s - 1) + 1.0)


def error_bound_curve(
    gammas: np.ndarray,
    constants: BoundConstants,
    kappa: float,
) -> np.ndarray:
    """Per-layer right-hand side of the l2 error bound, k = 0..K.

    The inner noise accumulation uses the suffix sums
    ``sum_{r=t+1}^{k-1} a~(r)`` produced by unrolling the one-step
    contraction.  Hypothesis violations (step size outside the interval or
    s too large for mu) warn; the exponents may then be nonpositive and
    the curve loses its guarantee.
    """
    mu, s, M, sigma, C = constants.mu, constants.s, constants.M, constants.sigma, constants.C
    gammas = np.asarray(gammas, dtype=np.float64)
    K = len(gammas)
    if s >= (1.0 / mu + 1.0) / 2.0:
        warnings.warn(
            f"sparsity s={s} violates s < (1/mu + 1)/2 = {(1.0 / mu + 1.0) / 2.0:.3g}",
            stacklevel=2,
        )
    limit = step_size_limit(mu, s)
    if np.any((gammas <= 0) | (gammas >= limit)):
        warnings.warn(
            f"step sizes leave the admissible interval (0, {limit:.3g})", stacklevel=2
        )
    a = gammas * mu * ((kappa + 1) * s - 1) + np.abs(1.0 - gammas)
    a_tilde = -np.log(a)
    bound = np.empty(K + 1)
    bound[0] = s * M
    for k in range(1, K + 1):
        signal = np.exp(-np.sum(a_tilde[:k])) * s * M
        noise = 1.0 + sum(
            np.exp(-np.sum(a_tilde[t + 1 : k])) for t in range(k)
        )
        bound[k] = signal + C * sigma * noise
    return bound


# ---------------------------------------------------------------------------
# threshold calibration at the compliant lower edge


def calibrated_network(
    D: BlockDictionary,
    B: BlockDictionary,
    gamma: float,
    depth: int,
    X_star: np.ndarray,
    Y: np.ndarray,
    sigma: float = 0.0,
    s: int | None = None,
) -> tuple[NetworkParams, BoundConstants]:
    """Fixed-weight network with thresholds at the compliant lower edge.

    Builds layer by layer: a{k} = gamma * mu * C_X{k} + C * sigma, with
    C_X{k} measured on the supplied signals after the layers before k, which
    realizes the threshold condition with kappa = 1 on that set.  Returns
    the network and its :func:`measure_constants` on those signals, taken
    on the calibration's own layer-by-layer pass, which computes the
    iterates of one full forward pass.
    """
    n, d = D.n, D.d
    mu = d * cross_block_coherence(B, D)
    C = abs(gamma) * max_weight_block_norm(B)
    X_star = _as_batch(X_star, D.n_x, "X_star")
    params = NetworkParams(
        variant=NetworkVariant.ALBISTA,
        n=n,
        d=d,
        depth=depth,
        dictionary=D.held.copy(),
        alphas=np.zeros(depth),
        gammas=np.full(depth, gamma),
        B=[B.held.copy()] * depth,
    )
    X = np.zeros_like(X_star)
    iterates, prethresh = [X], []
    for k in range(depth):
        params.alphas[k] = gamma * mu * float(_l21_rows(X - X_star, n, d).max()) + C * sigma
        layer = forward(params, Y, depth=k + 1, start=k, x_init=X)
        X = layer.iterates[-1]
        iterates.append(X)
        prethresh += layer.prethresh
    fp = ForwardPass(Y=layer.Y, iterates=iterates, prethresh=prethresh)
    return params, measure_constants(params, fp, X_star, sigma, s)


def write_verify_csv(
    path: str | Path,
    empirical_max_err: np.ndarray,
    bound_rhs: np.ndarray,
    params: NetworkParams,
    kappa_ratios: np.ndarray,
    notes: Sequence[str] = (),
) -> None:
    """Per-layer diagnostic report; ``gamma`` is nan for the S-form variants,
    which have no step sizes.

    The step-size interval quoted in notes is computed with mu = d * the
    achieved cross coherence, the constant the contraction argument
    actually uses.
    """
    K = len(params.alphas)
    gammas = params.gammas if params.gammas is not None else np.full(K, np.nan)
    with open(path, "w", encoding="utf-8") as f:
        f.write("# blockunfold-csv v1 verify\n")
        for note in notes:
            f.write(f"# {note}\n")
        f.write("layer,empirical_max_err,bound_rhs,alpha,gamma,kappa_ratio\n")
        for k in range(1, K + 1):
            f.write(
                f"{k},{empirical_max_err[k]:.17g},{bound_rhs[k]:.17g},"
                f"{params.alphas[k - 1]:.17g},{gammas[k - 1]:.17g},"
                f"{kappa_ratios[k - 1]:.17g}\n"
            )
