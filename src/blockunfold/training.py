"""Layer-wise network training with a built-in Adam optimizer.

Layers are trained one at a time: for layer k only that stage's parameters
are optimized (shared matrices take part in every stage), against the
batch-mean squared loss of the layer-k output.  The loss is this module's:
:func:`empirical_risk` gives it with its gradient at the output, which
:func:`~blockunfold.unfolding.backward` takes back through the network.
A layer stops when the validation metric, the worst normalized squared
error over the validation set, has not improved by more than ``tol`` for
``patience_iters`` consecutive evaluations; the best parameters seen are
then frozen and the next layer starts.  A stage whose network diverges or
whose gradient goes non-finite is frozen the same way, with a warning, and
training goes on.

Training is deterministic: one seeded generator drives the minibatch draws,
and identical seed and config reproduce the history bit for bit.

The metrics take batches, estimates and references as ``(batch, n_x)``
arrays with one signal per row; :func:`batch_nmse_ratios` and
:func:`mean_nmse_db` are the one NMSE implementation the CLI, the
trainer and the tests share.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .blockcore import _as_batch, kron_adjoint, kron_apply
from .solvers import DivergenceError
from .unfolding import ForwardPass, NetworkParams, NetworkVariant, backward, forward, stage_arrays

__all__ = [
    "TrainConfig",
    "TrainData",
    "TrainHistory",
    "AdamState",
    "adam_step",
    "batch_nmse_ratios",
    "mean_nmse_db",
    "empirical_risk",
    "layerwise_train",
    "write_history_csv",
]

# dB value reported for an exactly zero error ratio.
NMSE_FLOOR_DB = -300.0

ALPHA_MIN = 1e-8


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    patience_iters: int = 5000
    tol: float = 1e-5
    batch_size: int = 250
    max_iters_per_layer: int = 50_000
    seed: int = 0
    eval_every: int = 10

    def __post_init__(self):
        positives = {
            "learning_rate": self.learning_rate,
            "tol": self.tol,
            "batch_size": self.batch_size,
            "max_iters_per_layer": self.max_iters_per_layer,
            "eval_every": self.eval_every,
        }
        for name, value in positives.items():
            if not value > 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.patience_iters < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience_iters}")


@dataclass
class TrainData:
    """Fixed train/validation splits, samples in rows."""

    X_train: np.ndarray
    Y_train: np.ndarray
    X_val: np.ndarray
    Y_val: np.ndarray


@dataclass
class TrainHistory:
    """Per-step losses, validation metric trace and layer freeze points."""

    steps: list[int] = field(default_factory=list)
    layers: list[int] = field(default_factory=list)
    train_losses: list[float] = field(default_factory=list)
    val_steps: list[int] = field(default_factory=list)
    val_nmse_db: list[float] = field(default_factory=list)
    layer_boundaries: list[int] = field(default_factory=list)
    frozen_val_db: list[float] = field(default_factory=list)


# ---------------------------------------------------------------------------
# metrics


def _check_pair(X_hat: np.ndarray, X_star: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Estimates and references as two ``(batch, n_x)`` arrays of one shape."""
    X_star = np.asarray(X_star, dtype=np.float64)
    width = X_star.shape[-1] if X_star.ndim else 0
    X_hat = _as_batch(X_hat, width, "X_hat")
    X_star = _as_batch(X_star, width, "X_star")
    if X_hat.shape != X_star.shape:
        raise ValueError(f"shape mismatch {X_hat.shape} vs {X_star.shape}")
    return X_hat, X_star


def _ratio_db(ratio: float) -> float:
    """An error ratio in dB; an exact match reports the -300 dB floor."""
    return NMSE_FLOOR_DB if ratio <= 0.0 else float(10.0 * np.log10(ratio))


def batch_nmse_ratios(X_hat: np.ndarray, X_star: np.ndarray) -> np.ndarray:
    """Per-row error ratios ||x_hat - x*||^2 / ||x*||^2, restricted to rows
    with x* != 0."""
    X_hat, X_star = _check_pair(X_hat, X_star)
    denom = np.einsum("ij,ij->i", X_star, X_star)
    keep = denom > 0
    if not np.any(keep):
        raise ValueError("NMSE is undefined: every reference signal is zero")
    diff = X_hat - X_star
    return np.einsum("ij,ij->i", diff, diff)[keep] / denom[keep]


def mean_nmse_db(X_hat: np.ndarray, X_star: np.ndarray) -> float:
    """10 log10 of the mean error ratio over nonzero reference rows."""
    return _ratio_db(float(batch_nmse_ratios(X_hat, X_star).mean()))


def empirical_risk(X_hat: np.ndarray, X_star: np.ndarray) -> tuple[float, np.ndarray]:
    """Batch mean of 1/2 ||x_hat_j - x*_j||^2 and its gradient with respect to
    ``X_hat``, ``(X_hat - X_star) / batch``, from one residual."""
    X_hat, X_star = _check_pair(X_hat, X_star)
    if X_hat.shape[0] == 0:
        raise ValueError("empty batch")
    diff = X_hat - X_star
    loss = float(0.5 * np.einsum("ij,ij->i", diff, diff).mean())
    diff /= X_hat.shape[0]
    return loss, diff


# ---------------------------------------------------------------------------
# Adam


class _NonFiniteGradient(ValueError):
    """A gradient :func:`adam_step` refuses; the trainer freezes the layer."""


@dataclass
class AdamState:
    """Per-parameter first/second moments, created lazily as zeros."""

    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    learning_rate: float,
    layer: int,
) -> None:
    """One bias-corrected Adam update of a stage's arrays in place.

    ``params`` and ``grads`` map field names to arrays, as
    :func:`~blockunfold.unfolding.stage_arrays` selects them for the
    0-based ``layer``, which a non-finite gradient's error names.
    """
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1**state.t
    bc2 = 1.0 - b2**state.t
    for name, value in params.items():
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise _NonFiniteGradient(f"non-finite gradient for {name} of layer {layer + 1}")
        if name not in state.m:
            state.m[name] = np.zeros_like(g)
            state.v[name] = np.zeros_like(g)
        state.m[name] = b1 * state.m[name] + (1.0 - b1) * g
        state.v[name] = b2 * state.v[name] + (1.0 - b2) * g * g
        m_hat = state.m[name] / bc1
        v_hat = state.v[name] / bc2
        value += -learning_rate * m_hat / (np.sqrt(v_hat) + state.eps)


def _clamp_alphas(params: NetworkParams) -> None:
    np.maximum(params.alphas, ALPHA_MIN, out=params.alphas)


# ---------------------------------------------------------------------------
# layer-wise training loop


# Variants whose stage parameters act only inside their own layer, so the
# frozen prefix can be cached instead of re-run every step.  The tied
# variants train shared matrices at every stage and need the full unroll.
_LOCAL_STAGE = {
    NetworkVariant.ALBISTA,
    NetworkVariant.UNTIED_LBISTA,
    NetworkVariant.UNTIED_LBISTA_CP,
}

# Block size of the frame an albista stage trains in.
_FRAME_D = 2


def _frame_view(params: NetworkParams) -> NetworkParams | None:
    """albista with blocks larger than the frame as a network of ``n + 1``
    blocks of size 2 and no measurements, whose dictionary and ``B`` are
    ``(0, n + 1)``, sharing ``params``' ``alphas`` and ``gammas`` arrays, so a
    stage trained through it updates ``params``; None for any other network
    and for albista at d <= 2."""
    if params.variant is not NetworkVariant.ALBISTA or params.d <= _FRAME_D:
        return None
    empty = np.zeros((0, params.n + 1))
    return NetworkParams(
        variant=params.variant,
        n=params.n + 1,
        d=_FRAME_D,
        depth=params.depth,
        dictionary=empty,
        alphas=params.alphas,
        gammas=params.gammas,
        B=[empty] * params.depth,
    )


def _block_frame(
    X: np.ndarray, S: np.ndarray, T: np.ndarray, n: int, d: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every block of the states ``X``, steps ``S`` and targets ``T`` (rows
    of ``n`` blocks of size ``d``) in an orthonormal frame of span{x, s}:
    x -> (|x|, 0), s -> (s1, s2) and x* -> (t1, t2), as three arrays of
    ``n + 1`` blocks of size 2 per row.

    A stage's output lies in span{x, s}, so its error off the plane is that
    of an estimate 0 against a target of length ``sqrt(c)``, with ``c =
    sum_i |x*_i - t1 e1 - t2 e2|^2`` the squared length of the row's target
    off the blocks' planes.  The extra block holds that: its state and step
    are 0, so the stage's output there is 0, and its target is
    ``(sqrt(c), 0)``; each row's squared error and target norm include ``c``.

    The coordinates come in closed form from per-block inner products, so
    every inner product among x, s and x* is kept to rounding and no basis
    vector is formed.  The two lengths off x, ``s2 = |s - s1 e1|`` and
    ``|x* - t1 e1|`` with ``e1 = x / |x|``, are taken from those vectors:
    from ``|s|^2 - s1^2`` they keep only half their digits where s or x*
    nearly lies along x.  ``t2`` is clipped to ``|x* - t1 e1|``, so a block's
    part of ``c``, ``|x* - t1 e1|^2 - t2^2``, is never negative.
    """
    rows = X.shape[0]
    Xb, Sb, Tb = (A.reshape(rows, n, d) for A in (X, S, T))

    def dot(A, B):
        return np.einsum("ijk,ijk->ij", A, B)

    # each coordinate is written into its slot; the other slots stay 0
    frame = np.zeros((3, rows, n + 1, _FRAME_D))
    x_norm, s1, s2, t1, t2 = (
        frame[i, :, :n, j] for i, j in ((0, 0), (1, 0), (1, 1), (2, 0), (2, 1))
    )
    np.sqrt(dot(Xb, Xb), out=x_norm)
    has_x = x_norm > 0
    np.divide(dot(Xb, Sb), x_norm, out=s1, where=has_x)
    np.divide(dot(Xb, Tb), x_norm, out=t1, where=has_x)
    off = np.empty_like(Xb)

    def length_off_x(Ab, a1):
        # |a - a1 e1|, through one buffer the size of the blocks
        along = np.divide(a1, x_norm, out=np.zeros_like(a1), where=has_x)
        np.multiply(Xb, along[..., None], out=off)
        np.subtract(Ab, off, out=off)
        return np.sqrt(dot(off, off))

    s2[...] = length_off_x(Sb, s1)
    t_off = length_off_x(Tb, t1)
    np.divide(dot(Sb, Tb) - s1 * t1, s2, out=t2, where=s2 > 0)
    np.clip(t2, -t_off, t_off, out=t2)
    np.sqrt((t_off * t_off - t2 * t2).sum(axis=1), out=frame[2, :, n, 0])
    return tuple(frame.reshape(3, rows, (n + 1) * _FRAME_D))


def layerwise_train(
    params0: NetworkParams, data: TrainData, cfg: TrainConfig
) -> tuple[NetworkParams, TrainHistory]:
    """Train layer by layer, freezing each stage at its best validation metric.

    Minibatches are drawn with replacement from the fixed training set.
    A layer that never improves within its step budget is frozen at its
    best observed state and training advances with a warning.  So is a
    layer whose network diverges in a step or in a validation check after
    one (:class:`~blockunfold.solvers.DivergenceError`), or whose gradient
    goes non-finite: the warning names the layer and the reason, and the
    next layer trains from the frozen one.  A stage whose starting point
    already diverges has no finite state to freeze, and raises.

    Every step, validation check and prefix update of stage k runs one
    forward pass from a cached state per sample: the frozen prefix's output
    x{k-1} where the stage acts only inside layer k, else x{0} = 0 and the
    whole unroll.  For albista, whose B is fixed, the gradient term
    ``s = B^T (D x{k-1} - y)`` is also cached, so every step is elementwise.

    An albista stage then depends on each block only through x{k-1}, s and
    the target x*.  Its output ``eta(x - gamma s)`` lies in span{x, s}, so
    its loss, gradients and validation metric depend on x* only through the
    target's part in that plane and the squared length of the rest.  So
    where d > 2 the stage's steps and checks run on the coordinates of each
    block in an orthonormal frame of span{x, s}, plus one block per row for
    the rest (:func:`_block_frame`), through a block-size-2 view of the
    network that shares its alphas and gammas (:func:`_frame_view`).  The
    same forward, :func:`empirical_risk`, backward and Adam code then
    handles 2 numbers per block instead of d.  The prefix update at the end
    of the stage runs at full d.
    """
    if data.X_train.shape[0] < 1 or data.X_val.shape[0] < 1:
        raise ValueError("training and validation sets must be nonempty")
    params = params0.copy()
    rng = np.random.default_rng(cfg.seed)
    history = TrainHistory()
    n_train = data.X_train.shape[0]
    global_step = 0
    local = params.variant in _LOCAL_STAGE
    framed = _frame_view(params)
    # train and validation measurements, targets and each row's cached state
    Ys = (data.Y_train, data.Y_val)
    Xs = (data.X_train, data.X_val)
    prefixes = [np.zeros((Y.shape[0], params.n_x)) for Y in Ys]

    for layer in range(1, params.depth + 1):
        kidx = layer - 1
        start = kidx if local else 0
        trained = stage_arrays(params, kidx)
        state = AdamState()
        # albista's gradient term per row; its one fixed B serves every layer
        steps = [None, None]
        if params.variant is NetworkVariant.ALBISTA:
            D, B = params.dictionary, params.B[0]
            steps = [kron_adjoint(kron_apply(X, D) - Y, B) for X, Y in zip(prefixes, Ys)]
        # per split, the measurements, states, gradient terms and targets
        # the stage's steps and checks run on, and the network they run
        # through; the frame has no measurements
        net, cache = params, list(zip(Ys, prefixes, steps, Xs))
        if framed is not None:
            net = framed
            cache = [
                (Y[:, :0], *_block_frame(X, S, T, params.n, params.d)) for Y, X, S, T in cache
            ]

        def run(net: NetworkParams, split, rows=slice(None)) -> ForwardPass:
            Y, X, S = split[:3]
            return forward(
                net,
                Y[rows],
                depth=layer,
                start=start,
                x_init=X[rows],
                step_init=None if S is None else S[rows],
            )

        def val_metric() -> float:
            return float(batch_nmse_ratios(run(net, cache[1]).iterates[-1], cache[1][3]).max())

        best_metric = val_metric()
        best_snapshot = {name: value.copy() for name, value in trained.items()}
        history.val_steps.append(global_step)
        history.val_nmse_db.append(_ratio_db(best_metric))
        init_metric = best_metric
        patience = 0
        steps_in_layer = 0
        T_train = cache[0][3]
        try:
            while steps_in_layer < cfg.max_iters_per_layer and patience < cfg.patience_iters:
                idx = rng.integers(0, n_train, size=cfg.batch_size)
                fp = run(net, cache[0], idx)
                loss, G = empirical_risk(fp.iterates[-1], T_train[idx])
                grads = backward(net, fp, G)
                adam_step(trained, stage_arrays(grads, kidx), state, cfg.learning_rate, kidx)
                _clamp_alphas(params)
                history.steps.append(global_step)
                history.layers.append(layer)
                history.train_losses.append(loss)
                global_step += 1
                steps_in_layer += 1
                if steps_in_layer % cfg.eval_every == 0:
                    metric = val_metric()
                    history.val_steps.append(global_step)
                    history.val_nmse_db.append(_ratio_db(metric))
                    if metric < best_metric - cfg.tol:
                        best_metric = metric
                        best_snapshot = {name: value.copy() for name, value in trained.items()}
                        patience = 0
                    else:
                        patience += 1
        except (DivergenceError, _NonFiniteGradient) as exc:
            warnings.warn(
                f"layer {layer} stopped at step {steps_in_layer + 1}: {exc}; "
                "freezing at its best observed state",
                stacklevel=2,
            )
        for name, value in best_snapshot.items():
            trained[name][...] = value
        if best_metric >= init_metric and steps_in_layer >= cfg.max_iters_per_layer:
            warnings.warn(
                f"layer {layer} did not improve within {cfg.max_iters_per_layer} steps; "
                "freezing at its best observed state",
                stacklevel=2,
            )
        # the frame goes before the prefix update and the full-size steps
        # after it; after the last layer no stage needs a prefix
        cache = T_train = None
        if local and layer < params.depth:
            prefixes = [run(params, split).iterates[-1] for split in zip(Ys, prefixes, steps)]
        del steps
        history.layer_boundaries.append(global_step)
        history.frozen_val_db.append(_ratio_db(best_metric))
    return params, history


def write_history_csv(path: str | Path, history: TrainHistory) -> None:
    """History CSV: one row per optimizer step, validation carried forward."""
    val_by_step = dict(zip(history.val_steps, history.val_nmse_db))
    with open(path, "w", encoding="utf-8") as f:
        f.write("# blockunfold-csv v1 history\n")
        f.write("step,layer,train_loss,val_nmse_db\n")
        last_val = float("nan")
        for step, layer, loss in zip(
            history.steps, history.layers, history.train_losses
        ):
            if step in val_by_step:
                last_val = val_by_step[step]
            f.write(f"{step},{layer},{loss:.17g},{last_val:.17g}\n")
