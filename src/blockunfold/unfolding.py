"""Unfolded block-ISTA networks: layered forward maps and their gradients.

Each network interprets K iterations of a thresholded gradient scheme as a
K-layer network with per-layer trainable parameters, always started at
x{0} = 0.  Five variants are provided; ``S``/``B`` denote the gain matrices
and alpha/gamma the per-layer threshold and step size:

    tied        x{k} = eta_{a{k-1}}( S x{k-1} + B^T y ),     shared S, B
    tied_cp     x{k} = eta_{a{k-1}}( x{k-1} - g{k-1} B^T (D x{k-1} - y) ),
                shared B, per-layer step sizes
    untied      as tied but with per-layer S{k}, B{k}
    untied_cp   as tied_cp but with per-layer B{k}; step sizes fixed
    albista     as tied_cp with B fixed to a precomputed analytical weight
                matrix; only the 2K scalars (a{k}, g{k}) are trained

Gradients are hand-derived reverse-mode passes through the layer recursion,
using the threshold Jacobian-vector products from :mod:`.operators`; at
block-norm kinks the zero-side subgradient is used.  Forward and backward
take row batches only, measurements ``(batch, n_y)`` and signals
``(batch, n_x)`` with one sample per row (``y[None]`` for one sample); a
1-d array is rejected.  They are embarrassingly parallel over samples, and
parameters are read-only during a pass.

A network holds each fixed matrix (the dictionary, and albista's ``B``)
as it is given, which for a lift ``W (x) I_d`` is its ``m x n`` base ``W``
(:func:`init_from_bista` and the checkpoint give it so), and each trained
matrix dense; an array's width says which form it is in.  The products
take either form (:func:`~.blockcore.kron_apply`), so no pass searches for
a Kronecker factor.  A checkpoint is a text manifest and one ``.npy`` file
per array (:func:`save_checkpoint`).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .blockcore import (
    BlockDictionary,
    _as_batch,
    _kron_eye,
    _read_manifest,
    _write_manifest,
    kron_adjoint,
    kron_apply,
    load_matrix,
    save_matrix,
)
from .operators import _block_norms, eta, eta_dalpha, eta_jvp
from .solvers import DivergenceError, default_step_size

__all__ = [
    "NetworkVariant",
    "NetworkParams",
    "ForwardPass",
    "Gradients",
    "forward",
    "backward",
    "init_from_bista",
    "stage_arrays",
    "circ_conv",
    "adjoint_kernel",
    "ConvLayerStep",
    "conv_layer_form",
    "conv_step_fft",
    "save_checkpoint",
    "load_checkpoint",
]


class NetworkVariant(Enum):
    TIED_LBISTA = "tied"
    TIED_LBISTA_CP = "tied_cp"
    UNTIED_LBISTA = "untied"
    UNTIED_LBISTA_CP = "untied_cp"
    ALBISTA = "albista"


_CP_FORM = {
    NetworkVariant.TIED_LBISTA_CP,
    NetworkVariant.UNTIED_LBISTA_CP,
    NetworkVariant.ALBISTA,
}
_UNTIED = {NetworkVariant.UNTIED_LBISTA, NetworkVariant.UNTIED_LBISTA_CP}
# untied_cp keeps its step sizes fixed
_TRAINED_GAMMAS = {NetworkVariant.TIED_LBISTA_CP, NetworkVariant.ALBISTA}


@dataclass
class NetworkParams:
    """Trainable state of one unfolded network plus its fixed dictionary.

    ``alphas`` and ``gammas`` hold one threshold and one step size per
    layer.  ``gammas`` exists for the gradient-step variants; it is
    trainable for tied_cp and albista and frozen at its initial value for
    untied_cp, whose per-layer matrices absorb any rescaling.  ``S`` (tied
    and untied only) and ``B`` are per-layer lists of matrices: the untied
    variants hold K distinct arrays, the tied ones (albista included, whose
    ``B`` is the fixed analytical matrix) one shared array K times, so an
    in-place update through any layer reaches every layer.  Each matrix is
    held in the form :func:`_hold` gives it.
    """

    variant: NetworkVariant
    n: int
    d: int
    depth: int
    dictionary: np.ndarray
    alphas: np.ndarray
    gammas: np.ndarray | None = None
    S: list[np.ndarray] | None = None
    B: list[np.ndarray] | None = None

    @property
    def n_x(self) -> int:
        return self.n * self.d

    @property
    def n_y(self) -> int:
        rows, cols = self.dictionary.shape
        return rows * (self.n_x // cols)

    def __post_init__(self):
        if self.n < 1 or self.d < 1:
            raise ValueError(f"block count n and size d must be >= 1, got n={self.n}, d={self.d}")
        self.dictionary = _hold(self.dictionary, self.n, self.d, fixed=True)
        self.alphas = np.asarray(self.alphas, dtype=np.float64)
        K = self.depth
        v = self.variant
        if K < 1:
            raise ValueError(f"depth must be >= 1, got {K}")
        if self.dictionary.shape[1] not in (self.n, self.n_x):
            raise ValueError("dictionary width matches neither n nor n*d")
        if self.alphas.shape != (K,):
            raise ValueError(f"alphas must have shape ({K},)")
        if v in _CP_FORM:
            if self.gammas is None:
                raise ValueError(f"{v.value} needs per-layer step sizes")
            self.gammas = np.asarray(self.gammas, dtype=np.float64)
            if self.gammas.shape != (K,):
                raise ValueError(f"gammas must have shape ({K},)")
            if self.S is not None:
                raise ValueError(f"{v.value} has no S matrices")
        else:
            self.S = self._layers("S", self.S)
        self.B = self._layers("B", self.B)

    def _layers(self, name: str, layers) -> list[np.ndarray]:
        if layers is None or len(layers) != self.depth:
            raise ValueError(f"{self.variant.value} needs {self.depth} per-layer {name} matrices")
        if self.variant not in _UNTIED and any(M is not layers[0] for M in layers):
            raise ValueError(f"{self.variant.value} shares one {name} matrix across its layers")
        fixed = name == "B" and self.variant is NetworkVariant.ALBISTA
        return _map_layers(lambda M: _hold(M, self.n, self.d, fixed), list(layers))

    def copy(self) -> "NetworkParams":
        return NetworkParams(
            variant=self.variant,
            n=self.n,
            d=self.d,
            depth=self.depth,
            dictionary=self.dictionary,
            alphas=self.alphas.copy(),
            gammas=None if self.gammas is None else self.gammas.copy(),
            S=_map_layers(np.ndarray.copy, self.S),
            B=_map_layers(np.ndarray.copy, self.B),
        )


def _hold(M, n: int, d: int, fixed: bool) -> np.ndarray:
    """``M`` in the form a network holds it.  An array with ``n`` columns is
    a base and one with ``n*d`` columns is dense (at d = 1 the two are the
    same).  A fixed matrix is held as given; a base given for a trained
    matrix becomes its lift."""
    M = np.asarray(M, dtype=np.float64)
    if fixed or d == 1 or M.shape[1] != n:
        return M
    return _kron_eye(M, d)


def _map_layers(fn, layers: list[np.ndarray] | None) -> list[np.ndarray] | None:
    """Apply ``fn`` once per distinct matrix, so a shared matrix stays shared."""
    if layers is None:
        return None
    mapped = {key: fn(M) for key, M in {id(M): M for M in layers}.items()}
    return [mapped[id(M)] for M in layers]


def stage_arrays(p: "NetworkParams | Gradients", layer: int) -> dict[str, np.ndarray]:
    """What the training stage of ``layer`` (0-based) updates, by field name.

    Per-layer scalars come as one-element views of ``alphas``/``gammas``
    and matrices as that layer's array, which is the shared one for the
    tied variants; everything aliases ``p``, so in-place changes land in
    ``p``.  Called on :class:`Gradients` it selects the matching gradients.
    albista keeps its weight matrix fixed.
    """
    v = p.variant
    arrays = {"alphas": p.alphas[layer : layer + 1]}
    if v in _TRAINED_GAMMAS:
        arrays["gammas"] = p.gammas[layer : layer + 1]
    if v not in _CP_FORM:
        arrays["S"] = p.S[layer]
    if v is not NetworkVariant.ALBISTA:
        arrays["B"] = p.B[layer]
    return arrays


# ---------------------------------------------------------------------------
# forward / backward


@dataclass
class ForwardPass:
    """Cached forward run: all iterates and pre-threshold points.

    ``start`` is the index of the first executed layer; ``iterates[0]`` is
    the state the run began from (x{0} = 0 for a full pass).  ``residuals``
    holds ``D x - y`` per executed gradient-step layer; when the run was
    given ``step_init``, that array stands in for the first layer's
    ``B^T (D x - y)`` and its residual slot is None.  ``norms`` holds
    the block norms of each pre-threshold point, as ``(batch, n)``, or
    None for a layer with threshold 0.
    """

    Y: np.ndarray
    iterates: list[np.ndarray]
    prethresh: list[np.ndarray]
    start: int = 0
    residuals: list[np.ndarray | None] | None = None
    step_init: np.ndarray | None = None
    norms: list[np.ndarray | None] | None = None

    @property
    def depth(self) -> int:
        return len(self.prethresh)


def forward(
    params: NetworkParams,
    Y: np.ndarray,
    depth: int | None = None,
    start: int = 0,
    x_init: np.ndarray | None = None,
    step_init: np.ndarray | None = None,
) -> ForwardPass:
    """Run layers ``start .. depth-1``, keeping every intermediate.

    A full pass starts at x{0} = 0; the layer-wise trainer resumes from a
    cached state ``x_init`` instead of re-running the frozen prefix.  For
    albista, whose weight matrix B is fixed, ``step_init`` may also carry
    the cached gradient term ``B^T (D x_init - y)`` of the first executed
    layer, one row per sample; that layer then needs no matrix product.
    ``Y`` is a ``(batch, n_y)`` batch with one row per sample.  A run of
    that one layer alone reads only ``Y``'s row count, so its width is not
    checked there: the trainer runs such layers on a network of smaller
    block size.  All iterates are retained for diagnostics and for the
    backward pass.
    """
    K = params.depth if depth is None else depth
    if not 0 <= K <= params.depth:
        raise ValueError(f"depth must be in [0, {params.depth}], got {K}")
    if not 0 <= start <= K:
        raise ValueError(f"start must be in [0, {K}], got {start}")
    Y = np.asarray(Y, dtype=np.float64)
    reads_Y = step_init is None or K - start > 1
    if Y.ndim != 2 or (reads_Y and Y.shape[1] != params.n_y):
        raise ValueError(f"Y has shape {Y.shape}, expected (batch, {params.n_y})")
    D = params.dictionary
    n, d = params.n, params.d
    if x_init is None:
        if start != 0:
            raise ValueError("resuming at start > 0 needs the cached state x_init")
        X = np.zeros((Y.shape[0], params.n_x))
    else:
        X = _as_batch(x_init, params.n_x, "x_init")
        if X.shape[0] != Y.shape[0]:
            raise ValueError("x_init batch size does not match Y")
    if step_init is not None:
        if params.variant is not NetworkVariant.ALBISTA:
            raise ValueError(
                f"step_init needs the fixed weights of albista, not {params.variant.value}"
            )
        step_init = np.asarray(step_init, dtype=np.float64)
        if step_init.shape != (Y.shape[0], params.n_x):
            raise ValueError(
                f"step_init must have shape ({Y.shape[0]}, {params.n_x}), "
                f"got {step_init.shape}"
            )
    iterates = [X]
    prethresh = []
    norms = []
    cp_form = params.variant in _CP_FORM
    residuals = [] if cp_form else None
    for k in range(start, K):
        Bk = params.B[k]
        # an overflow is reported by the DivergenceError below, not a warning
        with np.errstate(over="ignore", invalid="ignore"):
            if cp_form:
                g = params.gammas[k]
                if k == start and step_init is not None:
                    R = None
                    Z = X - g * step_init
                else:
                    # in place, the bits of X - g * B^T (D X - Y)
                    R = kron_apply(X, D)
                    R -= Y
                    Z = kron_adjoint(R, Bk)
                    Z *= -g
                    Z += X
                residuals.append(R)
            else:
                Z = kron_apply(X, params.S[k]) + kron_adjoint(Y, Bk)
        if not np.all(np.isfinite(Z)):
            raise DivergenceError("non-finite activation", k + 1, unit="layer")
        a = params.alphas[k]
        # one block-norm pass per layer, shared by eta and the backward kernels
        r = None if a == 0.0 else _block_norms(Z.reshape(Z.shape[0], n, d))
        X = eta(Z, a, n, d, norms=r)
        prethresh.append(Z)
        norms.append(r)
        iterates.append(X)
    return ForwardPass(
        Y=Y,
        iterates=iterates,
        prethresh=prethresh,
        start=start,
        residuals=residuals,
        step_init=step_init,
        norms=norms,
    )


@dataclass
class Gradients:
    """Gradients in the layout of :class:`NetworkParams`.

    A field the variant does not train is None, and so is the matrix of a
    layer the pass did not execute.  The tied variants hold one shared
    matrix accumulator K times, which sums every layer's contribution;
    :func:`stage_arrays` selects a stage's gradients as it selects its
    parameters.
    """

    variant: NetworkVariant
    alphas: np.ndarray
    gammas: np.ndarray | None = None
    S: list[np.ndarray] | None = None
    B: list[np.ndarray] | None = None


def _dot(A: np.ndarray, B: np.ndarray) -> float:
    """Sum of ``A * B`` over both axes, the same bits at any BLAS thread
    count: ``np.vdot`` splits its sum across OpenBLAS threads."""
    return float(np.einsum("ij,ij->", A, B))


def backward(params: NetworkParams, fp: ForwardPass, X_star: np.ndarray) -> Gradients:
    """Gradients of the batch-mean squared loss 1/S sum_j 1/2 ||x{K}_j - x*_j||^2
    with respect to the variant's parameters.

    Gradients cover the layers the pass executed; the others get zero
    scalars and, untied, no matrices.  For a resumed pass (``fp.start > 0``)
    this is exact for variants whose stage parameters do not reach into the
    frozen prefix.
    """
    v = params.variant
    n, d = params.n, params.d
    D = params.dictionary
    X_star = _as_batch(X_star, params.n_x, "X_star")
    batch = fp.iterates[0].shape[0]
    if X_star.shape[0] != batch:
        raise ValueError("X_star batch size does not match the forward pass")

    executed = range(fp.start, fp.start + fp.depth)

    def accumulators(layers: list[np.ndarray]) -> list[np.ndarray | None]:
        # one zero matrix per distinct matrix of the executed layers
        zeros = {id(layers[k]): np.zeros_like(layers[k]) for k in executed}
        return [zeros.get(id(M)) for M in layers]

    grads = Gradients(variant=v, alphas=np.zeros(params.depth))
    if v in _TRAINED_GAMMAS:
        grads.gammas = np.zeros(params.depth)
    if v not in _CP_FORM:
        grads.S = accumulators(params.S)
    if v is not NetworkVariant.ALBISTA:
        grads.B = accumulators(params.B)

    G = (fp.iterates[-1] - X_star) / batch
    for j in reversed(range(fp.depth)):
        k = fp.start + j
        Z = fp.prethresh[j]
        a = params.alphas[k]
        r = None if fp.norms is None else fp.norms[j]
        grads.alphas[k] = _dot(eta_dalpha(Z, a, n, d, norms=r), G)
        dZ = eta_jvp(Z, a, G, n, d, norms=r)
        X_prev = fp.iterates[j]
        Bk = params.B[k]
        if v in _CP_FORM:
            g = params.gammas[k]
            R = fp.residuals[j]
            if grads.gammas is not None:
                step = fp.step_init if R is None else kron_adjoint(R, Bk)
                grads.gammas[k] = -_dot(dZ, step)
            if grads.B is not None:
                grads.B[k] += -g * (R.T @ dZ)
            if j > 0:
                G = dZ - g * kron_adjoint(kron_apply(dZ, Bk), D)
        else:
            grads.S[k] += dZ.T @ X_prev
            grads.B[k] += fp.Y.T @ dZ
            if j > 0:
                G = kron_adjoint(dZ, params.S[k])
    return grads


def init_from_bista(
    variant: NetworkVariant,
    D: BlockDictionary,
    depth: int,
    B_analytic: np.ndarray | None = None,
    alpha: float = 1.0,
) -> NetworkParams:
    """Initialize a network at the classical iteration it unfolds.

    The step size is 1/(1.01 ||D||_2^2) and every layer's threshold is
    alpha times that step (the threshold the classical iteration actually
    applies).  The gain matrices start from ``B_analytic`` when given, as
    D's shape or as the ``m x n`` base of a lift of it, and from D itself
    otherwise: the gradient-step variants take that base as B, the others
    B = step * base and S = I - B^T D.  The untied variants get ``depth``
    copies of each matrix, the tied ones one shared copy.  At this
    initialization the tied variants reproduce the classical trajectory
    exactly when ``B_analytic`` is None.
    """
    if not isinstance(variant, NetworkVariant):
        raise ValueError(f"unknown variant {variant}")
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    gamma0 = default_step_size(D)
    base = D.data if B_analytic is None else np.asarray(B_analytic, dtype=np.float64)
    if D.data.shape not in (base.shape, (base.shape[0] * D.d, base.shape[-1] * D.d)):
        raise ValueError(
            f"B_analytic has shape {base.shape}, expected {D.data.shape} "
            f"or the base of a lift of it"
        )
    if variant is NetworkVariant.ALBISTA and B_analytic is None:
        raise ValueError("albista needs a precomputed analytical weight matrix")
    gammas, S, B = np.full(depth, gamma0), None, base
    if variant not in _CP_FORM:
        gammas, B = None, gamma0 * _hold(base, D.n, D.d, fixed=False)
        S = np.eye(D.n_x) - B.T @ D.data

    def layers(M: np.ndarray) -> list[np.ndarray]:
        if variant in _UNTIED:
            return [M.copy() for _ in range(depth)]
        return [M.copy()] * depth

    return NetworkParams(
        variant=variant, n=D.n, d=D.d, depth=depth, dictionary=D.held.copy(),
        alphas=np.full(depth, alpha * gamma0), gammas=gammas,
        S=None if S is None else layers(S), B=layers(B),
    )


# ---------------------------------------------------------------------------
# convolutional kernel form of the gradient step
#
# In the circulant setting the step x - gamma * b (*) (k (*) x - y) is a
# convolutional layer: filter f = e - gamma * (b (*) k) applied to x plus
# the bias kernel b applied to y.  Here b is the filter acting on the
# residual; to realize the step x - gamma B^T (D x - y) with B = circ(b_w),
# pass b = adjoint_kernel(b_w) since circ(b_w)^T = circ(adjoint_kernel(b_w)).


def circ_conv(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Circular convolution by direct (time-domain) summation."""
    a = np.asarray(a, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if a.shape != x.shape or a.ndim != 1:
        raise ValueError(f"kernels must be equal-length vectors, got {a.shape} vs {x.shape}")
    n = a.size
    full = np.convolve(a, x)
    out = full[:n].copy()
    out[: n - 1] += full[n:]
    return out


def adjoint_kernel(b: np.ndarray) -> np.ndarray:
    """Cyclic reversal: circ(adjoint_kernel(b)) = circ(b)^T."""
    b = np.asarray(b, dtype=np.float64)
    return np.roll(b[::-1], 1)


@dataclass(frozen=True)
class ConvLayerStep:
    """One gradient step in kernel form: x -> f (*) x + gamma * (b (*) y).

    The bias kernel b (*) y is deferred to application time so the same
    step can serve many measurements.
    """

    f: np.ndarray
    b: np.ndarray
    gamma: float

    def apply(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return circ_conv(self.f, x) + self.gamma * circ_conv(self.b, y)


def conv_layer_form(b: np.ndarray, k: np.ndarray, gamma: float) -> ConvLayerStep:
    """Filter f = e - gamma * (b (*) k) of the circulant gradient step."""
    b = np.asarray(b, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    if b.shape != k.shape or b.ndim != 1:
        raise ValueError(f"kernel length mismatch: {b.shape} vs {k.shape}")
    e = np.zeros_like(b)
    e[0] = 1.0
    return ConvLayerStep(f=e - gamma * circ_conv(b, k), b=b, gamma=gamma)


def conv_step_fft(
    b: np.ndarray, k: np.ndarray, gamma: float, x: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """Same gradient step evaluated entirely in the Fourier domain."""
    b = np.asarray(b, dtype=np.float64)
    if not (b.shape == k.shape == x.shape == y.shape):
        raise ValueError("all kernels and signals must share one length")
    bh = np.fft.fft(b)
    kh = np.fft.fft(k)
    xh = np.fft.fft(x)
    yh = np.fft.fft(y)
    eh = np.ones_like(bh)
    return np.fft.ifft((eh - gamma * bh * kh) * xh + gamma * bh * yh).real


# ---------------------------------------------------------------------------
# checkpoint files: a manifest (variant, depth, n, d) and, beside it, one
# ``.npy`` file per array, named ``<stem>.<name>.npy``: alphas, gammas (the
# gradient-step variants), D, then a tied variant's S and B once or an
# untied one's S.k and B.k per layer.  Each matrix is stored in the form the
# network holds it, and its width gives that form back.


def _array_file(path: str | Path, name: str) -> Path:
    """The file of array ``name`` of the checkpoint whose manifest is ``path``."""
    return Path(path).with_name(f"{Path(path).stem}.{name}.npy")


def save_checkpoint(path: str | Path, params: NetworkParams) -> None:
    arrays = {"alphas": params.alphas, "gammas": params.gammas, "D": params.dictionary}
    for tag, layers in (("S", params.S), ("B", params.B)):
        if params.variant in _UNTIED:
            arrays.update((f"{tag}.{k}", M) for k, M in enumerate(layers or []))
        elif layers is not None:
            arrays[tag] = layers[0]
    for name, A in arrays.items():
        if A is not None:
            save_matrix(_array_file(path, name), A)
    values = {"variant": params.variant.value, "depth": params.depth, "n": params.n, "d": params.d}
    _write_manifest(path, "checkpoint", values)


def load_checkpoint(path: str | Path) -> NetworkParams:
    """Read a checkpoint written by :func:`save_checkpoint`.

    A fault of the manifest or the network it describes raises ValueError
    naming the manifest, and a fault of an array file
    (:func:`~.blockcore.load_matrix`) one naming that file; a missing array
    file raises FileNotFoundError.  A checkpoint in the text format of
    earlier versions raises ValueError: ``blockunfold train`` writes it
    again.
    """
    with open(path, "rb") as f:
        if f.readline().startswith(b"blockunfold-checkpoint v"):
            raise ValueError(
                f"{path}: checkpoint in the old text format; "
                f"rerun `blockunfold train` to write it again"
            )
    field = _read_manifest(path, "checkpoint")
    variant = field("variant", NetworkVariant)
    depth = field("depth", int)

    def array(name: str) -> np.ndarray:
        return load_matrix(_array_file(path, name))

    def per_layer(tag: str) -> list[np.ndarray]:
        if variant in _UNTIED:
            return [array(f"{tag}.{k}") for k in range(depth)]
        return [array(tag)] * depth

    kwargs = dict(
        variant=variant,
        n=field("n", int),
        d=field("d", int),
        depth=depth,
        dictionary=array("D"),
        alphas=array("alphas").ravel(),
        gammas=array("gammas").ravel() if variant in _CP_FORM else None,
        S=None if variant in _CP_FORM else per_layer("S"),
        B=per_layer("B"),
    )
    try:
        return NetworkParams(**kwargs)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
