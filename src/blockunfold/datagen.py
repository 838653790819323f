"""Synthetic MMV problems and block-sparse signals.

Two measurement scenarios: a Gaussian channel matrix with normalized
columns, and a rank-deficient circulant built by zeroing spectrum bins of
a random kernel.  Signals activate each block independently with
probability ``pnz``; active entries are standard normal, and measurement
noise is calibrated so that

    Var(noise) = pnz * n_x / n_y * 10^(-SNR_dB / 10),

with an infinite SNR meaning exact measurements.

Generation is deterministic and counter-based: sample i of a dataset only
depends on (seed, i).  Each row's signal and noise are drawn from that
row's own generator; the measurements ``Y`` of a whole split then come from
one batched product through the ``m x n`` base the lifted dictionary holds,
not from one dense lifted matvec per sample.  So parallel generation and
partial reads give the same ``X`` bits as the sequential order, and the
same ``Y`` up to the rounding of one product: the BLAS kernel that computes
a row may depend on how many rows the batch has.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .blockcore import (
    BlockDictionary,
    _read_manifest,
    _write_manifest,
    kron_apply,
    kron_lift,
    load_matrix,
    save_matrix,
)
from .weights import circulant

__all__ = [
    "Scenario",
    "ScenarioConfig",
    "ProblemData",
    "CirculantKernel",
    "gen_gaussian_K",
    "gen_circulant_K",
    "noise_sigma",
    "build_problem",
    "gen_signal_batch",
    "sample_signal_class",
    "save_dataset",
    "load_dataset",
    "load_split",
]

# rng stream tags so matrix and signal draws never collide
_STREAM_MATRIX = 0
_STREAM_SIGNAL = 1

_REJECTION_CAP = 10_000


class Scenario(Enum):
    GAUSSIAN = "gaussian"
    CIRCULANT = "circulant"


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: Scenario
    m: int
    n: int
    d: int
    pnz: float
    snr_db: float = np.inf
    rank: int | None = None
    seed: int = 0

    def __post_init__(self):
        for name in ("m", "n", "d"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0.0 <= self.pnz <= 1.0:
            raise ValueError(f"pnz must lie in [0, 1], got {self.pnz}")
        if self.scenario is Scenario.CIRCULANT:
            if self.m != self.n:
                raise ValueError("circulant scenario needs m == n")
            if self.rank is None or not 1 <= self.rank <= self.n:
                raise ValueError(f"circulant scenario needs 1 <= rank <= n, got {self.rank}")

    @property
    def n_y(self) -> int:
        return self.m * self.d

    @property
    def n_x(self) -> int:
        return self.n * self.d


def gen_gaussian_K(m: int, n: int, seed: int) -> np.ndarray:
    """iid standard normal m x n matrix with columns scaled to unit norm,
    so the lifted dictionary has orthonormal blocks."""
    rng = np.random.default_rng([seed, _STREAM_MATRIX])
    K = rng.standard_normal((m, n))
    return K / np.linalg.norm(K, axis=0)


class CirculantKernel(NamedTuple):
    k: np.ndarray
    K: np.ndarray
    rank: int


def gen_circulant_K(n: int, rank: int, seed: int) -> CirculantKernel:
    """Circulant matrix of prescribed rank from a random Hermitian spectrum.

    The spectrum is drawn iid complex normal with conjugate symmetry
    enforced (so the kernel is real), then n - rank bins are zeroed in
    symmetric pairs chosen uniformly; the self-paired Nyquist and DC bins
    fill odd remainders, DC last.  Some (n, rank) parities are unreachable
    exactly; the nearest achievable rank is generated and reported.
    Columns are normalized afterward, which rescales by the single global
    constant ||k|| and therefore preserves the circulant structure.
    """
    if not 1 <= rank <= n:
        raise ValueError(f"need 1 <= rank <= n, got rank={rank}, n={n}")
    rng = np.random.default_rng([seed, _STREAM_MATRIX])
    spectrum = np.zeros(n, dtype=complex)
    spectrum[0] = rng.standard_normal()
    half = n // 2
    if n % 2 == 0:
        spectrum[half] = rng.standard_normal()
    pair_top = half if n % 2 == 1 else half - 1
    for i in range(1, pair_top + 1):
        z = rng.standard_normal() + 1j * rng.standard_normal()
        spectrum[i] = z
        spectrum[n - i] = np.conj(z)

    target_zeros = n - rank
    pairs = rng.permutation(np.arange(1, pair_top + 1))
    zeroed = 0
    for i in pairs:
        if zeroed + 2 > target_zeros:
            break
        spectrum[i] = 0.0
        spectrum[n - i] = 0.0
        zeroed += 2
    if zeroed < target_zeros and n % 2 == 0 and spectrum[half] != 0.0:
        spectrum[half] = 0.0
        zeroed += 1
    if zeroed < target_zeros and spectrum[0] != 0.0:
        spectrum[0] = 0.0
        zeroed += 1

    k = np.fft.ifft(spectrum).real
    norm = np.linalg.norm(k)
    if norm == 0.0:
        raise ValueError("degenerate spectrum: kernel is zero")
    k = k / norm
    return CirculantKernel(k=k, K=circulant(k), rank=n - zeroed)


def noise_sigma(cfg: ScenarioConfig) -> float:
    """Noise standard deviation for the configured SNR; 0 at infinite SNR."""
    if np.isinf(cfg.snr_db):
        return 0.0
    return float(np.sqrt(cfg.pnz * cfg.n_x / cfg.n_y * 10.0 ** (-cfg.snr_db / 10.0)))


@dataclass(frozen=True)
class ProblemData:
    """Measurement operator of a scenario: the lift ``D = K (x) I_d``, held
    as its channel matrix ``K``."""

    cfg: ScenarioConfig
    D: BlockDictionary
    kernel: np.ndarray | None = None
    rank: int | None = None

    @property
    def K(self) -> np.ndarray:  # the channel matrix, which D holds
        return self.D.held


def build_problem(cfg: ScenarioConfig) -> ProblemData:
    if cfg.scenario is Scenario.GAUSSIAN:
        K = gen_gaussian_K(cfg.m, cfg.n, cfg.seed)
        kernel, rank = None, None
    else:
        kernel, K, rank = gen_circulant_K(cfg.n, cfg.rank, cfg.seed)
    return ProblemData(cfg=cfg, D=kron_lift(K, cfg.d), kernel=kernel, rank=rank)


def _draw_signal(rng, cfg: ScenarioConfig) -> np.ndarray:
    active = rng.random(cfg.n) < cfg.pnz
    values = rng.standard_normal((cfg.n, cfg.d))
    values[~active] = 0.0
    return values.reshape(-1)


def _measure(
    cfg: ScenarioConfig, D: BlockDictionary, count: int, draw
) -> tuple[np.ndarray, np.ndarray]:
    """Arrays (X, Y) of ``count`` rows: ``draw(row)`` returns row ``row``'s
    signal and the generator it was drawn from, which then draws that row's
    noise.  ``Y`` is one product of all rows through ``D``'s base."""
    sigma = noise_sigma(cfg)
    X = np.empty((count, cfg.n_x))
    E = np.empty((count, cfg.n_y)) if sigma > 0.0 else None
    for row in range(count):
        X[row], rng = draw(row)
        if E is not None:
            E[row] = rng.standard_normal(cfg.n_y)
    Y = kron_apply(X, D.held)
    if E is not None:
        Y += sigma * E
    return X, Y


def gen_signal_batch(
    cfg: ScenarioConfig, D: BlockDictionary, count: int, start_index: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Arrays (X, Y) of ``count`` samples, rows indexed from ``start_index``.

    Sample i is a pure function of (cfg.seed, i); splits are carved out of
    one index space via ``start_index``.
    """

    def draw(row):
        rng = np.random.default_rng([cfg.seed, _STREAM_SIGNAL, start_index + row])
        return _draw_signal(rng, cfg), rng

    return _measure(cfg, D, count, draw)


def sample_signal_class(
    cfg: ScenarioConfig,
    D: BlockDictionary,
    s: int,
    count: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Rejection-sampled batch with at most ``s`` active blocks per signal.

    Used by the recovery-guarantee diagnostics, which need signals inside
    a bounded sparsity class; resampling caps at ``_REJECTION_CAP``
    attempts per sample.
    """

    def draw(row):
        for attempt in range(_REJECTION_CAP):
            rng = np.random.default_rng([cfg.seed, _STREAM_SIGNAL, row, attempt])
            x = _draw_signal(rng, cfg)
            if np.count_nonzero(np.linalg.norm(x.reshape(cfg.n, cfg.d), axis=1)) <= s:
                return x, rng
        raise RuntimeError(
            f"rejection sampling failed after {_REJECTION_CAP} attempts "
            f"(sample {row}, s={s})"
        )

    return _measure(cfg, D, count, draw)


# ---------------------------------------------------------------------------
# dataset files: a text manifest and one ``.npy`` matrix file (see
# :func:`~.blockcore.save_matrix`) per array


_SPLITS = ("train", "val", "test")


def _matrix_file(data: Path, name: str) -> Path:
    """The path of matrix ``name`` in dataset directory ``data``.  A text
    matrix file from an older version in its place raises ValueError: the
    dataset must be written again."""
    path, old = data / f"{name}.npy", data / f"{name}.txt"
    if not path.exists() and old.exists():
        raise ValueError(
            f"{old}: dataset in the old text format; rerun `blockunfold gen` to write it as .npy"
        )
    return path


def save_dataset(
    out_dir: str | Path,
    cfg: ScenarioConfig,
    problem: ProblemData,
    splits: dict[str, tuple[np.ndarray, np.ndarray]],
) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_matrix(out / "K.npy", problem.K)
    if problem.kernel is not None:
        save_matrix(out / "kernel.npy", problem.kernel)
    for split, (X, Y) in splits.items():
        save_matrix(out / f"X_{split}.npy", X)
        save_matrix(out / f"Y_{split}.npy", Y)
    values = dict(
        scenario=cfg.scenario.value,
        m=cfg.m,
        n=cfg.n,
        d=cfg.d,
        pnz=f"{cfg.pnz:.17g}",
        snr_db=f"{cfg.snr_db:.17g}",
        seed=cfg.seed,
        rank="none" if problem.rank is None else problem.rank,
    )
    for split in _SPLITS:
        values[f"n_{split}"] = splits[split][0].shape[0] if split in splits else 0
    _write_manifest(out / "manifest.txt", "dataset", values)


def load_dataset(data_dir: str | Path) -> tuple[ScenarioConfig, ProblemData]:
    """The scenario and problem of a dataset written by :func:`save_dataset`.

    Reads the manifest, ``K.npy`` and ``kernel.npy``; the splits are read
    one at a time by :func:`load_split`.  A missing or malformed manifest
    key, split row counts included, raises ValueError naming the file, and
    so does a dataset written in the old text format.
    """
    data = Path(data_dir)
    field = _read_manifest(data / "manifest.txt", "dataset")
    for split in _SPLITS:
        field(f"n_{split}", int)
    rank = field("rank", lambda v: None if v == "none" else int(v))
    values = dict(
        scenario=field("scenario", Scenario),
        m=field("m", int),
        n=field("n", int),
        d=field("d", int),
        pnz=field("pnz", float),
        snr_db=field("snr_db", float),
        rank=rank,
        seed=field("seed", int),
    )
    try:
        cfg = ScenarioConfig(**values)
    except ValueError as exc:
        raise ValueError(f"{data / 'manifest.txt'}: {exc}") from exc
    D = kron_lift(load_matrix(_matrix_file(data, "K")), cfg.d)
    kernel_path = _matrix_file(data, "kernel")
    kernel = load_matrix(kernel_path).ravel() if kernel_path.exists() else None
    return cfg, ProblemData(cfg=cfg, D=D, kernel=kernel, rank=rank)


def load_split(data_dir: str | Path, split: str) -> tuple[np.ndarray, np.ndarray]:
    """Arrays (X, Y) of one split of a dataset written by :func:`save_dataset`.

    Files that do not hold the manifest's row count raise ValueError naming
    the file; a split of 0 rows has no files and raises FileNotFoundError.
    """
    data = Path(data_dir)
    count = _read_manifest(data / "manifest.txt", "dataset")(f"n_{split}", int)
    if count == 0:
        raise FileNotFoundError(f"{data}: the dataset has no {split} split (n_{split} = 0)")
    paths = (_matrix_file(data, f"X_{split}"), _matrix_file(data, f"Y_{split}"))
    pair = tuple(load_matrix(path) for path in paths)
    for path, M in zip(paths, pair):
        if M.shape[0] != count:
            raise ValueError(
                f"{path}: {M.shape[0]} rows, but {data / 'manifest.txt'} "
                f"gives n_{split} = {count}"
            )
    return pair
