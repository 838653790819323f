"""Command-line driver for reproducible block-sparse recovery experiments.

Subcommands::

    gen      generate a dataset (splits + manifest) for the configured scenario
    weights  compute the analytical weight matrix and its quality report
    train    layer-wise training of the configured network variant
    eval     per-layer NMSE curves of baselines and the trained network
    verify   recovery-guarantee diagnostics (support containment, error bound)
    all      the whole pipeline in order

Configuration is a flat UTF-8 key=value file with [section] headers (see
README).  Command-line flags override the file.  Every command writes into
--out and is reproducible: re-running with the same config and seed
produces byte-identical CSV outputs.  ``--threads N`` sets the thread
count of numpy's bundled OpenBLAS for the command and restores it after;
without the flag BLAS keeps its default.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import ctypes
import logging
import os
import sys
import time
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import ALLOCATOR_POLICY
from .blockcore import (
    BlockDictionary,
    _read_text,
    cross_block_coherence,
    kron_lift,
    load_matrix,
    save_matrix,
)
from .datagen import (
    ProblemData,
    Scenario,
    ScenarioConfig,
    build_problem,
    gen_signal_batch,
    load_dataset,
    load_split,
    noise_sigma,
    save_dataset,
)
from .solvers import DivergenceError, alamp_run, bista_run, default_step_size, fast_bista_run
from .training import (
    TrainConfig,
    TrainData,
    layerwise_train,
    mean_nmse_db,
    write_history_csv,
)
from .unfolding import (
    NetworkVariant,
    forward,
    init_from_bista,
    load_checkpoint,
    save_checkpoint,
)
from .verify import (
    _observed_sparsity,
    calibrated_network,
    error_bound_curve,
    estimate_kappa,
    measure_constants,
    step_size_limit,
    support_violation_layers,
    write_verify_csv,
)
from .weights import circulant_weights_fft, closed_form_weights

log = logging.getLogger("blockunfold")

# The CLI solves for the weights at d = 1, where the KKT oracle
# (kkt_weights) gives closed_form's matrix; it stays a library function.
_CLI_METHODS = ("closed_form", "circulant_fft")


@dataclass
class ExperimentConfig:
    scenario: ScenarioConfig
    n_train: int = 1000
    n_validation: int = 250
    n_test: int = 500
    variant: NetworkVariant = NetworkVariant.ALBISTA
    depth: int = 16
    weights_method: str = "closed_form"
    train: TrainConfig = None
    bista_alpha: float = 1.0
    out_dir: Path = Path("results")
    # BLAS threads; None keeps the BLAS default
    threads: int | None = None

    def __post_init__(self):
        if self.train is None:
            self.train = TrainConfig(seed=self.scenario.seed)
        if self.weights_method not in _CLI_METHODS:
            raise ValueError(
                f"unknown weights method {self.weights_method!r}; choose from {_CLI_METHODS}"
            )
        if self.weights_method == "circulant_fft" and self.scenario.scenario is not Scenario.CIRCULANT:
            raise ValueError("circulant_fft weights need the circulant scenario")
        if self.depth < 1:
            raise ValueError(f"depth must be >= 1, got {self.depth}")
        if self.threads is not None and self.threads < 1:
            raise ValueError(f"--threads must be >= 1, got {self.threads}")
        if min(self.n_train, self.n_validation, self.n_test) < 1:
            raise ValueError("split sizes must be >= 1")


def read_config(path: str | Path | None) -> ExperimentConfig:
    """The experiment of a config file; a missing key, or no file at all,
    takes its default.  A key it does not read, a value that does not
    parse or that the config classes reject, and a file that is not UTF-8
    raise ValueError naming the file."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    if path is not None:
        if not Path(path).is_file():
            raise FileNotFoundError(f"config file not found: {path}")
        try:
            parser.read_string(_read_text(path), source=str(path))
        except configparser.Error as exc:
            raise ValueError(f"{path}: {' '.join(str(exc).split())}") from exc
    # each key is taken out as it is read; whatever is left is unknown
    unread = {section: dict(parser[section]) for section in parser.sections()}

    def get(section: str, key: str, parse, default):
        text = unread.get(section, {}).pop(key, None)
        if text is None:
            return default
        try:
            return parse(text)
        except ValueError as exc:
            raise ValueError(f"bad {key} value {text!r} in [{section}]: {exc}") from exc

    # every value read here comes from the file, so each error names it
    try:
        scenario = ScenarioConfig(
            scenario=get("scenario", "kind", Scenario, Scenario.GAUSSIAN),
            m=get("scenario", "m", int, 16),
            n=get("scenario", "n", int, 64),
            d=get("scenario", "d", int, 5),
            pnz=get("scenario", "pnz", float, 0.1),
            snr_db=get("scenario", "snr_db", float, float("inf")),
            rank=get("scenario", "rank", int, None),
            seed=get("scenario", "seed", int, 1),
        )
        splits = dict(
            n_train=get("scenario", "n_train", int, 1000),
            n_validation=get("scenario", "n_validation", int, 250),
            n_test=get("scenario", "n_test", int, 500),
        )
        train = TrainConfig(
            learning_rate=get("training", "learning_rate", float, 1e-3),
            patience_iters=get("training", "patience", int, 5000),
            tol=get("training", "tol", float, 1e-5),
            batch_size=get("training", "batch_size", int, 250),
            max_iters_per_layer=get("training", "max_iters_per_layer", int, 50_000),
            seed=scenario.seed,
            eval_every=get("training", "eval_every", int, 10),
        )
        network = dict(
            variant=get("network", "variant", NetworkVariant, NetworkVariant.ALBISTA),
            depth=get("network", "depth", int, 16),
            weights_method=get("weights", "method", str, "closed_form"),
            bista_alpha=get("eval", "bista_alpha", float, 1.0),
        )
        for section, keys in unread.items():
            if keys:
                raise ValueError(f"unknown key {min(keys)!r} in [{section}]")
        return ExperimentConfig(scenario=scenario, train=train, **splits, **network)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    scenario = cfg.scenario
    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)
        cfg.train.seed = args.seed
    cfg = replace(cfg, scenario=scenario)
    if args.variant is not None:
        cfg = replace(cfg, variant=NetworkVariant(args.variant))
    if args.weights_method is not None:
        cfg = replace(cfg, weights_method=args.weights_method)
    if args.depth is not None:
        cfg = replace(cfg, depth=args.depth)
    if args.out is not None:
        cfg = replace(cfg, out_dir=Path(args.out))
    if args.threads is not None:
        cfg = replace(cfg, threads=args.threads)
    return cfg


def _openblas_threads():
    """``(get, set)``: the thread-count functions of the OpenBLAS bundled with
    numpy (``numpy.libs/libscipy_openblas64_*``), or None when numpy has no
    such library.  Loading the file numpy already loaded returns numpy's own
    instance, so the count set here is the one numpy's products use."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*")):
        try:
            lib = ctypes.CDLL(str(path))
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


@contextlib.contextmanager
def _blas_threads(count: int | None):
    """Run the body with ``count`` BLAS threads, then restore the old count.

    ``None`` leaves BLAS as it is; without :func:`_openblas_threads` the
    count is left at its default with a warning.
    """
    functions = None if count is None else _openblas_threads()
    if count is not None and functions is None:
        warnings.warn(
            f"--threads {count} ignored: numpy's bundled OpenBLAS thread "
            "functions were not found",
            RuntimeWarning,
            stacklevel=3,
        )
    if functions is None:
        yield
        return
    get, set_ = functions
    previous = get()
    set_(count)
    try:
        yield
    finally:
        set_(previous)


def _require(path: Path, hint: str) -> Path:
    if not path.exists():
        raise FileNotFoundError(f"missing artifact {path} (run `blockunfold {hint}` first)")
    return path


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen(cfg: ExperimentConfig) -> int:
    out = cfg.out_dir / "data"
    problem = build_problem(cfg.scenario)
    counts = {"train": cfg.n_train, "val": cfg.n_validation, "test": cfg.n_test}
    splits = {}
    start = 0
    for split, count in counts.items():
        splits[split] = gen_signal_batch(cfg.scenario, problem.D, count, start_index=start)
        start += count
    save_dataset(out, cfg.scenario, problem, splits)
    log.info("dataset written to %s", out)
    print(
        f"gen: {cfg.scenario.scenario.value} m={cfg.scenario.m} n={cfg.scenario.n} "
        f"d={cfg.scenario.d} pnz={cfg.scenario.pnz} -> {out}"
    )
    return 0


def _compute_base_weights(cfg: ExperimentConfig, problem: ProblemData):
    method = cfg.weights_method
    if method == "circulant_fft":
        return circulant_weights_fft(problem.kernel)
    return closed_form_weights(BlockDictionary(problem.K, n=problem.K.shape[1], d=1))


def cmd_weights(cfg: ExperimentConfig) -> int:
    data_dir = _require(cfg.out_dir / "data" / "manifest.txt", "gen").parent
    _, problem = load_dataset(data_dir)
    t0 = time.perf_counter()
    w = _compute_base_weights(cfg, problem)
    runtime = time.perf_counter() - t0
    out = cfg.out_dir / "weights"
    out.mkdir(parents=True, exist_ok=True)
    save_matrix(out / "B_base.npy", w.B.data)
    with open(out / "B_base.meta", "w", encoding="utf-8") as f:
        f.write(f"method = {cfg.weights_method}\n")
        f.write(f"feasibility_residual = {w.feasibility_residual:.17g}\n")
        f.write(f"cross_coherence = {w.cross_coherence:.17g}\n")
        f.write(f"lifted_cross_coherence = {w.cross_coherence / cfg.scenario.d:.17g}\n")
        if w.rank is not None:
            f.write(f"rank = {w.rank}\n")
        f.write(f"runtime_s = {runtime:.6f}\n")
    log.info("weights written to %s (%.3fs)", out, runtime)
    print(
        f"weights: method={cfg.weights_method} feasibility={w.feasibility_residual:.3e} "
        f"coherence={w.cross_coherence:.4f} -> {out}"
    )
    return 0


def _load_artifacts(cfg: ExperimentConfig):
    """The dataset directory, its problem and the analytic weights' base
    ``B_base``; each stage reads the splits it uses with :func:`load_split`.
    The networks take ``B_base`` as it is, and so do eval's ``alamp`` baseline
    and verify's calibrated network, as the lift ``B_base (x) I_d`` it holds."""
    data_dir = _require(cfg.out_dir / "data" / "manifest.txt", "gen").parent
    _, problem = load_dataset(data_dir)
    base_B = load_matrix(_require(cfg.out_dir / "weights" / "B_base.npy", "weights"))
    return data_dir, problem, base_B


def cmd_train(cfg: ExperimentConfig) -> int:
    data_dir, problem, base_B = _load_artifacts(cfg)
    params = init_from_bista(
        cfg.variant, problem.D, cfg.depth, B_analytic=base_B, alpha=cfg.bista_alpha
    )
    t0 = time.perf_counter()
    trained, history = layerwise_train(
        params,
        TrainData(*load_split(data_dir, "train"), *load_split(data_dir, "val")),
        cfg.train,
    )
    log.info(
        "trained %d layers in %.1fs (%d steps)",
        cfg.depth,
        time.perf_counter() - t0,
        len(history.steps),
    )
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(out / "checkpoint.txt", trained)
    write_history_csv(out / "history.csv", history)
    print(
        f"train: variant={cfg.variant.value} depth={cfg.depth} "
        f"final_val_nmse={history.frozen_val_db[-1]:.2f} dB -> {out / 'checkpoint.txt'}"
    )
    return 0


def _curve(iterates, X_star: np.ndarray) -> np.ndarray:
    """Mean NMSE (dB) per layer or iteration, over the rows with x* != 0."""
    return np.array([mean_nmse_db(Xk, X_star) for Xk in iterates])


def cmd_eval(cfg: ExperimentConfig) -> int:
    data_dir, problem, base_B = _load_artifacts(cfg)
    X_test, Y_test = load_split(data_dir, "test")
    D = problem.D
    B = kron_lift(base_B, D.d)
    gamma = default_step_size(D)
    alpha = cfg.bista_alpha
    K_layers = cfg.depth

    # the baselines run once on the rows every curve averages over
    nonzero = np.einsum("ij,ij->i", X_test, X_test) > 0
    if not nonzero.any():
        raise ValueError("evaluation needs at least one nonzero test signal")
    X_nz, Y_nz = X_test[nonzero], Y_test[nonzero]
    curves: dict[str, np.ndarray] = {}
    curves["bista"] = _curve(bista_run(D, Y_nz, alpha, gamma, K_layers).iterates, X_nz)
    curves["fast_bista"] = _curve(
        fast_bista_run(D, Y_nz, alpha, gamma, K_layers).iterates, X_nz
    )
    curves["alamp"] = _curve(
        alamp_run(D, B, alpha * gamma, gamma, K_layers, Y_nz).iterates, X_nz
    )
    init_params = init_from_bista(cfg.variant, D, K_layers, B_analytic=base_B, alpha=alpha)
    curves[f"{cfg.variant.value}_init"] = _curve(
        forward(init_params, Y_test).iterates, X_test
    )
    ckpt = cfg.out_dir / "checkpoint.txt"
    if ckpt.exists():
        trained = load_checkpoint(ckpt)
        curves[f"{trained.variant.value}_trained"] = _curve(
            forward(trained, Y_test).iterates, X_test
        )

    out = cfg.out_dir / "eval.csv"
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as f:
        f.write("# blockunfold-csv v1 eval\n")
        f.write("algorithm,layer,nmse_db\n")
        for name, curve in curves.items():
            for k, value in enumerate(curve):
                f.write(f"{name},{k},{value:.17g}\n")
    for name, curve in curves.items():
        print(f"eval: {name:>22s}  layer {len(curve) - 1}  {curve[-1]:8.2f} dB")
    print(f"eval: -> {out}")
    return 0


def cmd_verify(cfg: ExperimentConfig) -> int:
    data_dir, problem, base_B = _load_artifacts(cfg)
    X_test, Y_test = load_split(data_dir, "test")
    D = problem.D
    n, d = D.n, D.d
    sigma = noise_sigma(problem.cfg)
    notes = []
    failures = []

    ckpt = cfg.out_dir / "checkpoint.txt"
    constants = None
    if ckpt.exists():
        params = load_checkpoint(ckpt)
        notes.append("source = trained checkpoint")
    else:
        s_obs = max(_observed_sparsity(X_test, n, d), 1)
        B = kron_lift(base_B, d)
        gamma = min(1.0, 0.9 * step_size_limit(d * cross_block_coherence(B, D), s_obs))
        params, constants = calibrated_network(D, B, gamma, cfg.depth, X_test, Y_test, sigma)
        notes.append("source = edge-calibrated network (no checkpoint found)")

    fp = forward(params, Y_test)
    emp = np.array([float(np.linalg.norm(Xk - X_test, axis=1).max()) for Xk in fp.iterates])
    violations = support_violation_layers(fp, X_test, n, d)
    contained = bool(np.all(violations < 0))
    if constants is None:
        try:
            constants = measure_constants(params, fp, X_test, sigma)
        except ValueError as exc:
            notes.append(f"hypotheses not met: {exc}")
    ratios = np.full(params.depth, np.nan)
    kappa_ok = compliant = False
    if constants is not None:
        try:
            estimate = estimate_kappa(params, constants)
            ratios, kappa_ok = estimate.ratios, estimate.thresholds_ok
        except ValueError as exc:
            notes.append(f"kappa estimation failed: {exc}")
        s, mu = constants.s, constants.mu
        limit = step_size_limit(mu, s)
        sparsity_ok = mu * (2 * s - 1) < 1.0  # s < (1/mu + 1)/2, also at mu = 0
        gammas_ok = bool(np.all((params.gammas > 0) & (params.gammas < limit)))
        compliant = sparsity_ok and gammas_ok and kappa_ok
        notes.append(f"mu_tilde = {constants.mu_tilde_b:.6g}, mu = {mu:.6g}, s = {s}")
        notes.append(f"step_size_interval = (0, {limit:.6g}) with mu = d * achieved coherence")
        notes.append(
            f"hypotheses: sparsity_ok={sparsity_ok} step_sizes_ok={gammas_ok} kappa_ok={kappa_ok}"
        )

    if compliant:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            # an edge threshold may read a ratio just below 1
            bound = error_bound_curve(params.gammas, constants, max(1.0, float(ratios.max())))
        bound_ok = bool(np.all(emp <= bound + 1e-9 * np.maximum(1.0, bound)))
        if not bound_ok:
            failures.append("empirical error exceeded the bound")
        if not contained:
            failures.append(
                f"support containment violated (first sample layer "
                f"{int(violations[violations >= 0].min())})"
            )
        notes.append(f"assertions: containment={contained} bound={bound_ok}")
    else:
        bound = np.full(len(emp), np.nan)
        notes.append("assertions disabled: hypotheses not met on this instance")
        notes.append(f"observed containment = {contained} (not asserted)")

    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    write_verify_csv(
        cfg.out_dir / "verify.csv", emp, bound, params, ratios, notes=notes
    )
    for note in notes:
        print(f"verify: {note}")
    if failures:
        for failure in failures:
            print(f"verify: FAIL {failure}", file=sys.stderr)
        return 1
    print(f"verify: OK -> {cfg.out_dir / 'verify.csv'}")
    return 0


def cmd_all(cfg: ExperimentConfig) -> int:
    for step in (cmd_gen, cmd_weights, cmd_train, cmd_eval, cmd_verify):
        code = step(cfg)
        if code != 0:
            return code
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockunfold",
        description="Block-sparse recovery experiments with unfolded thresholding networks",
    )
    parser.add_argument("command", choices=["gen", "weights", "train", "eval", "verify", "all"])
    parser.add_argument("--config", type=str, default=None, help="experiment config file")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", type=str, default=None, help="output directory")
    parser.add_argument(
        "--threads",
        type=int,
        default=None,
        help="BLAS thread count for this command (numpy's bundled OpenBLAS); "
        "without it BLAS keeps its default",
    )
    parser.add_argument("--variant", type=str, default=None,
                        choices=[v.value for v in NetworkVariant])
    parser.add_argument("--weights-method", type=str, default=None, choices=_CLI_METHODS)
    parser.add_argument("--depth", type=int, default=None, help="network depth / iterations")
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=os.environ.get("BLOCKUNFOLD_LOG", "WARNING").upper())
    args = build_parser().parse_args(argv)
    log.info("allocator policy %s: %s", *ALLOCATOR_POLICY)
    commands = {
        "gen": cmd_gen,
        "weights": cmd_weights,
        "train": cmd_train,
        "eval": cmd_eval,
        "verify": cmd_verify,
        "all": cmd_all,
    }
    # missing files and malformed configs or data files are input errors
    try:
        cfg = _apply_overrides(read_config(args.config), args)
        with _blas_threads(cfg.threads):
            return commands[args.command](cfg)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"error: diverged: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
