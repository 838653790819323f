#!/usr/bin/env python3
"""Rank-deficient circular-convolution MMV experiment.

The measurement operator is a circulant matrix with a prescribed number of
surviving spectrum bins; the analytical weights come from the FFT dual of
the kernel, so the whole weight computation is O(n log n).  Training and
evaluation mirror scripts/run_gaussian.py.

    python scripts/run_circulant.py --out results/circulant [--quick]
"""

import argparse
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from blockunfold.datagen import Scenario, ScenarioConfig, build_problem, gen_signal_batch
from blockunfold.solvers import bista_run, default_step_size
from blockunfold.training import TrainConfig, TrainData, layerwise_train, mean_nmse_db, write_history_csv
from blockunfold.unfolding import NetworkVariant, forward, init_from_bista, save_checkpoint
from blockunfold.weights import circulant_weights_fft


@dataclass
class Experiment:
    n: int = 64
    rank: int = 24
    d: int = 5
    pnz: float = 0.1
    snr_db: float = np.inf
    depth: int = 10
    seed: int = 2
    n_train: int = 800
    n_val: int = 200
    n_test: int = 300
    learning_rate: float = 0.03
    max_iters_per_layer: int = 800
    patience: int = 30


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("results/circulant"))
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args()

    exp = Experiment()
    if args.seed is not None:
        exp.seed = args.seed
    if args.quick:
        exp.depth, exp.n_train, exp.n_test = 6, 200, 100
        exp.max_iters_per_layer, exp.patience = 200, 10

    cfg = ScenarioConfig(
        scenario=Scenario.CIRCULANT, m=exp.n, n=exp.n, d=exp.d,
        pnz=exp.pnz, snr_db=exp.snr_db, rank=exp.rank, seed=exp.seed,
    )
    problem = build_problem(cfg)
    D = problem.D
    print(f"operator: circulant n={exp.n}, rank {problem.rank}")
    X_train, Y_train = gen_signal_batch(cfg, D, exp.n_train, 0)
    X_val, Y_val = gen_signal_batch(cfg, D, exp.n_val, exp.n_train)
    X_test, Y_test = gen_signal_batch(cfg, D, exp.n_test, exp.n_train + exp.n_val)

    w = circulant_weights_fft(problem.kernel)
    B = np.kron(w.B.data, np.eye(exp.d))
    print(f"weights: FFT dual, rank {w.rank}, cross coherence {w.cross_coherence:.4f}")

    params = init_from_bista(NetworkVariant.ALBISTA, D, exp.depth, B_analytic=B)
    tc = TrainConfig(
        learning_rate=exp.learning_rate, patience_iters=exp.patience, tol=1e-5,
        n_train=exp.n_train, n_validation=exp.n_val, batch_size=min(250, exp.n_train),
        max_iters_per_layer=exp.max_iters_per_layer, seed=exp.seed, eval_every=10,
    )
    t0 = time.perf_counter()
    trained, history = layerwise_train(params, TrainData(X_train, Y_train, X_val, Y_val), tc)
    print(f"training: {len(history.steps)} steps in {time.perf_counter() - t0:.0f}s")

    gamma = default_step_size(D)
    # the baseline runs once on the test rows with x* != 0
    nonzero = np.einsum("ij,ij->i", X_test, X_test) > 0
    bista_curve = np.array([
        mean_nmse_db(Xk, X_test[nonzero])
        for Xk in bista_run(D, Y_test[nonzero], 1.0, gamma, exp.depth).iterates
    ])
    trained_curve = np.array(
        [mean_nmse_db(Xk, X_test) for Xk in forward(trained, Y_test).iterates]
    )

    args.out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(args.out / "checkpoint.txt", trained)
    write_history_csv(args.out / "history.csv", history)
    with open(args.out / "nmse_vs_layer.csv", "w", encoding="utf-8") as f:
        f.write("# blockunfold-csv v1 eval\n")
        f.write("algorithm,layer,nmse_db\n")
        for name, curve in (("bista", bista_curve), ("albista_trained", trained_curve)):
            for k, value in enumerate(curve):
                f.write(f"{name},{k},{value:.17g}\n")
    print(f"bista @ {exp.depth}: {bista_curve[-1]:.2f} dB, "
          f"trained @ {exp.depth}: {trained_curve[-1]:.2f} dB")
    print(f"wrote {args.out}/nmse_vs_layer.csv")


if __name__ == "__main__":
    main()
