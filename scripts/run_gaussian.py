#!/usr/bin/env python3
"""Desk-scale Gaussian MMV experiment.

Generates data, computes analytical weights at the channel level, trains an
ALBISTA network layer by layer, and writes per-layer NMSE curves for the
classical baselines and the trained network, plus the training history.

Run from the repository root:

    python scripts/run_gaussian.py --out results/gaussian [--quick]
"""

import argparse
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from blockunfold.blockcore import BlockDictionary
from blockunfold.datagen import Scenario, ScenarioConfig, build_problem, gen_signal_batch
from blockunfold.solvers import alamp_run, bista_run, default_step_size, fast_bista_run
from blockunfold.training import TrainConfig, TrainData, layerwise_train, mean_nmse_db, write_history_csv
from blockunfold.unfolding import NetworkVariant, forward, init_from_bista, save_checkpoint
from blockunfold.weights import closed_form_weights


@dataclass
class Experiment:
    m: int = 16
    n: int = 64
    d: int = 5
    pnz: float = 0.1
    snr_db: float = np.inf
    depth: int = 10
    seed: int = 2
    n_train: int = 1000
    n_val: int = 250
    n_test: int = 500
    learning_rate: float = 0.03
    max_iters_per_layer: int = 800
    patience: int = 30


def nmse_curve(iterates, X):
    return np.array([mean_nmse_db(Xk, X) for Xk in iterates])


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("results/gaussian"))
    parser.add_argument("--quick", action="store_true", help="small budget smoke run")
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args()

    exp = Experiment()
    if args.seed is not None:
        exp.seed = args.seed
    if args.quick:
        exp.depth, exp.n_train, exp.n_test = 6, 300, 150
        exp.max_iters_per_layer, exp.patience = 200, 10

    cfg = ScenarioConfig(
        scenario=Scenario.GAUSSIAN, m=exp.m, n=exp.n, d=exp.d,
        pnz=exp.pnz, snr_db=exp.snr_db, seed=exp.seed,
    )
    problem = build_problem(cfg)
    D = problem.D
    X_train, Y_train = gen_signal_batch(cfg, D, exp.n_train, 0)
    X_val, Y_val = gen_signal_batch(cfg, D, exp.n_val, exp.n_train)
    X_test, Y_test = gen_signal_batch(cfg, D, exp.n_test, exp.n_train + exp.n_val)

    base = closed_form_weights(BlockDictionary(problem.K, n=exp.n, d=1))
    B = np.kron(base.B.data, np.eye(exp.d))
    print(f"weights: cross coherence {base.cross_coherence:.4f} "
          f"(lifted {base.cross_coherence / exp.d:.4f})")

    params = init_from_bista(NetworkVariant.ALBISTA, D, exp.depth, B_analytic=B)
    tc = TrainConfig(
        learning_rate=exp.learning_rate, patience_iters=exp.patience, tol=1e-5,
        n_train=exp.n_train, n_validation=exp.n_val, batch_size=min(250, exp.n_train),
        max_iters_per_layer=exp.max_iters_per_layer, seed=exp.seed, eval_every=10,
    )
    t0 = time.perf_counter()
    trained, history = layerwise_train(params, TrainData(X_train, Y_train, X_val, Y_val), tc)
    print(f"training: {len(history.steps)} steps in {time.perf_counter() - t0:.0f}s, "
          f"frozen val {history.frozen_val_db[-1]:.2f} dB")

    gamma = default_step_size(D)
    B_dict = BlockDictionary(B, n=exp.n, d=exp.d)
    # the baselines run once on the test rows with x* != 0
    nonzero = np.einsum("ij,ij->i", X_test, X_test) > 0
    X_nz, Y_nz = X_test[nonzero], Y_test[nonzero]
    curves = {
        "bista": nmse_curve(bista_run(D, Y_nz, 1.0, gamma, exp.depth).iterates, X_nz),
        "fast_bista": nmse_curve(
            fast_bista_run(D, Y_nz, 1.0, gamma, exp.depth).iterates, X_nz),
        "alamp": nmse_curve(
            alamp_run(D, B_dict, gamma, gamma, exp.depth, Y_nz).iterates, X_nz),
        "albista_init": nmse_curve(forward(params, Y_test).iterates, X_test),
        "albista_trained": nmse_curve(forward(trained, Y_test).iterates, X_test),
    }

    args.out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(args.out / "checkpoint.txt", trained)
    write_history_csv(args.out / "history.csv", history)
    with open(args.out / "nmse_vs_layer.csv", "w", encoding="utf-8") as f:
        f.write("# blockunfold-csv v1 eval\n")
        f.write("algorithm,layer,nmse_db\n")
        for name, curve in curves.items():
            for k, value in enumerate(curve):
                f.write(f"{name},{k},{value:.17g}\n")
    for name, curve in curves.items():
        print(f"{name:>16s}: layer {exp.depth} -> {curve[-1]:7.2f} dB")
    print(f"wrote {args.out}/nmse_vs_layer.csv")


if __name__ == "__main__":
    main()
