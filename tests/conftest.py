import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from blockunfold.blockcore import ORTHONORMAL_TOL, BlockDictionary
from blockunfold.training import empirical_risk
from blockunfold.unfolding import ForwardPass
from blockunfold.verify import support_violation_layers


def random_orthonormal_block_dictionary(n_y: int, n: int, d: int, rng) -> BlockDictionary:
    """Random dictionary with exactly orthonormal blocks (thin QR per block)."""
    cols = []
    for _ in range(n):
        Q, _ = np.linalg.qr(rng.standard_normal((n_y, d)))
        cols.append(Q)
    D = BlockDictionary(np.hstack(cols), n=n, d=d)
    assert D.max_block_gram_residual() <= ORTHONORMAL_TOL
    return D


def unit_column_matrix(m: int, n: int, rng) -> np.ndarray:
    K = rng.standard_normal((m, n))
    return K / np.linalg.norm(K, axis=0)


def risk_gradient(fp: ForwardPass, X_star: np.ndarray) -> np.ndarray:
    """``G = dL/dx{K}`` of the trainer's loss of the pass ``fp`` against the
    targets ``X_star``, from :func:`~blockunfold.training.empirical_risk` as
    the trainer gives it to ``backward``."""
    return empirical_risk(fp.iterates[-1], X_star)[1]


def first_escape(iterates, x_star, n: int, d: int) -> int:
    """:func:`support_violation_layers` on a batch of one signal: the first
    of ``iterates`` whose support escapes supp(x_star), -1 if none."""
    fp = ForwardPass(Y=None, iterates=[np.atleast_2d(x) for x in iterates], prethresh=[])
    return int(support_violation_layers(fp, np.atleast_2d(x_star), n, d)[0])


REPO = Path(__file__).resolve().parents[1]


def load_benchmark_tracer():
    """``benchmark/tracer.py``, the tracer of the benchmark's traced runs."""
    spec = importlib.util.spec_from_file_location(
        "benchmark_tracer", REPO / "benchmark" / "tracer.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def per_layer_functions() -> set[str]:
    """Every function a per-layer metric in ``BENCHMARK.json`` names; a
    traced benchmark run fails when one of them is never called."""
    spec = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"].rsplit(".", 1)[0] for m in spec["per_layer"] if m["name"].count(".") == 2}


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
