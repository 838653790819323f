"""Every numeric entry point takes ``(batch, n)`` arrays, one signal per row;
a single 1-d signal is rejected with the expected shape named."""

import numpy as np
import pytest

from blockunfold.blockcore import kron_lift
from blockunfold.solvers import alamp_run, bista_run, fast_bista_run, lasso_objective
from blockunfold.training import batch_nmse_ratios, empirical_risk
from blockunfold.unfolding import NetworkVariant, backward, forward, init_from_bista

from conftest import unit_column_matrix

M, N, DIM = 4, 6, 2
N_Y, N_X = M * DIM, N * DIM


def _setup():
    D = kron_lift(unit_column_matrix(M, N, np.random.default_rng(0)), DIM)
    params = init_from_bista(NetworkVariant.ALBISTA, D, 2, B_analytic=D.data.copy())
    Y = np.ones((3, N_Y))
    return D, params, forward(params, Y)


# name -> (width of the rejected 1-d input, call)
CALLS = {
    "bista_run": (N_Y, lambda D, p, fp: bista_run(D, np.ones(N_Y), 0.1, 0.1, 2)),
    "fast_bista_run": (N_Y, lambda D, p, fp: fast_bista_run(D, np.ones(N_Y), 0.1, 0.1, 2)),
    "alamp_run": (N_Y, lambda D, p, fp: alamp_run(D, D, 0.1, 0.1, 2, np.ones(N_Y))),
    "lasso_objective": (
        N_Y,
        lambda D, p, fp: lasso_objective(D, np.ones(N_Y), np.ones(N_X), 0.1),
    ),
    "forward": (N_Y, lambda D, p, fp: forward(p, np.ones(N_Y))),
    "backward": (N_X, lambda D, p, fp: backward(p, fp, np.ones(N_X))),
    "batch_nmse_ratios": (
        N_X,
        lambda D, p, fp: batch_nmse_ratios(np.ones(N_X), np.ones(N_X)),
    ),
    "empirical_risk": (N_X, lambda D, p, fp: empirical_risk(np.ones(N_X), np.ones(N_X))),
}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_one_dimensional_input_is_rejected(name):
    width, call = CALLS[name]
    with pytest.raises(ValueError, match=rf"has shape \({width},\), expected \(batch, {width}\)"):
        call(*_setup())
