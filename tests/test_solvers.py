import re
import warnings

import numpy as np
import pytest

from blockunfold.blockcore import BlockDictionary, kron_lift
from blockunfold.solvers import (
    DivergenceError,
    alamp_run,
    bista_run,
    default_step_size,
    fast_bista_run,
    lasso_objective,
    spectral_norm,
)
from blockunfold.training import batch_nmse_ratios
from blockunfold.weights import closed_form_weights

from conftest import random_orthonormal_block_dictionary, unit_column_matrix


def kkt_residuals(D, y, x, alpha):
    """Subgradient optimality residuals of the group LASSO at x.

    Active blocks must satisfy D[i]^T(Dx - y) = -alpha x[i]/||x[i]||;
    inactive blocks need ||D[i]^T(Dx - y)|| <= alpha.
    """
    grad = D.data.T @ (D.data @ x - y)
    active_resid, inactive_resid = 0.0, 0.0
    for i in range(D.n):
        g = grad[i * D.d : (i + 1) * D.d]
        xi = x[i * D.d : (i + 1) * D.d]
        norm = np.linalg.norm(xi)
        if norm > 1e-10:
            active_resid = max(active_resid, np.linalg.norm(g + alpha * xi / norm))
        else:
            inactive_resid = max(inactive_resid, np.linalg.norm(g) - alpha)
    return active_resid, inactive_resid


class TestSpectralNorm:
    def test_matches_svd(self, rng):
        for _ in range(5):
            A = rng.standard_normal((7, 11))
            assert spectral_norm(A) == pytest.approx(np.linalg.norm(A, 2), abs=1e-8)


class TestLassoObjective:
    def test_zero_point(self, rng):
        D = random_orthonormal_block_dictionary(6, 3, 2, rng)
        y = rng.standard_normal(6)
        val = lasso_objective(D, y[None], np.zeros((1, 6)), 1.0)[0]
        assert val == pytest.approx(0.5 * y @ y, rel=1e-14)

    def test_exact_fit_no_penalty(self, rng):
        D = random_orthonormal_block_dictionary(6, 3, 2, rng)
        x = rng.standard_normal(6)
        assert lasso_objective(D, (D.data @ x)[None], x[None], 0.0)[0] == pytest.approx(
            0.0, abs=1e-20
        )

    def test_matches_naive_recomputation(self, rng):
        D = random_orthonormal_block_dictionary(8, 4, 2, rng)
        x = rng.standard_normal(8)
        y = rng.standard_normal(8)
        alpha = 0.37
        naive = 0.5 * np.sum((D.data @ x - y) ** 2) + alpha * sum(
            np.linalg.norm(x[2 * i : 2 * i + 2]) for i in range(4)
        )
        assert lasso_objective(D, y[None], x[None], alpha)[0] == pytest.approx(naive, rel=1e-12)

    def test_shape_mismatch(self, rng):
        D = random_orthonormal_block_dictionary(6, 3, 2, rng)
        with pytest.raises(ValueError):
            lasso_objective(D, np.zeros((1, 5)), np.zeros((1, 6)), 1.0)


class TestBista:
    def test_fixed_point_at_origin(self, rng):
        D = random_orthonormal_block_dictionary(6, 3, 2, rng)
        trace = bista_run(D, np.zeros((1, 6)), 1.0, default_step_size(D), 10)
        for x in trace.iterates:
            np.testing.assert_array_equal(x, 0.0)
        assert len(trace) == 11

    def test_objective_monotone_100_seeds(self):
        for seed in range(100):
            r = np.random.default_rng(seed)
            D = random_orthonormal_block_dictionary(6, 4, 2, r)
            x_star = np.zeros(8)
            x_star[:2] = r.standard_normal(2)
            y = D.data @ x_star
            trace = bista_run(D, y[None], 1.0, default_step_size(D), 40)
            obj = np.array(trace.objectives)[:, 0]
            assert np.all(np.diff(obj) <= 1e-12), f"ascent at seed {seed}"

    def test_objective_monotone_long_run(self, rng):
        # noiseless instance, 500 iterations at the default step size
        D = random_orthonormal_block_dictionary(8, 6, 2, rng)
        x_star = np.zeros(12)
        x_star[:4] = rng.standard_normal(4)
        trace = bista_run(D, (D.data @ x_star)[None], 1.0, default_step_size(D), 500)
        assert np.all(np.diff(np.array(trace.objectives)[:, 0]) <= 1e-12)

    def test_x0_starts_every_row(self, rng):
        D = random_orthonormal_block_dictionary(6, 3, 2, rng)
        x0 = rng.standard_normal((2, 6))
        trace = bista_run(D, rng.standard_normal((2, 6)), 1.0, default_step_size(D), 0, x0=x0)
        np.testing.assert_array_equal(trace.iterates[0], x0)
        # one start per row: a single (n_x,) start is not broadcast
        with pytest.raises(ValueError, match=r"x0 has shape \(6,\), expected \(2, 6\)"):
            bista_run(D, np.zeros((2, 6)), 1.0, default_step_size(D), 1, x0=np.zeros(6))

    def test_converged_kkt_residuals(self, rng):
        D = random_orthonormal_block_dictionary(12, 8, 2, rng)
        x_star = np.zeros(16)
        x_star[:4] = rng.standard_normal(4)
        y = D.data @ x_star
        alpha = 0.1
        gamma = default_step_size(D)
        warm = fast_bista_run(D, y[None], alpha, gamma, 3000)
        trace = bista_run(D, y[None], alpha, gamma, 2000, x0=warm.iterates[-1])
        active, inactive = kkt_residuals(D, y, trace.iterates[-1][0], alpha)
        assert active <= 1e-6
        assert inactive <= 1e-6

    def test_gamma_warning(self, rng):
        D = random_orthonormal_block_dictionary(6, 3, 2, rng)
        with pytest.warns(UserWarning, match="gamma"):
            bista_run(D, rng.standard_normal(6)[None], 1.0, 10.0, 1)

    def test_gamma_warning_with_cached_norm(self, rng):
        # the first call computes ||D||_2 and keeps it on D; the second
        # call must still compare gamma against 1/||D||_2^2
        D = random_orthonormal_block_dictionary(6, 3, 2, rng)
        y = rng.standard_normal(6)[None]
        L = np.linalg.norm(D.data, 2) ** 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bista_run(D, y, 1.0, default_step_size(D), 1)
        with pytest.warns(UserWarning, match="gamma"):
            bista_run(D, y, 1.0, 1.01 / L, 1)

    def test_divergence_reports_iteration(self, rng):
        D = BlockDictionary(5.0 * np.eye(4), n=4, d=1)
        with pytest.warns(UserWarning):
            with pytest.raises(DivergenceError) as err:
                bista_run(D, np.ones((1, 4)), 0.0, 50.0, 200)
        # a batch of one signal: the message names the iteration and row 0
        assert err.value.row == 0
        assert re.search(r"in row 0 \(iteration \d+\)", str(err.value))

    def test_nmse_tracking(self, rng):
        D = random_orthonormal_block_dictionary(6, 3, 2, rng)
        x_star = rng.standard_normal(6)
        y = D.data @ x_star
        trace = bista_run(D, y[None], 0.1, default_step_size(D), 5)
        nmse = [batch_nmse_ratios(X, x_star[None])[0] for X in trace.iterates]
        assert len(nmse) == 6
        assert nmse[0] == pytest.approx(1.0)


class TestFastBista:
    def test_first_iterate_matches_plain(self, rng):
        D = random_orthonormal_block_dictionary(8, 4, 2, rng)
        y = rng.standard_normal(8)
        gamma = default_step_size(D)
        a = bista_run(D, y[None], 1.0, gamma, 1)
        b = fast_bista_run(D, y[None], 1.0, gamma, 1)
        np.testing.assert_array_equal(a.iterates[1], b.iterates[1])

    def test_zero_data(self, rng):
        D = random_orthonormal_block_dictionary(6, 3, 2, rng)
        trace = fast_bista_run(D, np.zeros((1, 6)), 1.0, default_step_size(D), 10)
        np.testing.assert_array_equal(trace.iterates[-1], 0.0)

    def test_beats_plain_at_equal_iterations(self, rng):
        for _ in range(5):
            D = random_orthonormal_block_dictionary(10, 6, 2, rng)
            x_star = np.zeros(12)
            x_star[:4] = rng.standard_normal(4)
            y = D.data @ x_star + 0.01 * rng.standard_normal(10)
            gamma = default_step_size(D)
            plain = bista_run(D, y[None], 0.5, gamma, 80)
            fast = fast_bista_run(D, y[None], 0.5, gamma, 80)
            assert fast.objectives[-1][0] <= plain.objectives[-1][0] + 1e-10


class TestAlamp:
    def test_reduces_to_bista_without_onsager(self, rng):
        D = random_orthonormal_block_dictionary(8, 4, 2, rng)
        x_star = np.zeros(8)
        x_star[:2] = rng.standard_normal(2)
        y = D.data @ x_star
        gamma = default_step_size(D)
        plain = bista_run(D, y[None], 1.0, gamma, 30)
        amp = alamp_run(D, D, 1.0 * gamma, gamma, 30, y[None], onsager=False)
        for xa, xb in zip(amp.iterates, plain.iterates):
            assert np.abs(xa - xb).max() < 1e-12

    def test_zero_measurements_stay_zero(self, rng):
        D = random_orthonormal_block_dictionary(6, 3, 2, rng)
        trace = alamp_run(D, D, 0.5, 0.5, 10, np.zeros((1, 6)))
        np.testing.assert_array_equal(trace.iterates[-1], 0.0)

    def test_onsager_changes_trajectory(self, rng):
        D = random_orthonormal_block_dictionary(8, 4, 2, rng)
        y = D.data @ np.concatenate([rng.standard_normal(2), np.zeros(6)])
        gamma = default_step_size(D)
        with_ons = alamp_run(D, D, 0.05, gamma, 10, y[None], onsager=True)
        without = alamp_run(D, D, 0.05, gamma, 10, y[None], onsager=False)
        assert np.abs(with_ons.iterates[-1] - without.iterates[-1]).max() > 1e-8


def _mean_db(nmse_rows):
    return 10.0 * np.log10(np.mean(nmse_rows, axis=0))


class TestBatched:
    """A batch of measurements runs as one solve; per-sample batch-of-one
    calls are the reference."""

    @staticmethod
    def _problem(rng, batch=7):
        K = unit_column_matrix(8, 12, rng)
        D = kron_lift(K, 3)
        w = closed_form_weights(BlockDictionary(K, n=12, d=1))
        B = BlockDictionary(np.kron(w.B.data, np.eye(3)), n=12, d=3)
        X = np.zeros((batch, D.n_x))
        for row in X:
            blocks = rng.choice(12, size=2, replace=False)
            for i in blocks:
                row[3 * i : 3 * i + 3] = rng.standard_normal(3)
        Y = X @ D.data.T + 0.01 * rng.standard_normal((batch, D.n_y))
        return D, B, X, Y

    @pytest.mark.parametrize("solver", ["bista", "fast_bista", "alamp"])
    def test_curves_match_mean_of_per_sample_runs(self, rng, solver):
        D, B, X, Y = self._problem(rng)
        gamma = default_step_size(D)
        runs = {
            "bista": lambda Y: bista_run(D, Y, 0.3, gamma, 12),
            "fast_bista": lambda Y: fast_bista_run(D, Y, 0.3, gamma, 12),
            "alamp": lambda Y: alamp_run(D, B, 0.3 * gamma, gamma, 12, Y),
        }
        run = runs[solver]
        batched = run(Y)
        singles = [run(Y[i : i + 1]) for i in range(Y.shape[0])]
        assert len(batched) == 13
        assert batched.iterates[-1].shape == X.shape
        assert batched.objectives[-1].shape == (X.shape[0],)
        per_sample = np.array(
            [
                [batch_nmse_ratios(Xk, X[i : i + 1])[0] for Xk in s.iterates]
                for i, s in enumerate(singles)
            ]
        )
        batched_nmse = np.array([batch_nmse_ratios(Xk, X) for Xk in batched.iterates])
        np.testing.assert_allclose(
            _mean_db(batched_nmse.T), _mean_db(per_sample), rtol=0, atol=1e-9
        )
        for k in range(13):
            np.testing.assert_allclose(
                batched.iterates[k], np.array([s.iterates[k][0] for s in singles]),
                rtol=1e-12, atol=1e-12,
            )
            np.testing.assert_allclose(
                batched.objectives[k], [s.objectives[k][0] for s in singles], rtol=1e-12
            )

    def test_objective_per_row(self, rng):
        D, _, X, Y = self._problem(rng, batch=4)
        values = lasso_objective(D, Y, X, 0.3)
        assert values.shape == (4,)
        for value, y, x in zip(values, Y, X):
            assert value == pytest.approx(
                lasso_objective(D, y[None], x[None], 0.3)[0], rel=1e-12
            )

    def test_shape_mismatch(self, rng):
        D, _, X, Y = self._problem(rng, batch=4)
        with pytest.raises(ValueError, match="x has shape"):
            lasso_objective(D, Y, X[:3], 0.3)
        with pytest.raises(ValueError, match="x0 has shape"):
            bista_run(D, Y, 0.3, default_step_size(D), 1, x0=X[:3])
        with pytest.raises(ValueError, match="y has shape"):
            bista_run(D, Y[:, :-1], 0.3, default_step_size(D), 1)

    @pytest.mark.parametrize("solver", ["bista", "fast_bista", "alamp"])
    def test_divergence_names_the_row(self, solver):
        # rows 0 and 2 measure nothing and stay at 0; row 1 explodes
        D = BlockDictionary(5.0 * np.eye(4), n=4, d=1)
        Y = np.zeros((3, 4))
        Y[1] = 1.0
        runs = {
            "bista": lambda: bista_run(D, Y, 0.0, 50.0, 200),
            "fast_bista": lambda: fast_bista_run(D, Y, 0.0, 50.0, 200),
            "alamp": lambda: alamp_run(D, D, 0.0, 50.0, 200, Y, onsager=False),
        }
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(DivergenceError, match=r"in row 1 \(iteration \d+\)") as err:
                runs[solver]()
        assert err.value.row == 1
