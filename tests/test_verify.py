import numpy as np
import pytest

from blockunfold import blockcore
from blockunfold.blockcore import (
    BlockDictionary,
    cross_block_coherence,
    kron_adjoint,
    kron_apply,
    kron_factor,
    kron_lift,
)
from blockunfold.datagen import (
    Scenario,
    ScenarioConfig,
    build_problem,
    sample_signal_class,
)
from blockunfold.operators import eta
from blockunfold.unfolding import (
    NetworkParams,
    NetworkVariant,
    forward,
    init_from_bista,
    load_checkpoint,
    save_checkpoint,
)
from blockunfold.verify import (
    BoundConstants,
    calibrated_network,
    error_bound_curve,
    estimate_kappa,
    max_weight_block_norm,
    measure_constants,
    step_size_limit,
    support_violation_layers,
    write_verify_csv,
)
from blockunfold.weights import closed_form_weights, kron_weights

from conftest import first_escape


def compliant_instance(m=28, n=32, d=2, s=2, seed=0, count=200):
    """Gaussian instance whose analytic weights admit the guarantees at
    sparsity s (coherence verified below 1/(2s-1))."""
    cfg = ScenarioConfig(
        scenario=Scenario.GAUSSIAN, m=m, n=n, d=d, pnz=s / n, snr_db=np.inf, seed=seed
    )
    problem = build_problem(cfg)
    base = closed_form_weights(BlockDictionary(problem.K, n=n, d=1))
    w = kron_weights(problem.K, d, base)
    X, Y = sample_signal_class(cfg, problem.D, s=s, count=count)
    keep = np.linalg.norm(X, axis=1) > 0
    return problem.D, w.B, X[keep], Y[keep]


def calibrated_reference(D, B, gamma, depth, X_star, Y, sigma):
    """Edge calibration as its own recursion: each threshold from the
    measured l2,1 error, then one fixed-weight gradient step and threshold.
    Returns the thresholds and the errors C_X{0..depth}.

    The step multiplies through the lifts' bases, as the network does, so
    the two recursions agree bit for bit; the factored products are checked
    against the dense lift in test_blockcore.py and test_unfolding.py."""
    n, d = D.n, D.d
    mu = d * cross_block_coherence(B, D)
    C = abs(gamma) * max_weight_block_norm(B)
    # kron_weights' B is held as its base
    B_base = B.kron_base

    def worst_l21_error(X):
        return np.linalg.norm((X - X_star).reshape(X.shape[0], n, d), axis=2).sum(axis=1).max()

    X = np.zeros_like(X_star)
    alphas, C_X = np.empty(depth), np.empty(depth + 1)
    for k in range(depth):
        C_X[k] = worst_l21_error(X)
        alphas[k] = gamma * mu * C_X[k] + C * sigma
        step = kron_adjoint(kron_apply(X, D.held) - Y, B_base)
        X = eta(X - gamma * step, alphas[k], n, d)
    C_X[depth] = worst_l21_error(X)
    return alphas, C_X


class TestSupportContainment:
    def test_trivial_zero_signal(self):
        iterates = [np.zeros(8), np.zeros(8)]
        assert first_escape(iterates, np.zeros(8), 4, 2) == -1

    def test_violation_layer_reported(self, rng):
        x_star = np.zeros(8)
        x_star[:2] = 1.0
        bad = np.zeros(8)
        bad[2:4] = 0.5
        assert first_escape([np.zeros(8), bad], x_star, 4, 2) == 1

    def test_zero_threshold_violates_on_generic_instance(self, rng):
        # alpha = 0 gives a dense first iterate: violation at layer 1
        D, B, X, Y = compliant_instance(count=5)
        params = NetworkParams(
            variant=NetworkVariant.ALBISTA,
            n=D.n,
            d=D.d,
            depth=2,
            dictionary=D.data,
            alphas=np.zeros(2),
            gammas=np.ones(2),
            B=[B.data] * 2,
        )
        fp = forward(params, Y)
        violations = support_violation_layers(fp, X, D.n, D.d)
        assert np.all(violations == 1)

    def test_edge_calibrated_run_is_contained(self):
        D, B, X, Y = compliant_instance()
        params, constants = calibrated_network(D, B, 1.0, 12, X, Y, s=2)
        assert constants.mu * (2 * constants.s - 1) < 1.0
        fp = forward(params, Y)
        violations = support_violation_layers(fp, X, D.n, D.d)
        assert np.all(violations < 0)
        for i in range(min(20, X.shape[0])):
            single = [Xk[i] for Xk in fp.iterates]
            assert first_escape(single, X[i], D.n, D.d) == -1


class TestKappa:
    def _constants(self, C_X, mu, sigma=0.0, C=1.0):
        return BoundConstants(
            mu_tilde_b=mu / 2,
            mu=mu,
            C=C,
            C_X=np.asarray(C_X, dtype=float),
            sigma=sigma,
            s=2,
            M=1.0,
        )

    def _params(self, alphas, gammas, n=4, d=2):
        return NetworkParams(
            variant=NetworkVariant.ALBISTA,
            n=n,
            d=d,
            depth=len(alphas),
            dictionary=np.zeros((n * d, n * d)),
            alphas=np.asarray(alphas, dtype=float),
            gammas=np.asarray(gammas, dtype=float),
            B=[np.zeros((n * d, n * d))] * len(alphas),
        )

    def test_exact_edge_gives_one(self):
        constants = self._constants([2.0, 1.0, 0.5], mu=0.2)
        gammas = [0.9, 0.8, 0.7]
        alphas = [g * 0.2 * c for g, c in zip(gammas, [2.0, 1.0, 0.5])]
        est = estimate_kappa(self._params(alphas, gammas), constants)
        assert est.kappa == pytest.approx(1.0, rel=1e-12)
        assert est.min_ratio == pytest.approx(1.0, rel=1e-12)

    def test_doubled_threshold_gives_two(self):
        constants = self._constants([2.0, 1.0], mu=0.2)
        gammas = [0.9, 0.8]
        alphas = [2 * g * 0.2 * c for g, c in zip(gammas, [2.0, 1.0])]
        est = estimate_kappa(self._params(alphas, gammas), constants)
        assert est.kappa == pytest.approx(2.0, rel=1e-12)

    def test_noise_offset(self):
        constants = self._constants([1.0], mu=0.5, sigma=0.1, C=2.0)
        est = estimate_kappa(self._params([0.7 + 0.2], [1.4]), constants)
        assert est.kappa == pytest.approx(1.0, rel=1e-12)

    def test_nonpositive_denominator_rejected(self):
        constants = self._constants([0.0], mu=0.2)
        with pytest.raises(ValueError, match="denominator"):
            estimate_kappa(self._params([0.1], [1.0]), constants)

    def test_edge_thresholds_comply_where_the_ratio_cancels(self):
        # an orthogonal square dictionary leaves mu at rounding level, so
        # g mu C_X is far below C sigma and the ratio's numerator a - C sigma
        # cancels: it reads on either side of 1 at thresholds on the edge
        rng = np.random.default_rng(0)
        n, d = 8, 2
        Q, _ = np.linalg.qr(rng.standard_normal((n * d, n * d)))
        D = BlockDictionary(Q, n=n, d=d)
        X = np.zeros((20, n * d))
        for row in X:
            for j in rng.choice(n, 2, replace=False):
                row[j * d : (j + 1) * d] = rng.standard_normal(d)
        B = closed_form_weights(D).B
        params, constants = calibrated_network(D, B, 0.9, 6, X, X @ Q.T, sigma=0.5)
        assert 0.0 < constants.mu < 1e-14
        assert estimate_kappa(params, constants).thresholds_ok
        params.alphas[3] *= 1.0 - 1e-9
        assert not estimate_kappa(params, constants).thresholds_ok

    def test_trained_run_ratio_reported(self):
        D, B, X, Y = compliant_instance()
        params, constants = calibrated_network(D, B, 1.0, 8, X, Y, s=2)
        est = estimate_kappa(params, constants)
        assert est.min_ratio >= 1.0 - 1e-9
        assert np.isfinite(est.kappa)


class TestErrorBound:
    def test_noiseless_geometric_decay(self):
        constants = BoundConstants(
            mu_tilde_b=0.05,
            mu=0.1,
            C=1.0,
            C_X=np.ones(9),
            sigma=0.0,
            s=2,
            M=1.5,
        )
        gammas = np.full(8, 1.0)
        bound = error_bound_curve(gammas, constants, kappa=1.0)
        a = 0.1 * (2 * 2 - 1)
        expected = [2 * 1.5 * a**k for k in range(9)]
        np.testing.assert_allclose(bound, expected, rtol=1e-12)

    def test_contraction_positive_at_unit_step(self):
        # gamma = 1 and s strictly under the sparsity limit gives a(t) > 0
        mu, s = 0.1, 2
        assert s < (1 / mu + 1) / 2
        a = 1.0 * mu * ((1 + 1) * s - 1) + abs(1.0 - 1.0)
        assert -np.log(a) > 0

    def test_monotone_when_exponents_positive(self):
        constants = BoundConstants(
            mu_tilde_b=0.05, mu=0.1, C=1.0, C_X=np.ones(11), sigma=0.0, s=2, M=1.0
        )
        bound = error_bound_curve(np.full(10, 0.9), constants, kappa=1.2)
        assert np.all(np.diff(bound) <= 1e-15)

    def test_hypothesis_violation_warns(self):
        constants = BoundConstants(
            mu_tilde_b=0.3, mu=0.6, C=1.0, C_X=np.ones(4), sigma=0.0, s=2, M=1.0
        )
        with pytest.warns(UserWarning):
            error_bound_curve(np.full(3, 1.5), constants, kappa=1.0)

    def test_step_size_limit(self):
        assert step_size_limit(0.1, 2) == pytest.approx(2.0 / 1.3, rel=1e-12)

    def test_empirical_error_below_bound_on_compliant_instance(self):
        # the module's flagship assertion
        D, B, X, Y = compliant_instance()
        params, constants = calibrated_network(D, B, 1.0, 12, X, Y, s=2)
        bound = error_bound_curve(params.gammas, constants, kappa=1.0)
        fp = forward(params, Y)
        emp = np.array([np.linalg.norm(Xk - X, axis=1).max() for Xk in fp.iterates])
        assert np.all(emp <= bound + 1e-9 * np.maximum(1.0, bound))
        # the bound decays, so the run must actually converge
        assert emp[-1] < 0.05 * emp[0]


class TestConstantsAndReport:
    @pytest.mark.parametrize("sigma", [0.0, 0.01])
    def test_calibration_matches_reference_recursion(self, sigma):
        D, B, X, Y = compliant_instance(count=50)
        params, constants = calibrated_network(D, B, 0.9, 5, X, Y, sigma=sigma, s=2)
        alphas, C_X = calibrated_reference(D, B, 0.9, 5, X, Y, sigma)
        np.testing.assert_array_equal(params.alphas, alphas)
        np.testing.assert_array_equal(constants.C_X, C_X)
        assert (constants.sigma, constants.s) == (sigma, 2)

    def test_measured_constants(self):
        D, B, X, Y = compliant_instance(count=50)
        params, _ = calibrated_network(D, B, 1.0, 4, X, Y, s=2)
        fp = forward(params, Y)
        constants = measure_constants(params, fp, X, s=2)
        assert constants.mu == pytest.approx(2 * constants.mu_tilde_b, rel=1e-12)
        assert constants.C == pytest.approx(
            max_weight_block_norm(B) * 1.0, rel=1e-12
        )
        l21_first = np.linalg.norm(X.reshape(X.shape[0], D.n, D.d), axis=2).sum(axis=1)
        assert constants.C_X[0] == pytest.approx(l21_first.max(), rel=1e-12)

    def test_every_untied_layer_is_measured(self, rng):
        D, B, X, Y = compliant_instance(count=30)
        params = init_from_bista(NetworkVariant.UNTIED_LBISTA_CP, D, 3, B_analytic=B.data)
        # layer 2 stays feasible: each block of P is orthogonal to its own D block
        P = rng.standard_normal(B.data.shape)
        for i in range(D.n):
            Di, cols = D.block(i), slice(i * D.d, (i + 1) * D.d)
            P[:, cols] -= Di @ (np.linalg.pinv(Di) @ P[:, cols])
        params.B[1] = B.data + 0.1 * P
        layers = [BlockDictionary(Bk, n=D.n, d=D.d) for Bk in params.B]
        coherences = [cross_block_coherence(Bk, D) for Bk in layers]
        constants = measure_constants(params, forward(params, Y), X)
        assert constants.mu_tilde_b == max(coherences) > coherences[0]
        assert constants.C == pytest.approx(
            np.max(np.abs(params.gammas)) * max(map(max_weight_block_norm, layers)), rel=1e-12
        )
        params.B[1] = B.data + 0.1 * rng.standard_normal(B.data.shape)
        with pytest.raises(ValueError, match=r"layer 2: B is infeasible at block \d+"):
            measure_constants(params, forward(params, Y), X)

    def test_report_csv(self, tmp_path):
        D, B, X, Y = compliant_instance(count=30)
        params, constants = calibrated_network(D, B, 1.0, 4, X, Y, s=2)
        fp = forward(params, Y)
        emp = np.array([np.linalg.norm(Xk - X, axis=1).max() for Xk in fp.iterates])
        bound = error_bound_curve(params.gammas, constants, kappa=1.0)
        path = tmp_path / "verify.csv"
        write_verify_csv(path, emp, bound, params, np.ones(4), notes=["check"])
        lines = path.read_text().splitlines()
        assert lines[0] == "# blockunfold-csv v1 verify"
        assert lines[1] == "# check"
        assert lines[2] == "layer,empirical_max_err,bound_rhs,alpha,gamma,kappa_ratio"
        assert len(lines) == 3 + 4


class TestLiftRoute:
    """A lift ``W (x) I_d`` is measured on its base ``W``."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_block_norm_of_a_lift_matches_the_dense_route(self, rng, d):
        lift = kron_lift(rng.standard_normal((5, 7)), d)
        assert max_weight_block_norm(lift) == pytest.approx(
            max_weight_block_norm(BlockDictionary(lift.data, n=7, d=d)), rel=1e-12
        )

    def test_albista_constants_skip_the_block_svd(self, tmp_path, monkeypatch):
        D, B, X, Y = compliant_instance(count=20)
        base = kron_factor(B.data, D.d)
        albista = init_from_bista(NetworkVariant.ALBISTA, D, 3, B_analytic=base)
        # a trained matrix is held dense, so a tied_cp checkpoint has no base
        save_checkpoint(tmp_path / "checkpoint.txt", init_from_bista(
            NetworkVariant.TIED_LBISTA_CP, D, 3, B_analytic=base
        ))
        tied_cp = load_checkpoint(tmp_path / "checkpoint.txt")
        dense_mu = cross_block_coherence(B, D)

        def refuse(G, n, d):
            raise AssertionError(f"block SVD of a {G.shape} product")

        monkeypatch.setattr(blockcore, "_pairwise_block_spectral_max", refuse)
        constants = measure_constants(albista, forward(albista, Y), X)
        assert constants.mu_tilde_b == pytest.approx(dense_mu, rel=1e-12)
        with pytest.raises(AssertionError, match=r"block SVD of a \(64, 64\) product"):
            measure_constants(tied_cp, forward(tied_cp, Y), X)
