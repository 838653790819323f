from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blockunfold import training
from blockunfold.blockcore import kron_lift
from blockunfold.solvers import DivergenceError
from blockunfold.training import (
    AdamState,
    TrainConfig,
    TrainData,
    adam_step,
    batch_nmse_ratios,
    empirical_risk,
    layerwise_train,
    mean_nmse_db,
    write_history_csv,
)
from blockunfold.unfolding import (
    NetworkParams,
    NetworkVariant,
    backward,
    forward,
    init_from_bista,
    stage_arrays,
)

from conftest import risk_gradient, unit_column_matrix


def toy_data(rng, m=4, n=6, d=2, n_train=40, n_val=16):
    K = unit_column_matrix(m, n, rng)
    D = kron_lift(K, d)
    def draw(count):
        X = np.zeros((count, n * d))
        for i in range(count):
            active = rng.random(n) < 0.25
            vals = rng.standard_normal((n, d))
            vals[~active] = 0.0
            if not active.any():
                vals[0] = rng.standard_normal(d)
            X[i] = vals.reshape(-1)
        return X, X @ D.data.T
    X_train, Y_train = draw(n_train)
    X_val, Y_val = draw(n_val)
    return D, TrainData(X_train, Y_train, X_val, Y_val)


class TestMetrics:
    def test_exact_match_sentinel(self):
        x = np.array([1.0, 2.0])
        assert batch_nmse_ratios(x[None], x[None])[0] == 0.0
        assert mean_nmse_db(x[None], x[None]) == -300.0

    def test_zero_estimate(self):
        x = np.array([1.0, 2.0])
        assert mean_nmse_db(np.zeros((1, 2)), x[None]) == pytest.approx(0.0, abs=1e-12)

    def test_scale_invariance(self, rng):
        x_hat = rng.standard_normal(6)
        x = rng.standard_normal(6)
        a = mean_nmse_db(x_hat[None], x[None])
        b = mean_nmse_db(3.7 * x_hat[None], 3.7 * x[None])
        assert a == pytest.approx(b, abs=1e-12)

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            batch_nmse_ratios(np.ones((1, 3)), np.zeros((1, 3)))

    def test_batch_skips_zero_rows(self, rng):
        X_star = np.vstack([np.zeros(4), rng.standard_normal(4)])
        X_hat = rng.standard_normal((2, 4))
        ratios = batch_nmse_ratios(X_hat, X_star)
        assert ratios.shape == (1,)

    def test_mean_db_is_energy_mean(self, rng):
        X_star = rng.standard_normal((5, 6))
        X_hat = X_star + 0.1 * rng.standard_normal((5, 6))
        manual = 10 * np.log10(
            np.mean(
                [batch_nmse_ratios(X_hat[i : i + 1], X_star[i : i + 1])[0] for i in range(5)]
            )
        )
        assert mean_nmse_db(X_hat, X_star) == pytest.approx(manual, rel=1e-12)


class TestEmpiricalRisk:
    def test_perfect_predictions(self, rng):
        X = rng.standard_normal((4, 6))
        loss, G = empirical_risk(X, X)
        assert loss == 0.0
        np.testing.assert_array_equal(G, 0.0)

    def test_single_sample(self, rng):
        x = rng.standard_normal(6)
        assert empirical_risk(x[None], np.zeros((1, 6)))[0] == pytest.approx(
            0.5 * x @ x, rel=1e-14
        )

    def test_matches_mean_of_per_sample_losses(self, rng):
        X_hat = rng.standard_normal((7, 5))
        X_star = rng.standard_normal((7, 5))
        per_sample = [0.5 * np.sum((X_hat[i] - X_star[i]) ** 2) for i in range(7)]
        loss, G = empirical_risk(X_hat, X_star)
        assert loss == pytest.approx(np.mean(per_sample), rel=1e-12)
        # the gradient of the batch mean with respect to the estimates
        np.testing.assert_array_equal(G, (X_hat - X_star) / 7)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            empirical_risk(np.zeros((0, 3)), np.zeros((0, 3)))


class TestAdam:
    def test_zero_gradient_no_update(self, rng):
        D, data = toy_data(rng)
        params = init_from_bista(NetworkVariant.ALBISTA, D, 2, B_analytic=D.data.copy())
        fp = forward(params, data.Y_train)
        grads = backward(params, fp, risk_gradient(fp, fp.iterates[-1]))
        before = params.copy()
        for k in range(2):
            adam_step(stage_arrays(params, k), stage_arrays(grads, k), AdamState(), 0.1, k)
        np.testing.assert_array_equal(params.alphas, before.alphas)
        np.testing.assert_array_equal(params.gammas, before.gammas)

    def test_first_step_is_sign_scaled(self, rng):
        # single-step hand oracle: update = -lr * g / (|g| + eps)
        D, data = toy_data(rng)
        params = init_from_bista(NetworkVariant.ALBISTA, D, 1, B_analytic=D.data.copy())
        fp = forward(params, data.Y_train)
        grads = backward(params, fp, risk_gradient(fp, data.X_train))
        g = float(grads.alphas[0])
        assert g != 0.0
        before = float(params.alphas[0])
        adam_step(stage_arrays(params, 0), stage_arrays(grads, 0), AdamState(), 1e-3, 0)
        expected = before - 1e-3 * g / (abs(g) + 1e-8)
        assert float(params.alphas[0]) == pytest.approx(expected, rel=1e-9)

    def test_two_steps_reduce_scalar_quadratic(self):
        # scalar toy: loss(theta) = (theta - 3)^2 / 2 via direct gradients
        theta = np.array([0.0])
        state = AdamState()
        lr = 0.5

        class P:
            pass

        losses = []
        for _ in range(2):
            g = theta[0] - 3.0
            losses.append(0.5 * g * g)
            state.t += 1
            if "x" not in state.m:
                state.m["x"] = 0.0
                state.v["x"] = 0.0
            state.m["x"] = state.beta1 * state.m["x"] + (1 - state.beta1) * g
            state.v["x"] = state.beta2 * state.v["x"] + (1 - state.beta2) * g * g
            m_hat = state.m["x"] / (1 - state.beta1**state.t)
            v_hat = state.v["x"] / (1 - state.beta2**state.t)
            theta[0] -= lr * m_hat / (np.sqrt(v_hat) + state.eps)
        final_loss = 0.5 * (theta[0] - 3.0) ** 2
        assert final_loss < losses[0]

    def test_non_finite_gradient_rejected(self, rng):
        D, data = toy_data(rng)
        params = init_from_bista(NetworkVariant.ALBISTA, D, 1, B_analytic=D.data.copy())
        fp = forward(params, data.Y_train)
        grads = backward(params, fp, risk_gradient(fp, data.X_train))
        grads.alphas[0] = np.nan
        with pytest.raises(ValueError, match="non-finite gradient for alphas of layer 1"):
            adam_step(stage_arrays(params, 0), stage_arrays(grads, 0), AdamState(), 1e-3, 0)

    @pytest.mark.parametrize(
        "variant, field",
        [
            (NetworkVariant.TIED_LBISTA, "S"),
            (NetworkVariant.TIED_LBISTA_CP, "gammas"),
            (NetworkVariant.UNTIED_LBISTA, "S"),
            (NetworkVariant.UNTIED_LBISTA_CP, "B"),
            (NetworkVariant.ALBISTA, "gammas"),
        ],
        ids=lambda x: getattr(x, "value", x),
    )
    def test_non_finite_gradient_names_layer_and_field(self, rng, variant, field):
        D, data = toy_data(rng)
        params = init_from_bista(variant, D, 3, B_analytic=D.data.copy())
        fp = forward(params, data.Y_train)
        grads = backward(params, fp, risk_gradient(fp, data.X_train))
        stage = stage_arrays(grads, 1)
        stage[field].flat[0] = np.inf
        before = params.copy()
        with pytest.raises(ValueError, match=f"non-finite gradient for {field} of layer 2"):
            adam_step(stage_arrays(params, 1), stage, AdamState(), 1e-3, 1)
        # the finite fields ahead of the bad one may have moved; the bad
        # field itself must not
        np.testing.assert_array_equal(stage_arrays(params, 1)[field], stage_arrays(before, 1)[field])

    @pytest.mark.parametrize("variant", list(NetworkVariant), ids=lambda v: v.value)
    def test_stage_step_leaves_other_layers_unchanged(self, rng, variant):
        """One Adam step of stage k moves that stage and nothing of the others."""
        D, data = toy_data(rng)
        B_an = D.data + 0.1 * rng.standard_normal(D.data.shape)
        params = init_from_bista(variant, D, 4, B_analytic=B_an)
        # small thresholds keep blocks alive at every layer, so every
        # gradient of the full pass is nonzero
        params.alphas[:] *= 0.1
        before = params.copy()
        fp = forward(params, data.Y_train)
        grads = backward(params, fp, risk_gradient(fp, data.X_train))
        k = 2
        assert all(np.any(g != 0.0) for g in stage_arrays(grads, k).values())
        assert np.count_nonzero(grads.alphas) == 4
        adam_step(stage_arrays(params, k), stage_arrays(grads, k), AdamState(), 1e-3, k)
        for name, value in stage_arrays(params, k).items():
            assert np.all(value != stage_arrays(before, k)[name]), name
        others = [j for j in range(4) if j != k]
        np.testing.assert_array_equal(params.alphas[others], before.alphas[others])
        if params.gammas is not None:
            np.testing.assert_array_equal(params.gammas[others], before.gammas[others])
        untied = variant in (NetworkVariant.UNTIED_LBISTA, NetworkVariant.UNTIED_LBISTA_CP)
        for after_layers, before_layers in ((params.S, before.S), (params.B, before.B)):
            if after_layers is None:
                continue
            for j in others:
                if untied:
                    np.testing.assert_array_equal(after_layers[j], before_layers[j])
                else:
                    # one shared matrix: every layer sees the stage's update
                    assert after_layers[j] is after_layers[k]


class TestLayerwiseTraining:
    def test_zero_learning_rate_keeps_init(self, rng):
        D, data = toy_data(rng)
        params = init_from_bista(NetworkVariant.ALBISTA, D, 2, B_analytic=D.data.copy())
        cfg = TrainConfig(
            learning_rate=1e-30,
            patience_iters=2,
            batch_size=8,
            max_iters_per_layer=30,
            seed=3,
            eval_every=5,
        )
        trained, history = layerwise_train(params, data, cfg)
        np.testing.assert_allclose(trained.alphas, params.alphas, atol=1e-25)
        np.testing.assert_allclose(trained.gammas, params.gammas, atol=1e-25)
        assert len(history.layer_boundaries) == 2

    def test_single_layer_toy_improves(self, rng):
        D, data = toy_data(rng, n_train=60)
        params = init_from_bista(NetworkVariant.ALBISTA, D, 1, B_analytic=D.data.copy())
        before = float(batch_nmse_ratios(
            forward(params, data.Y_val).iterates[-1], data.X_val
        ).max())
        cfg = TrainConfig(
            learning_rate=0.02,
            patience_iters=10,
            batch_size=20,
            max_iters_per_layer=300,
            seed=4,
            eval_every=5,
        )
        trained, history = layerwise_train(params, data, cfg)
        after = float(batch_nmse_ratios(
            forward(trained, data.Y_val).iterates[-1], data.X_val
        ).max())
        assert after <= before + 1e-12

    def test_determinism(self, rng):
        D, data = toy_data(rng)
        cfg = TrainConfig(
            learning_rate=0.01,
            patience_iters=5,
            batch_size=10,
            max_iters_per_layer=40,
            seed=11,
            eval_every=5,
        )
        results = []
        for _ in range(2):
            params = init_from_bista(
                NetworkVariant.ALBISTA, D, 2, B_analytic=D.data.copy()
            )
            trained, history = layerwise_train(params, data, cfg)
            results.append((trained, history))
        a, b = results
        np.testing.assert_array_equal(a[0].alphas, b[0].alphas)
        np.testing.assert_array_equal(a[0].gammas, b[0].gammas)
        assert a[1].train_losses == b[1].train_losses
        assert a[1].val_nmse_db == b[1].val_nmse_db

    def test_frozen_layers_untouched(self, rng):
        # training layer 2 must not move layer 1's parameters
        D, data = toy_data(rng)
        params = init_from_bista(NetworkVariant.ALBISTA, D, 2, B_analytic=D.data.copy())
        cfg = TrainConfig(
            learning_rate=0.05,
            patience_iters=3,
            batch_size=10,
            max_iters_per_layer=25,
            seed=5,
            eval_every=5,
        )
        trained, history = layerwise_train(params, data, cfg)
        boundary = history.layer_boundaries[0]
        # re-run the first stage alone: identical because stage 2 cannot
        # touch stage 1 parameters
        params1 = init_from_bista(NetworkVariant.ALBISTA, D, 1, B_analytic=D.data.copy())
        cfg1 = TrainConfig(
            learning_rate=0.05,
            patience_iters=3,
            batch_size=10,
            max_iters_per_layer=25,
            seed=5,
            eval_every=5,
        )
        trained1, _ = layerwise_train(params1, data, cfg1)
        assert trained.alphas[0] == trained1.alphas[0]
        assert trained.gammas[0] == trained1.gammas[0]

    def test_alpha_positivity_clamp(self, rng):
        D, data = toy_data(rng)
        params = init_from_bista(NetworkVariant.ALBISTA, D, 1, B_analytic=D.data.copy())
        params.alphas[:] = 1e-8
        cfg = TrainConfig(
            learning_rate=0.5,
            patience_iters=3,
            batch_size=10,
            max_iters_per_layer=30,
            seed=6,
            eval_every=5,
        )
        trained, _ = layerwise_train(params, data, cfg)
        assert np.all(trained.alphas >= 1e-8)

    def test_history_csv(self, tmp_path, rng):
        D, data = toy_data(rng)
        params = init_from_bista(NetworkVariant.ALBISTA, D, 2, B_analytic=D.data.copy())
        cfg = TrainConfig(
            learning_rate=0.01,
            patience_iters=2,
            batch_size=10,
            max_iters_per_layer=20,
            seed=7,
            eval_every=5,
        )
        _, history = layerwise_train(params, data, cfg)
        path = tmp_path / "history.csv"
        write_history_csv(path, history)
        lines = path.read_text().splitlines()
        assert lines[0] == "# blockunfold-csv v1 history"
        assert lines[1] == "step,layer,train_loss,val_nmse_db"
        assert len(lines) == 2 + len(history.steps)
        assert all(
            b > a
            for a, b in zip(history.layer_boundaries, history.layer_boundaries[1:])
        )

    @pytest.mark.parametrize(
        "variant",
        [NetworkVariant.UNTIED_LBISTA, NetworkVariant.UNTIED_LBISTA_CP, NetworkVariant.ALBISTA],
        ids=lambda v: v.value,
    )
    def test_cached_prefix_matches_full_unroll(self, rng, monkeypatch, variant):
        # with no variant in _LOCAL_STAGE every stage re-runs the whole
        # unroll from x{0} = 0, as the tied variants do
        D, data = toy_data(rng, n_train=60)
        B_an = D.data + 0.1 * rng.standard_normal(D.data.shape)
        params = init_from_bista(variant, D, 3, B_analytic=B_an)
        cfg = TrainConfig(
            learning_rate=0.02,
            patience_iters=4,
            batch_size=12,
            max_iters_per_layer=60,
            seed=9,
            eval_every=5,
        )
        cached, h_cached = layerwise_train(params, data, cfg)
        monkeypatch.setattr(training, "_LOCAL_STAGE", set())
        ref, h_ref = layerwise_train(params, data, cfg)
        assert h_cached.steps == h_ref.steps
        assert h_cached.layer_boundaries == h_ref.layer_boundaries
        np.testing.assert_allclose(h_cached.train_losses, h_ref.train_losses, rtol=1e-10)
        for k in range(3):
            want = stage_arrays(ref, k)
            for name, value in stage_arrays(cached, k).items():
                np.testing.assert_allclose(
                    value, want[name], rtol=1e-10, atol=1e-12, err_msg=f"{name} of layer {k}"
                )

    def test_cached_step_matches_uncached_reference(self, rng, monkeypatch):
        D, data = toy_data(rng, n_train=60)
        B_an = D.data + 0.1 * rng.standard_normal(D.data.shape)
        params = init_from_bista(NetworkVariant.ALBISTA, D, 3, B_analytic=B_an)
        cfg = TrainConfig(
            learning_rate=0.02,
            patience_iters=4,
            batch_size=12,
            max_iters_per_layer=60,
            seed=9,
            eval_every=5,
        )
        # the frame runs on the cached step alone, so both runs are full size
        monkeypatch.setattr(training, "_frame_view", lambda params: None)
        cached, h_cached = layerwise_train(params, data, cfg)

        def uncached_forward(*args, step_init=None, **kwargs):
            return forward(*args, **kwargs)

        monkeypatch.setattr(training, "forward", uncached_forward)
        ref, h_ref = layerwise_train(params, data, cfg)
        assert len(h_cached.steps) == len(h_ref.steps)
        assert h_cached.layer_boundaries == h_ref.layer_boundaries
        np.testing.assert_allclose(h_cached.train_losses, h_ref.train_losses, rtol=1e-10)
        np.testing.assert_allclose(cached.alphas, ref.alphas, rtol=1e-10)
        np.testing.assert_allclose(cached.gammas, ref.gammas, rtol=1e-10)

    @pytest.mark.parametrize(
        "failure, reason",
        [
            ("gradient", "non-finite gradient for alphas of layer 2"),
            ("divergence", "non-finite activation (layer 2)"),
        ],
    )
    def test_failing_stage_freezes_at_its_best_check(self, rng, monkeypatch, failure, reason):
        D, data = toy_data(rng, n_train=60)
        params = init_from_bista(NetworkVariant.ALBISTA, D, 3, B_analytic=D.data.copy())
        cfg = TrainConfig(
            learning_rate=0.02,
            patience_iters=100,
            batch_size=12,
            max_iters_per_layer=30,
            seed=9,
            eval_every=5,
        )
        calls = 0

        def failing_backward(net, fp, G):
            # every layer runs its 30 steps, so call 43 is layer 2's 13th
            # step, after its checks at steps 5 and 10
            nonlocal calls
            calls += 1
            grads = backward(net, fp, G)
            if calls == 43:
                if failure == "divergence":
                    raise DivergenceError("non-finite activation", 2, unit="layer")
                grads.alphas[1] = np.nan
            return grads

        monkeypatch.setattr(training, "backward", failing_backward)
        with pytest.warns(UserWarning) as record:
            trained, history = layerwise_train(params, data, cfg)
        stopped = [str(w.message) for w in record if " stopped at step " in str(w.message)]
        assert stopped == [
            f"layer 2 stopped at step 13: {reason}; freezing at its best observed state"
        ]
        assert [history.layers.count(k) for k in (1, 2, 3)] == [30, 12, 30]
        # layer 2 holds the state of its best check, and layer 3 trained on
        assert history.frozen_val_db[1] == min(history.val_nmse_db[7:10])
        X_hat = forward(trained, data.Y_val, depth=2).iterates[-1]
        got = training._ratio_db(float(batch_nmse_ratios(X_hat, data.X_val).max()))
        assert got == pytest.approx(history.frozen_val_db[1], abs=1e-9)
        assert trained.alphas[2] != params.alphas[2]


# per-block cases of (x, s, x*) a frame must map exactly
FRAME_CASES = (
    "generic",
    "zero_x",
    "zero_s_and_target",
    "s_parallel_x",
    "s_nearly_parallel_x",
    "target_in_span",
    "target_in_span_nearly_along_x",
)


def frame_case(rng, case: str, d: int):
    x, s, t = rng.standard_normal((3, d))
    if case == "zero_x":
        x = np.zeros(d)
    elif case == "zero_s_and_target":
        s, t = np.zeros(d), np.zeros(d)
    elif case == "s_parallel_x":
        s = -2.5 * x
    elif case == "s_nearly_parallel_x":
        u = rng.standard_normal(d)
        s = 0.7 * x + 1e-9 * np.linalg.norm(x) * u / np.linalg.norm(u)
    elif case == "target_in_span":
        t = 0.3 * x - 1.2 * s
    elif case == "target_in_span_nearly_along_x":
        t = 0.8 * x + 1e-9 * s
    return x, s, t


def stage_reference(X, S, T, alpha, gamma, n, d):
    """:func:`one_stage` of an albista layer written out in extended precision,
    without the library: the values, and for each the sum of the absolute
    values of its terms, the scale of a float64 sum's rounding error."""
    L = np.longdouble
    rows = X.shape[0]
    Xb, Sb, Tb = (A.astype(L).reshape(rows, n, d) for A in (X, S, T))
    Zb = Xb - L(gamma) * Sb
    r = np.sqrt((Zb * Zb).sum(axis=2, keepdims=True))
    active = r > alpha
    safe = np.where(active, r, 1)
    u, ratio = Zb / safe, np.where(active, L(alpha) / safe, 1)
    E = (1 - ratio) * Zb - Tb
    sq = (E * E).sum(axis=(1, 2))
    G = E / rows
    dZ = active * ((1 - ratio) * G + ratio * (u * G).sum(axis=2, keepdims=True) * u)
    dalpha_terms = -(active * u * G)
    dgamma_terms = -dZ * Sb
    tt = (Tb * Tb).sum(axis=(1, 2))
    nmse = sq[tt > 0] / tt[tt > 0]  # batch_nmse_ratios skips zero targets
    values = (sq.mean() / 2, dalpha_terms.sum(), dgamma_terms.sum(), nmse)
    scales = (sq.mean() / 2, np.abs(dalpha_terms).sum(), np.abs(dgamma_terms).sum(), nmse)
    return values, scales


def one_stage(params, Y, X, S, T):
    """Loss, alpha and gamma gradients and per-row NMSE of one cached albista
    layer run from states ``X`` with gradient terms ``S`` against ``T``, as
    the trainer takes them."""
    fp = forward(params, Y, depth=1, x_init=X, step_init=S)
    loss, G = empirical_risk(fp.iterates[-1], T)
    grads = backward(params, fp, G)
    return loss, grads.alphas[0], grads.gammas[0], batch_nmse_ratios(fp.iterates[-1], T)


class TestBlockFrame:
    """An albista stage at d > 2 trains on per-block frame coordinates."""

    @staticmethod
    def _network(rng, n, d, alpha=0.1, gamma=0.8):
        K = unit_column_matrix(4, n, rng)
        return NetworkParams(
            variant=NetworkVariant.ALBISTA, n=n, d=d, depth=1, dictionary=K,
            alphas=[alpha], gammas=[gamma], B=[K],
        )

    @settings(max_examples=200, deadline=None)
    @given(
        d=st.sampled_from([3, 5, 8]),
        cases=st.lists(st.sampled_from(FRAME_CASES), min_size=4, max_size=12),
        first_layer=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        gamma=st.floats(0.05, 2.0),
        active=st.floats(0.1, 0.9),
    )
    # dgamma is a sum that cancels from 7.4 to 5.8e-5: the two paths differ
    # by 1.8e-15, and each lies within float64 rounding (8e-16 and 1e-15)
    # of the extended-precision sum
    @example(
        d=5, cases=["s_nearly_parallel_x"] * 4 + ["s_parallel_x"],
        first_layer=True, seed=3, gamma=0.1, active=0.125,
    )
    # rows whose targets lie in their blocks' planes (sqrt(c) = 0 up to
    # rounding), and rows whose targets are all zero (exactly, with the
    # extra block's target too)
    @example(
        d=3, cases=["target_in_span"] * 4, first_layer=False, seed=5, gamma=0.8, active=0.5,
    )
    @example(
        d=8, cases=["zero_s_and_target"] * 4, first_layer=False, seed=7, gamma=0.8, active=0.5,
    )
    def test_stage_matches_full_block_size(self, d, cases, first_layer, seed, gamma, active):
        rng = np.random.default_rng(seed)
        n, rows = len(cases), 3
        blocks = np.array([[frame_case(rng, c, d) for c in cases] for _ in range(rows)])
        X, S, T = (blocks[:, :, i].reshape(rows, n * d) for i in range(3))
        if first_layer:
            X[:] = 0.0  # every block at layer 1
        T[0, :d] = 1.0  # a nonzero target in every row
        # a threshold halfway between two block norms of the step, so no
        # block sits on the kink, where rounding decides which side it takes
        norms = np.sort(np.linalg.norm((X - gamma * S).reshape(rows, n, d), axis=2), axis=None)
        i = int(active * (norms.size - 1))
        alpha = float(norms[i] + norms[i + 1]) / 2
        params = self._network(rng, n, d, alpha, gamma)
        Y = np.zeros((rows, params.n_y))
        full = one_stage(params, Y, X, S, T)
        view = training._frame_view(params)
        framed = one_stage(view, Y[:, :0], *training._block_frame(X, S, T, n, d))
        # each path against an extended-precision reference, to 1e-12
        # relative, with a floor of 1e-14 times the sum of the absolute terms
        # (about 45 ulps of it): a sum that cancels keeps only the digits its
        # float64 rounding leaves
        refs, scales = stage_reference(X, S, T, alpha, gamma, n, d)
        names = ("loss", "dalpha", "dgamma", "nmse")
        for path, values in (("full", full), ("framed", framed)):
            for name, value, ref, scale in zip(names, values, refs, scales):
                assert np.shape(value) == np.shape(ref), (path, name)
                err = np.abs(np.asarray(value, dtype=np.longdouble) - ref)
                assert np.all(err <= 1e-12 * np.abs(ref) + 1e-14 * scale), (path, name)

    @pytest.mark.parametrize("d", [3, 4, 5, 8])
    def test_targets_keep_their_block_norms(self, rng, d):
        n, rows = len(FRAME_CASES), 4
        blocks = np.array([[frame_case(rng, c, d) for c in FRAME_CASES] for _ in range(rows)])
        X, S, T = (blocks[:, :, i].reshape(rows, n * d) for i in range(3))
        frame = training._block_frame(X, S, T, n, d)
        X_f, S_f, T_f = (A.reshape(rows, n + 1, 2) for A in frame)
        # the extra block: state and step 0, target (sqrt(c), 0)
        assert np.all(X_f[:, n] == 0.0) and np.all(S_f[:, n] == 0.0)
        assert np.all(T_f[:, n, 0] >= 0.0) and np.all(T_f[:, n, 1] == 0.0)
        # each row's target keeps its norm, the extra block holding the
        # part off the blocks' planes
        framed = np.linalg.norm(T_f.reshape(rows, -1), axis=1)
        np.testing.assert_allclose(framed, np.linalg.norm(T, axis=1), rtol=1e-14, atol=0.0)
        # no block's in-plane part is longer than the block
        in_plane = np.linalg.norm(T_f[:, :n], axis=2)
        full = np.linalg.norm(T.reshape(rows, n, d), axis=2)
        assert np.all(in_plane <= full * (1 + 1e-15))
        # x -> (|x|, 0)
        np.testing.assert_allclose(
            X_f[:, :n, 0], np.linalg.norm(X.reshape(rows, n, d), axis=2), rtol=1e-14
        )
        assert np.all(X_f[:, :n, 1] == 0.0)

    def test_view_shares_the_scalars_so_adam_updates_land_in_the_network(self, rng):
        params = self._network(rng, n=6, d=5)
        view = training._frame_view(params)
        assert view.d == 2 and view.alphas is params.alphas and view.gammas is params.gammas
        assert (view.n, view.n_y) == (7, 0)
        X = np.ones((2, view.n_x))
        fp = forward(view, np.ones((2, 0)), x_init=X, step_init=X)
        grads = backward(view, fp, risk_gradient(fp, np.zeros_like(X)))
        before = params.copy()
        adam_step(stage_arrays(view, 0), stage_arrays(grads, 0), AdamState(), 0.1, 0)
        assert params.alphas[0] != before.alphas[0]
        assert params.gammas[0] != before.gammas[0]

    @pytest.mark.parametrize(
        "variant, d",
        [
            (NetworkVariant.ALBISTA, 2),
            (NetworkVariant.TIED_LBISTA, 5),
            (NetworkVariant.TIED_LBISTA_CP, 5),
            (NetworkVariant.UNTIED_LBISTA, 5),
            (NetworkVariant.UNTIED_LBISTA_CP, 5),
        ],
        ids=lambda v: getattr(v, "value", v),
    )
    @pytest.mark.filterwarnings("ignore:layer . did not improve")
    def test_no_frame_at_block_size_two_or_for_other_variants(self, rng, monkeypatch, variant, d):
        # these stages run at full size: albista at d = 2, the frame's own
        # block size, and every other variant
        def no_frame(*args):
            raise AssertionError("a frame was built")

        monkeypatch.setattr(training, "_block_frame", no_frame)
        D, data = toy_data(rng, n=4, d=d, n_train=20, n_val=8)
        params = init_from_bista(variant, D, 2, B_analytic=D.data.copy())
        assert training._frame_view(params) is None
        cfg = TrainConfig(
            learning_rate=0.01, patience_iters=2,
            batch_size=5, max_iters_per_layer=10, seed=2, eval_every=5,
        )
        layerwise_train(params, data, cfg)

    @pytest.mark.parametrize("d", [3, 5, 8])
    def test_framed_training_matches_full_block_size(self, rng, monkeypatch, d):
        D, data = toy_data(rng, n=6, d=d, n_train=60)
        B_base = D.kron_base + 0.1 * rng.standard_normal(D.kron_base.shape)
        params = init_from_bista(NetworkVariant.ALBISTA, D, 3, B_analytic=B_base)
        assert training._frame_view(params) is not None
        cfg = TrainConfig(
            learning_rate=0.02, patience_iters=4,
            batch_size=12, max_iters_per_layer=60, seed=9, eval_every=5,
        )
        framed, h_framed = layerwise_train(params, data, cfg)
        monkeypatch.setattr(training, "_frame_view", lambda params: None)
        full, h_full = layerwise_train(params, data, cfg)
        assert h_framed.steps == h_full.steps
        assert h_framed.layer_boundaries == h_full.layer_boundaries
        np.testing.assert_allclose(h_framed.train_losses, h_full.train_losses, rtol=1e-12)
        np.testing.assert_allclose(h_framed.val_nmse_db, h_full.val_nmse_db, rtol=0, atol=1e-10)
        np.testing.assert_allclose(framed.alphas, full.alphas, rtol=1e-12)
        np.testing.assert_allclose(framed.gammas, full.gammas, rtol=1e-12)

    @pytest.mark.parametrize("d", [3, 5, 8])
    def test_every_held_form_trains_on_the_frame(self, rng, d):
        # one training path for albista at d > 2, whichever form the network
        # holds its dictionary and B in
        D, data = toy_data(rng, n=6, d=d, n_train=60)
        B_base = D.kron_base + 0.1 * rng.standard_normal(D.kron_base.shape)
        base = init_from_bista(NetworkVariant.ALBISTA, D, 3, B_analytic=B_base)
        D_lift, B_lift = D.data, np.kron(B_base, np.eye(d))
        cfg = TrainConfig(
            learning_rate=0.02, patience_iters=4,
            batch_size=12, max_iters_per_layer=60, seed=9, eval_every=5,
        )
        want, h_want = layerwise_train(base, data, cfg)
        for dictionary, B in ((D.kron_base, B_lift), (D_lift, B_base), (D_lift, B_lift)):
            params = replace(base, dictionary=dictionary, B=[B] * 3)
            assert training._frame_view(params) is not None
            got, h_got = layerwise_train(params, data, cfg)
            assert h_got.steps == h_want.steps and h_got.layers == h_want.layers
            assert h_got.layer_boundaries == h_want.layer_boundaries
            np.testing.assert_allclose(h_got.train_losses, h_want.train_losses, rtol=1e-12)
            np.testing.assert_allclose(h_got.val_nmse_db, h_want.val_nmse_db, rtol=0, atol=1e-10)
            np.testing.assert_allclose(got.alphas, want.alphas, rtol=1e-12)
            np.testing.assert_allclose(got.gammas, want.gammas, rtol=1e-12)
