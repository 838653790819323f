import re

import numpy as np
import pytest

from blockunfold import blockcore, cli, training, unfolding
from blockunfold.blockcore import kron_factor, kron_lift, load_matrix, save_matrix
from blockunfold.operators import _block_norms, eta
from blockunfold.solvers import bista_run, default_step_size, spectral_norm
from blockunfold.training import empirical_risk
from blockunfold.unfolding import (
    NetworkParams,
    NetworkVariant,
    adjoint_kernel,
    backward,
    conv_layer_form,
    conv_step_fft,
    forward,
    init_from_bista,
    load_checkpoint,
    save_checkpoint,
    stage_arrays,
)
from blockunfold.weights import circulant, circulant_weights_fft

from conftest import unit_column_matrix


_UNTIED_VARIANTS = (NetworkVariant.UNTIED_LBISTA, NetworkVariant.UNTIED_LBISTA_CP)


def make_problem(rng, m=4, n=6, d=2):
    K = unit_column_matrix(m, n, rng)
    D = kron_lift(K, d)
    x_star = np.zeros(n * d)
    x_star[: 2 * d] = rng.standard_normal(2 * d)
    y = D.data @ x_star
    return D, x_star, y


def loss_at(params, Y, X_star, depth):
    fp = forward(params, Y, depth=depth)
    return empirical_risk(fp.iterates[-1], X_star)


def finite_difference_check(params, Y, X_star, depth, tol=1e-5, h=1e-6):
    """Central finite differences against the hand-derived backward pass.

    The relative-error denominator is floored at 1e-5: with step 1e-6 and
    O(1) losses the difference quotient carries ~1e-10 of roundoff, so
    entries below that resolution are treated as matching when both
    estimates are negligible.
    """
    fp = forward(params, Y, depth=depth)
    grads = backward(params, fp, X_star)
    worst = 0.0
    checked = []
    for layer in range(params.depth):
        analytic = stage_arrays(grads, layer)
        for name, value in stage_arrays(params, layer).items():
            # a tied variant's shared matrix is the same object at every layer
            if any(value is seen for seen in checked):
                continue
            checked.append(value)
            for idx in np.ndindex(*value.shape):
                saved = value[idx]
                value[idx] = saved + h
                up = loss_at(params, Y, X_star, depth)
                value[idx] = saved - h
                down = loss_at(params, Y, X_star, depth)
                value[idx] = saved
                fd = (up - down) / (2 * h)
                an = analytic[name][idx]
                rel = abs(fd - an) / max(abs(fd), abs(an), 1e-5)
                worst = max(worst, rel)
                assert rel < tol, f"{name}[{idx}] of layer {layer}: fd={fd:.3e} analytic={an:.3e}"
    return worst


def perturbed_init(variant, D, depth, rng):
    """Bista init with scalars nudged so thresholds are active and iterates
    stay away from block-norm kinks."""
    B_an = None
    if variant is NetworkVariant.ALBISTA:
        B_an = D.data + 0.1 * rng.standard_normal(D.data.shape)
    params = init_from_bista(variant, D, depth, B_analytic=B_an)
    params.alphas[:] = params.alphas * rng.uniform(0.5, 1.5, size=depth)
    if params.gammas is not None:
        params.gammas[:] = params.gammas * rng.uniform(0.8, 1.2, size=depth)
    return params


def kink_margin(params, Y, depth):
    fp = forward(params, Y, depth=depth)
    margin = np.inf
    for k, Z in enumerate(fp.prethresh):
        norms = np.linalg.norm(Z.reshape(Z.shape[0], params.n, params.d), axis=2)
        margin = min(margin, float(np.abs(norms - params.alphas[k]).min()))
    return margin


def out_of_place_forward(params, Y, start=0, x_init=None, step_init=None):
    """:func:`forward` with each layer written as one out-of-place
    expression, ``X - g * B^T (D X - Y)`` for the gradient-step variants;
    the reference the in-place layer must reproduce bit for bit."""
    n, d = params.n, params.d
    cp_form = params.variant in unfolding._CP_FORM
    X = np.zeros((Y.shape[0], params.n_x)) if x_init is None else x_init
    iterates, prethresh, residuals, norms = [X], [], [], []
    for k in range(start, params.depth):
        Bk = params.B[k]
        if cp_form:
            if k == start and step_init is not None:
                R, step = None, step_init
            else:
                R = blockcore.kron_apply(X, params.dictionary) - Y
                step = blockcore.kron_adjoint(R, Bk)
            Z = X - params.gammas[k] * step
            residuals.append(R)
        else:
            Z = blockcore.kron_apply(X, params.S[k]) + blockcore.kron_adjoint(Y, Bk)
        a = params.alphas[k]
        r = None if a == 0.0 else _block_norms(Z.reshape(Z.shape[0], n, d))
        X = eta(Z, a, n, d, norms=r)
        prethresh.append(Z)
        norms.append(r)
        iterates.append(X)
    return unfolding.ForwardPass(
        Y=Y, iterates=iterates, prethresh=prethresh, start=start,
        residuals=residuals if cp_form else None, step_init=step_init, norms=norms,
    )


def assert_bits(a, b):
    assert a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


def read_only(A):
    A = A.copy()
    A.flags.writeable = False
    return A


class TestForward:
    @pytest.mark.parametrize("variant", list(NetworkVariant), ids=lambda v: v.value)
    def test_in_place_layers_give_the_out_of_place_bits(self, rng, variant):
        params, X_star, Y = lifted_network(variant, rng, depth=4)
        Y = read_only(Y)
        fp = forward(params, Y)
        ref = out_of_place_forward(params, Y)
        for name in ("iterates", "prethresh", "residuals"):
            for a, b in zip(getattr(fp, name) or [], getattr(ref, name) or []):
                assert_bits(a, b)
        grads, ref_grads = backward(params, fp, X_star), backward(params, ref, X_star)
        for name in ("alphas", "gammas"):
            if getattr(grads, name) is not None:
                assert_bits(getattr(grads, name), getattr(ref_grads, name))
        for name in ("S", "B"):
            for a, b in zip(getattr(grads, name) or [], getattr(ref_grads, name) or []):
                if a is not None:
                    assert_bits(a, b)

    def test_resumed_cached_pass_gives_the_out_of_place_bits(self, rng):
        params, X_star, Y = lifted_network(NetworkVariant.ALBISTA, rng, depth=4)
        head = forward(params, Y, depth=2)
        X0 = read_only(head.iterates[-1])
        step = read_only(
            blockcore.kron_adjoint(blockcore.kron_apply(X0, params.dictionary) - Y, params.B[2])
        )
        Y = read_only(Y)
        # read-only inputs: a write to Y, x_init or step_init would raise
        fp = forward(params, Y, start=2, x_init=X0, step_init=step)
        ref = out_of_place_forward(params, Y, start=2, x_init=X0, step_init=step)
        for a, b in zip(fp.iterates + fp.prethresh, ref.iterates + ref.prethresh):
            assert_bits(a, b)
        assert_bits(backward(params, fp, X_star).gammas, backward(params, ref, X_star).gammas)

    def test_zero_depth(self, rng):
        D, _, y = make_problem(rng)
        params = init_from_bista(NetworkVariant.TIED_LBISTA, D, 4)
        fp = forward(params, y[None], depth=0)
        np.testing.assert_array_equal(fp.iterates[0], 0.0)
        assert fp.depth == 0

    def test_tied_matches_classical_iteration(self, rng):
        D, x_star, y = make_problem(rng, m=6, n=8, d=2)
        gamma = default_step_size(D)
        trace = bista_run(D, y[None], 1.0, gamma, 50)
        params = init_from_bista(NetworkVariant.TIED_LBISTA, D, 50)
        fp = forward(params, y[None])
        for k in range(51):
            assert np.abs(fp.iterates[k][0] - trace.iterates[k][0]).max() < 1e-12

    def test_cp_matches_classical_iteration(self, rng):
        D, x_star, y = make_problem(rng, m=6, n=8, d=2)
        gamma = default_step_size(D)
        trace = bista_run(D, y[None], 1.0, gamma, 30)
        params = init_from_bista(NetworkVariant.TIED_LBISTA_CP, D, 30)
        fp = forward(params, y[None])
        for k in range(31):
            assert np.abs(fp.iterates[k][0] - trace.iterates[k][0]).max() < 1e-12

    def test_albista_zero_step_stays_zero(self, rng):
        D, _, y = make_problem(rng)
        params = init_from_bista(
            NetworkVariant.ALBISTA, D, 5, B_analytic=D.data.copy()
        )
        params.gammas[:] = 0.0
        fp = forward(params, y[None])
        np.testing.assert_array_equal(fp.iterates[-1], 0.0)

    def test_untied_sharing_reproduces_tied(self, rng):
        D, _, y = make_problem(rng)
        tied = init_from_bista(NetworkVariant.TIED_LBISTA, D, 6)
        untied = init_from_bista(NetworkVariant.UNTIED_LBISTA, D, 6)
        a = forward(tied, y[None])
        b = forward(untied, y[None])
        np.testing.assert_array_equal(a.iterates[-1], b.iterates[-1])

    def test_resumed_pass_matches_full(self, rng):
        D, _, y = make_problem(rng)
        params = init_from_bista(NetworkVariant.TIED_LBISTA_CP, D, 6)
        full = forward(params, y[None])
        head = forward(params, y[None], depth=3)
        tail = forward(params, y[None], depth=6, start=3, x_init=head.iterates[-1])
        np.testing.assert_array_equal(tail.iterates[-1], full.iterates[-1])


class TestParamAccounting:
    def test_untied_cp_gamma_not_trainable(self, rng):
        D, _, _ = make_problem(rng)
        params = init_from_bista(NetworkVariant.UNTIED_LBISTA_CP, D, 3)
        for k in range(3):
            assert set(stage_arrays(params, k)) == {"alphas", "B"}

    def test_stage_arrays_restriction(self, rng):
        D, _, _ = make_problem(rng)
        params = init_from_bista(NetworkVariant.TIED_LBISTA, D, 4)
        stage = stage_arrays(params, 2)
        assert set(stage) == {"alphas", "S", "B"}
        assert stage["S"] is params.S[0] and stage["B"] is params.B[0]
        untied = init_from_bista(NetworkVariant.UNTIED_LBISTA, D, 4)
        stage = stage_arrays(untied, 1)
        assert set(stage) == {"alphas", "S", "B"}
        assert stage["S"] is untied.S[1] and stage["B"] is untied.B[1]
        assert stage["S"] is not untied.S[0]
        # the scalars are one-element views: writes land in the network
        stage["alphas"][0] = 7.0
        assert untied.alphas[1] == 7.0
        assert 7.0 not in untied.alphas[[0, 2, 3]]
        albista = init_from_bista(NetworkVariant.ALBISTA, D, 4, B_analytic=D.data.copy())
        stage = stage_arrays(albista, 3)
        assert set(stage) == {"alphas", "gammas"}
        stage["gammas"][0] = 0.5
        assert albista.gammas[3] == 0.5


class TestBackward:
    def test_zero_loss_zero_gradients(self, rng):
        D, x_star, y = make_problem(rng)
        params = init_from_bista(NetworkVariant.ALBISTA, D, 3, B_analytic=D.data.copy())
        fp = forward(params, y[None])
        grads = backward(params, fp, fp.iterates[-1])
        np.testing.assert_array_equal(grads.alphas, 0.0)
        np.testing.assert_array_equal(grads.gammas, 0.0)

    def test_dead_tail_kills_step_gradient(self, rng):
        D, x_star, y = make_problem(rng)
        params = init_from_bista(NetworkVariant.ALBISTA, D, 3, B_analytic=D.data.copy())
        params.alphas[2] = 1e6
        fp = forward(params, y[None])
        grads = backward(params, fp, x_star[None])
        assert grads.gammas[2] == 0.0

    @pytest.mark.parametrize("variant", list(NetworkVariant))
    def test_finite_differences(self, variant):
        checked = 0
        seed = 0
        while checked < 3:
            seed += 1
            r = np.random.default_rng(seed)
            D, x_star, y = make_problem(r, m=3, n=4, d=2)
            params = perturbed_init(variant, D, 3, r)
            Y = np.stack([y, 0.7 * y])
            Xs = np.stack([x_star, 0.7 * x_star])
            if kink_margin(params, Y, 3) < 1e-4:
                continue
            finite_difference_check(params, Y, Xs, depth=3)
            checked += 1

    def test_resumed_backward_matches_full(self, rng):
        D, x_star, y = make_problem(rng)
        params = perturbed_init(NetworkVariant.ALBISTA, D, 4, rng)
        Y = np.atleast_2d(y)
        Xs = np.atleast_2d(x_star)
        full = forward(params, Y, depth=3)
        g_full = backward(params, full, Xs)
        head = forward(params, Y, depth=2)
        tail = forward(params, Y, depth=3, start=2, x_init=head.iterates[-1])
        g_tail = backward(params, tail, Xs)
        assert g_tail.alphas[2] == pytest.approx(g_full.alphas[2], rel=1e-12)
        assert g_tail.gammas[2] == pytest.approx(g_full.gammas[2], rel=1e-12)


    @pytest.mark.parametrize("variant", _UNTIED_VARIANTS, ids=lambda v: v.value)
    def test_matrices_only_for_executed_layers(self, rng, variant):
        D, x_star, y = make_problem(rng)
        params = perturbed_init(variant, D, 5, rng)
        Y = np.stack([y, 0.7 * y])
        Xs = np.stack([x_star, 0.7 * x_star])
        full = backward(params, forward(params, Y, depth=3), Xs)
        head = forward(params, Y, depth=2)
        stage = backward(params, forward(params, Y, depth=3, start=2, x_init=head.iterates[-1]), Xs)
        for grads, executed in ((full, [0, 1, 2]), (stage, [2])):
            for layers in (grads.S, grads.B):
                if layers is not None:
                    assert [k for k, M in enumerate(layers) if M is not None] == executed
        for name, value in stage_arrays(stage, 2).items():
            np.testing.assert_allclose(
                value, stage_arrays(full, 2)[name], rtol=1e-12, atol=1e-12, err_msg=name
            )


    def test_kept_block_norms_give_the_same_gradients(self, rng):
        params, X_star, Y = lifted_network(NetworkVariant.ALBISTA, rng)
        fp = forward(params, Y)
        assert len(fp.norms) == fp.depth and all(r.shape == (5, 6) for r in fp.norms)
        kept = backward(params, fp, X_star)
        fp.norms = None
        recomputed = backward(params, fp, X_star)
        np.testing.assert_array_equal(kept.alphas, recomputed.alphas)
        np.testing.assert_array_equal(kept.gammas, recomputed.gammas)

    def test_gradients_do_not_depend_on_the_blas_thread_count(self, rng):
        if cli._openblas_threads() is None:
            pytest.skip("numpy's bundled OpenBLAS thread functions were not found")
        # circ-desk's training batch: 250 signals of 64 blocks of 5
        m, n, d = 64, 64, 5
        D = kron_lift(unit_column_matrix(m, n, rng), d)
        B_an = np.kron(unit_column_matrix(m, n, rng), np.eye(d))
        params = init_from_bista(NetworkVariant.ALBISTA, D, 4, B_analytic=B_an, alpha=0.1)
        X_star = rng.standard_normal((250, n * d))
        X_star.reshape(250, n, d)[:, 8:] = 0.0
        fp = forward(params, X_star @ D.data.T)
        grads = []
        for threads in (1, 2):
            with cli._blas_threads(threads):
                grads.append(backward(params, fp, X_star))
        for name in ("alphas", "gammas"):
            a, b = (getattr(g, name) for g in grads)
            assert np.any(a != 0.0)
            np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64), err_msg=name)


class TestCachedStep:
    """``step_init`` carries albista's B^T (D x - y) for the first executed layer."""

    def _case(self, rng, depth=4, start=2, batch=5):
        D, x_star, y = make_problem(rng)
        params = perturbed_init(NetworkVariant.ALBISTA, D, depth, rng)
        scales = rng.uniform(0.5, 1.5, size=(batch, 1))
        Y = scales * y
        Xs = scales * x_star
        head = forward(params, Y, depth=start)
        X0 = head.iterates[-1]
        step = (X0 @ D.data.T - Y) @ params.B[0]
        return params, Y, Xs, X0, step

    def test_forward_backward_match_uncached(self, rng):
        params, Y, Xs, X0, step = self._case(rng)
        for depth in (3, 4):
            plain = forward(params, Y, depth=depth, start=2, x_init=X0)
            cached = forward(params, Y, depth=depth, start=2, x_init=X0, step_init=step)
            for a, b in zip(plain.iterates, cached.iterates):
                np.testing.assert_allclose(b, a, rtol=1e-12, atol=1e-12)
            g_plain = backward(params, plain, Xs)
            g_cached = backward(params, cached, Xs)
            np.testing.assert_allclose(g_cached.alphas, g_plain.alphas, rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(g_cached.gammas, g_plain.gammas, rtol=1e-12, atol=1e-15)
            assert np.any(g_cached.gammas[2:depth] != 0.0)

    def test_full_pass_from_zero(self, rng):
        params, Y, *_ = self._case(rng)
        step0 = -Y @ params.B[0]
        plain = forward(params, Y)
        cached = forward(params, Y, step_init=step0)
        np.testing.assert_allclose(cached.iterates[-1], plain.iterates[-1], rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize(
        "variant", [v for v in NetworkVariant if v is not NetworkVariant.ALBISTA]
    )
    def test_rejected_for_other_variants(self, rng, variant):
        D, _, y = make_problem(rng)
        params = init_from_bista(variant, D, 3)
        with pytest.raises(ValueError, match="albista"):
            forward(params, y[None], step_init=np.zeros((1, params.n_x)))

    def test_rejects_misshaped_step(self, rng):
        params, Y, _, X0, step = self._case(rng)
        for bad in (step[:-1], step[:, :-1], step[0], step[..., None]):
            with pytest.raises(ValueError, match="step_init must have shape"):
                forward(params, Y, depth=3, start=2, x_init=X0, step_init=bad)

    def test_rejects_a_measurement_batch_of_another_size(self, rng):
        params, Y, _, X0, step = self._case(rng)
        for cached in ({}, {"step_init": step}):
            with pytest.raises(ValueError, match="x_init batch size does not match Y"):
                forward(params, Y[:-1], depth=3, start=2, x_init=X0, **cached)
        with pytest.raises(ValueError, match=r"Y has shape \(8,\), expected \(batch, 8\)"):
            forward(params, Y[0], depth=3, start=2, x_init=X0, step_init=step)

    def test_one_cached_layer_reads_only_the_row_count(self, rng):
        # the trainer runs such a layer on a network of smaller block size,
        # with the measurements of the full one
        params, Y, _, X0, step = self._case(rng)
        want = forward(params, Y, depth=3, start=2, x_init=X0, step_init=step)
        got = forward(params, Y[:, :1], depth=3, start=2, x_init=X0, step_init=step)
        np.testing.assert_array_equal(got.iterates[-1], want.iterates[-1])
        # a full pass, and a second layer after the cached one, read Y
        for run in (
            dict(),
            dict(depth=4, start=2, x_init=X0, step_init=step),
            dict(depth=3, start=2, x_init=X0),
        ):
            with pytest.raises(ValueError, match=r"Y has shape \(5, 1\), expected \(batch, 8\)"):
                forward(params, Y[:, :1], **run)


def checkpoint_files(path):
    """The manifest ``path`` and the array files beside it, by name."""
    return {p.name: p.read_bytes() for p in sorted(path.parent.glob(path.stem + ".*"))}


def assert_same_network(a, b):
    """Equal variants and bit-identical arrays, signed zeros included; a
    tied variant's matrices stay one shared array."""
    assert (a.variant, a.n, a.d, a.depth) == (b.variant, b.n, b.d, b.depth)
    pairs = [(a.dictionary, b.dictionary), (a.alphas, b.alphas)]
    if a.gammas is not None or b.gammas is not None:
        pairs.append((a.gammas, b.gammas))
    for name in ("S", "B"):
        la, lb = getattr(a, name), getattr(b, name)
        assert (la is None) == (lb is None)
        if la is None:
            continue
        assert len({id(M) for M in la}) == len({id(M) for M in lb})
        pairs += zip(la, lb)
    for x, y in pairs:
        assert x.shape == y.shape
        np.testing.assert_array_equal(np.signbit(x), np.signbit(y))
        np.testing.assert_array_equal(x.view(np.uint64), y.view(np.uint64))


def lifted_network(variant, rng, depth=3, m=4, n=6, d=3):
    """A network on D = K (x) I_d whose every matrix is a lift of a random
    base (one per distinct matrix), a batch of block-sparse signals and their
    measurements, with thresholds that keep some blocks and kill others.
    The network holds the fixed matrices as those bases and the trained
    ones as the lifts."""
    D = kron_lift(rng.standard_normal((m, n)), d)
    B_an = rng.standard_normal((m, n))
    params = init_from_bista(variant, D, depth, B_analytic=B_an)
    for layers, shape in ((params.S, (n, n)), (params.B, (m, n))):
        for M in {id(M): M for M in layers or []}.values():
            W = 0.3 * rng.standard_normal(shape)
            M[...] = W if M.shape == shape else np.kron(W, np.eye(d))
    params.alphas[:] = rng.uniform(0.05, 0.3, size=depth)
    X_star = rng.standard_normal((5, n * d))
    X_star.reshape(5, n, d)[:, 2:] = 0.0
    return params, X_star, X_star @ D.data.T


def dense_twin(params):
    """The same network with each held base replaced by its lift, after
    construction: every product of the twin runs through dense matrices."""
    twin = params.copy()

    def lift(M):
        return np.kron(M, np.eye(params.d)) if M.shape[1] == params.n else M

    twin.dictionary = lift(twin.dictionary)
    twin.B = unfolding._map_layers(lift, twin.B)
    return twin


def assert_pass_matches_dense(params, Y, X_star):
    twin = dense_twin(params)
    assert twin.dictionary.shape == (twin.n_y, twin.n_x)
    fp = forward(params, Y)
    fp_dense = forward(twin, Y)
    for a, b in zip(fp.iterates + fp.prethresh, fp_dense.iterates + fp_dense.prethresh):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)
    grads = backward(params, fp, X_star)
    grads_dense = backward(twin, fp_dense, X_star)
    for name in ("alphas", "gammas", "S", "B"):
        got, want = getattr(grads, name), getattr(grads_dense, name)
        if got is None:
            assert want is None
            continue
        for a, b in zip(np.atleast_1d(got), np.atleast_1d(want)):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


class TestFactoredProducts:
    @pytest.mark.parametrize("variant", list(NetworkVariant), ids=lambda v: v.value)
    def test_forward_and_backward_match_the_dense_path(self, rng, variant):
        params, X_star, Y = lifted_network(variant, rng)
        fixed = [params.dictionary]
        trained = list(params.S or [])
        (fixed if variant is NetworkVariant.ALBISTA else trained).extend(params.B)
        assert all(M.shape == (4, 6) for M in fixed)
        assert all(kron_factor(M, params.d) is not None for M in trained)
        assert_pass_matches_dense(params, Y, X_star)

    @pytest.mark.parametrize(
        "variant",
        [NetworkVariant.TIED_LBISTA, NetworkVariant.TIED_LBISTA_CP, NetworkVariant.ALBISTA],
        ids=lambda v: v.value,
    )
    def test_in_place_write_to_a_tied_matrix_is_seen(self, rng, variant):
        params, X_star, Y = lifted_network(variant, rng)
        before = forward(params, Y).iterates[-1]
        # a new matrix, written through layer 0 of the shared one: a base
        # into albista's fixed B, a lift into a trained B
        W = 0.3 * rng.standard_normal((4, 6))
        fixed = variant is NetworkVariant.ALBISTA
        params.B[0][...] = W if fixed else np.kron(W, np.eye(3))
        assert_pass_matches_dense(params, Y, X_star)
        assert not np.array_equal(forward(params, Y).iterates[-1], before)
        if not fixed:
            # an off-diagonal channel entry: no longer a lift at all
            params.B[0][0, 1] = 0.5
            assert kron_factor(params.B[2], params.d) is None
            assert_pass_matches_dense(params, Y, X_star)

    def test_no_pass_searches_for_a_factor(self, tmp_path, rng, monkeypatch):
        def refuse(M, d):
            raise AssertionError("kron_factor called")

        monkeypatch.setattr(blockcore, "kron_factor", refuse)
        m, n, d = 4, 6, 3
        D = kron_lift(rng.standard_normal((m, n)), d)
        B_base = rng.standard_normal((m, n))
        params = init_from_bista(NetworkVariant.ALBISTA, D, 2, B_analytic=B_base, alpha=0.1)
        assert params.dictionary.shape == params.B[0].shape == (m, n)
        X = rng.standard_normal((20, n * d))
        X.reshape(20, n, d)[:, 2:] = 0.0
        Y = X @ D.data.T
        backward(params, forward(params, Y), X)
        data = training.TrainData(X[:12], Y[:12], X[12:], Y[12:])
        cfg = training.TrainConfig(batch_size=4, max_iters_per_layer=3, eval_every=1)
        trained, history = training.layerwise_train(params, data, cfg)
        assert history.layers[-1] == 2
        path = tmp_path / "ckpt.txt"
        save_checkpoint(path, trained)
        for name in ("D", "B"):
            assert load_matrix(tmp_path / f"ckpt.{name}.npy").shape == (m, n)
        assert_same_network(load_checkpoint(path), trained)


class TestInit:
    def test_spectral_norm_matches_svd(self, rng):
        D, _, _ = make_problem(rng, m=5, n=7, d=2)
        assert spectral_norm(D.data) == pytest.approx(
            np.linalg.norm(D.data, 2), abs=1e-8
        )

    def test_albista_requires_weights(self, rng):
        D, _, _ = make_problem(rng)
        with pytest.raises(ValueError, match="analytical"):
            init_from_bista(NetworkVariant.ALBISTA, D, 3)

    def test_analytic_weights_pass_through(self, rng):
        D, _, _ = make_problem(rng)
        B = rng.standard_normal(D.data.shape)
        params = init_from_bista(NetworkVariant.ALBISTA, D, 3, B_analytic=B)
        np.testing.assert_array_equal(params.B[0], B)

    @pytest.mark.parametrize("variant", list(NetworkVariant), ids=lambda v: v.value)
    def test_tied_variants_share_one_matrix(self, tmp_path, rng, variant):
        D, _, _ = make_problem(rng)
        params = perturbed_init(variant, D, 3, rng)
        path = tmp_path / "ckpt.txt"
        save_checkpoint(path, params)
        untied = variant in _UNTIED_VARIANTS
        for p in (params, params.copy(), load_checkpoint(path)):
            for layers in (p.S, p.B):
                if layers is None:
                    continue
                assert len(layers) == 3
                distinct = {id(M) for M in layers}
                assert len(distinct) == (3 if untied else 1)
        # copy() is deep, and an in-place write reaches every tied layer
        copied = params.copy()
        copied.B[0][0, 0] += 1.0
        assert copied.B[0][0, 0] != params.B[0][0, 0]
        assert (copied.B[2][0, 0] == copied.B[0][0, 0]) == (not untied)

    def test_tied_rejects_distinct_matrices(self, rng):
        D, _, _ = make_problem(rng)
        params = init_from_bista(NetworkVariant.TIED_LBISTA_CP, D, 2)
        with pytest.raises(ValueError, match="shares one B"):
            NetworkParams(
                variant=params.variant, n=params.n, d=params.d, depth=2,
                dictionary=params.dictionary, alphas=params.alphas,
                gammas=params.gammas, B=[M.copy() for M in params.B],
            )
        with pytest.raises(ValueError, match="needs 2 per-layer B"):
            NetworkParams(
                variant=params.variant, n=params.n, d=params.d, depth=2,
                dictionary=params.dictionary, alphas=params.alphas,
                gammas=params.gammas, B=params.B[:1],
            )


class TestConvKernelForm:
    def test_zero_gamma_identity_filter(self, rng):
        b = rng.standard_normal(8)
        k = rng.standard_normal(8)
        step = conv_layer_form(b, k, 0.0)
        e = np.zeros(8)
        e[0] = 1.0
        np.testing.assert_allclose(step.f, e, atol=1e-15)

    def test_adjoint_kernel_transposes_circulant(self, rng):
        b = rng.standard_normal(7)
        np.testing.assert_allclose(
            circulant(adjoint_kernel(b)), circulant(b).T, atol=1e-15
        )

    def test_three_route_agreement(self):
        # dense matrix oracle vs kernel form vs Fourier form, 20 seeds
        n = 16
        for seed in range(20):
            r = np.random.default_rng(seed)
            k = r.standard_normal(n)
            k /= np.linalg.norm(k)
            w = circulant_weights_fft(k)
            gamma = r.uniform(0.2, 1.5)
            x = r.standard_normal(n)
            y = r.standard_normal(n)
            K, B = circulant(k), w.B.data
            dense = x - gamma * (B.T @ (K @ x - y))
            b_res = adjoint_kernel(w.kernel)
            kernel_route = conv_layer_form(b_res, k, gamma).apply(x, y)
            fft_route = conv_step_fft(b_res, k, gamma, x, y)
            assert np.abs(dense - kernel_route).max() < 1e-10
            assert np.abs(dense - fft_route).max() < 1e-10

    def test_random_kernel_step_matches_dense(self, rng):
        # for arbitrary (non-analytic) b the dense oracle is circ(b) applied
        # to the residual
        n = 16
        b = rng.standard_normal(n)
        k = rng.standard_normal(n)
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        gamma = 0.8
        dense = x - gamma * (circulant(b) @ (circulant(k) @ x - y))
        kernel_route = conv_layer_form(b, k, gamma).apply(x, y)
        assert np.abs(dense - kernel_route).max() < 1e-10

    def test_length_mismatch(self, rng):
        with pytest.raises(ValueError):
            conv_layer_form(np.ones(4), np.ones(5), 1.0)


class TestCheckpoint:
    @pytest.mark.parametrize("variant", list(NetworkVariant))
    def test_round_trip(self, tmp_path, variant, rng):
        D, _, y = make_problem(rng)
        params = perturbed_init(variant, D, 3, rng)
        path = tmp_path / "ckpt.txt"
        save_checkpoint(path, params)
        loaded = load_checkpoint(path)
        assert loaded.variant is variant
        np.testing.assert_array_equal(loaded.alphas, params.alphas)
        fp_a = forward(params, y[None])
        fp_b = forward(loaded, y[None])
        np.testing.assert_array_equal(fp_a.iterates[-1], fp_b.iterates[-1])

    @pytest.mark.parametrize("variant", list(NetworkVariant), ids=lambda v: v.value)
    def test_save_load_save_is_byte_identical(self, tmp_path, variant, rng):
        D, _, _ = make_problem(rng)
        params = perturbed_init(variant, D, 3, rng)
        for k, M in enumerate(params.B if variant in _UNTIED_VARIANTS else []):
            M += 0.01 * (k + 1)
        (tmp_path / "first").mkdir()
        (tmp_path / "second").mkdir()
        first, second = tmp_path / "first" / "ckpt.txt", tmp_path / "second" / "ckpt.txt"
        save_checkpoint(first, params)
        save_checkpoint(second, load_checkpoint(first))
        files = checkpoint_files(first)
        assert files == checkpoint_files(second)
        names = {"ckpt.txt", "ckpt.alphas.npy", "ckpt.D.npy"}
        if params.gammas is not None:
            names.add("ckpt.gammas.npy")
        for tag, layers in (("S", params.S), ("B", params.B)):
            if layers is not None and variant in _UNTIED_VARIANTS:
                names.update(f"ckpt.{tag}.{k}.npy" for k in range(3))
            elif layers is not None:
                names.add(f"ckpt.{tag}.npy")
        assert set(files) == names

    @pytest.mark.parametrize("variant", list(NetworkVariant), ids=lambda v: v.value)
    @pytest.mark.parametrize("lifted", [True, False], ids=["lifts", "dense"])
    def test_loads_to_the_saved_arrays(self, tmp_path, variant, lifted, rng):
        if lifted:
            params, _, Y = lifted_network(variant, rng)
        else:
            D, _, y = make_problem(rng)
            params, Y = perturbed_init(variant, D, 3, rng), np.stack([y, 0.5 * y])
        path = tmp_path / "ckpt.txt"
        save_checkpoint(path, params)
        loaded = load_checkpoint(path)
        assert_same_network(loaded, params)
        want = forward(params, Y).iterates[-1]
        np.testing.assert_array_equal(forward(loaded, Y).iterates[-1], want)

    @pytest.mark.parametrize("version", ["v1", "v2"])
    def test_old_text_checkpoint_asks_for_train(self, tmp_path, version):
        # the head of a checkpoint in the text format of earlier versions
        path = tmp_path / "checkpoint.txt"
        path.write_text(
            f"blockunfold-checkpoint {version}\nvariant albista\ndepth 1\nblocks 2 1\n"
            "alphas 0.5\ngammas 0.5\nmatrix D 1 2\n1 0\nmatrix B 1 2\n1 0\n"
        )
        with pytest.raises(
            ValueError,
            match="checkpoint.txt: checkpoint in the old text format; rerun `blockunfold train`",
        ):
            load_checkpoint(path)

    def test_lifts_are_stored_as_bases(self, tmp_path, rng):
        params, _, _ = lifted_network(NetworkVariant.ALBISTA, rng)
        path = tmp_path / "ckpt.txt"
        save_checkpoint(path, params)
        for name in ("D", "B"):
            assert load_matrix(tmp_path / f"ckpt.{name}.npy").shape == (4, 6)
        assert path.read_text() == "[checkpoint]\nvariant = albista\ndepth = 3\nn = 6\nd = 3\n"

    @pytest.mark.parametrize("case", ["zero_signs", "infinite_base"])
    def test_a_lift_np_kron_cannot_rebuild_is_stored_dense(self, tmp_path, rng, case):
        D, _, _ = make_problem(rng)
        params = perturbed_init(NetworkVariant.TIED_LBISTA_CP, D, 3, rng)
        B = params.B[0]
        if case == "zero_signs":
            # the values of K (x) I_d, but +0.0 where np.kron gives -0.0
            B[...] = np.kron(-np.abs(rng.standard_normal((4, 6))), np.eye(2)) + 0.0
        else:
            # zeros where np.kron gives inf * 0.0 = NaN
            B[...] = np.kron(rng.standard_normal((4, 6)), np.eye(2))
            B[0, 0] = B[1, 1] = np.inf
        assert kron_factor(B, 2) is not None
        path = tmp_path / "ckpt.txt"
        save_checkpoint(path, params)
        if case == "infinite_base":
            # a checkpoint holds finite values only
            with pytest.raises(ValueError, match="ckpt.B.npy: non-finite value inf at row 1"):
                load_checkpoint(path)
            return
        assert load_matrix(tmp_path / "ckpt.B.npy").shape == (8, 12)
        assert_same_network(load_checkpoint(path), params)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("something else\n")
        with pytest.raises(ValueError, match="checkpoint"):
            load_checkpoint(path)

    def test_every_truncation_names_the_file(self, tmp_path, rng):
        D, _, _ = make_problem(rng, m=3, n=3, d=2)
        params = perturbed_init(NetworkVariant.ALBISTA, D, 2, rng)
        path = tmp_path / "ckpt.txt"
        save_checkpoint(path, params)
        files = checkpoint_files(path)
        assert len(files) == 5
        for name, full in files.items():
            # only the final newline gone included: a manifest cut inside its
            # last line may still parse, to other values ("d = 12" to "d = 1")
            for size in range(len(full)):
                (tmp_path / name).write_bytes(full[:size])
                with pytest.raises(ValueError, match=re.escape(name)):
                    load_checkpoint(path)
            (tmp_path / name).write_bytes(full)
        assert_same_network(load_checkpoint(path), params)

    @staticmethod
    def _saved_albista(tmp_path, rng):
        D, _, _ = make_problem(rng)
        path = tmp_path / "ckpt.txt"
        save_checkpoint(path, perturbed_init(NetworkVariant.ALBISTA, D, 3, rng))
        return path

    @pytest.mark.parametrize(
        "name, value",
        [("B", "nan"), ("D", "-inf"), ("alphas", "inf"), ("gammas", "nan")],
        ids=["nan_B", "inf_D", "inf_alpha", "nan_gamma"],
    )
    def test_non_finite_value_names_the_line(self, tmp_path, rng, name, value):
        path = self._saved_albista(tmp_path, rng)
        array = tmp_path / f"ckpt.{name}.npy"
        A = load_matrix(array)
        A[1, 0] = float(value)
        save_matrix(array, A)
        message = f"ckpt.{name}.npy: non-finite value {value} at row 2, column 1"
        with pytest.raises(ValueError, match=message):
            load_checkpoint(path)

    @pytest.mark.parametrize("name", ["variant", "depth", "n", "d"])
    def test_missing_header_field_is_named(self, tmp_path, rng, name):
        path = self._saved_albista(tmp_path, rng)
        kept = [line for line in path.read_text().splitlines(keepends=True)
                if not line.startswith(name + " ")]
        path.write_text("".join(kept))
        with pytest.raises(ValueError, match=f"ckpt.txt: missing key '{name}'"):
            load_checkpoint(path)

    @pytest.mark.parametrize("name", ["alphas", "gammas", "D", "B"])
    def test_missing_array_file_is_named(self, tmp_path, rng, name):
        path = self._saved_albista(tmp_path, rng)
        (tmp_path / f"ckpt.{name}.npy").unlink()
        with pytest.raises(FileNotFoundError, match=f"ckpt.{name}.npy"):
            load_checkpoint(path)

    def test_bad_field_value_names_the_line(self, tmp_path, rng):
        path = self._saved_albista(tmp_path, rng)
        path.write_text(path.read_text().replace("depth = 3", "depth = three"))
        with pytest.raises(ValueError, match="ckpt.txt:3: bad depth value 'three'"):
            load_checkpoint(path)

    def test_block_size_below_one_names_the_line(self, tmp_path, rng):
        # d = 0 would lift every stored base to an empty matrix
        path = self._saved_albista(tmp_path, rng)
        path.write_text(path.read_text().replace("d = 2", "d = 0"))
        with pytest.raises(ValueError, match="ckpt.txt: block count n and size d must be >= 1"):
            load_checkpoint(path)

    @pytest.mark.parametrize("n, d", [(6, 0), (6, -2), (0, 2)])
    def test_block_size_below_one_is_rejected_at_construction(self, rng, n, d):
        D, _, _ = make_problem(rng)
        params = perturbed_init(NetworkVariant.ALBISTA, D, 3, rng)
        with pytest.raises(ValueError, match=f"n and size d must be >= 1, got n={n}, d={d}"):
            NetworkParams(
                variant=params.variant, n=n, d=d, depth=3, dictionary=params.dictionary,
                alphas=params.alphas, gammas=params.gammas, B=params.B,
            )
