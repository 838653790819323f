import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from blockunfold.operators import _block_norms, eta, eta_dalpha, eta_jvp, eta_trace


def fd_jvp(z, alpha, v, n, d, h=1e-6):
    """Central finite-difference oracle for the threshold Jacobian."""
    return (eta(z + h * v, alpha, n, d) - eta(z - h * v, alpha, n, d)) / (2 * h)


def fd_divergence(z, alpha, n, d, h=1e-6):
    """Numerical divergence oracle: sum of diagonal finite differences."""
    total = 0.0
    for j in range(z.size):
        e = np.zeros_like(z)
        e[j] = 1.0
        total += (eta(z + h * e, alpha, n, d)[j] - eta(z - h * e, alpha, n, d)[j]) / (2 * h)
    return total


def l21(x, n, d):
    return float(np.linalg.norm(x.reshape(n, d), axis=1).sum())


# Draws for the symmetry test: block norms stay at least 1e-3 away from
# alpha, where the Jacobian is smooth.
@st.composite
def off_kink_cases(draw):
    n, d = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    entries = st.floats(-10.0, 10.0, allow_subnormal=False)
    z = draw(arrays(np.float64, n * d, elements=entries))
    u = draw(arrays(np.float64, n * d, elements=entries))
    v = draw(arrays(np.float64, n * d, elements=entries))
    alpha = draw(st.floats(0.0, 10.0))
    assume(np.all(np.abs(np.linalg.norm(z.reshape(n, d), axis=1) - alpha) >= 1e-3))
    return z, alpha, u, v, n, d


class TestBlockSoftThreshold:
    def test_zero_threshold_is_identity(self, rng):
        z = rng.standard_normal(8)
        np.testing.assert_array_equal(eta(z, 0.0, 4, 2), z)

    def test_direct_evaluation(self):
        out = eta(np.array([1.2, 1.6]), 0.5, 1, 2)
        np.testing.assert_allclose(out, [0.9, 1.2], atol=1e-15)

    def test_subthreshold_block_killed(self):
        np.testing.assert_array_equal(eta(np.array([0.4, 0.0]), 0.5, 1, 2), [0.0, 0.0])

    def test_negative_threshold_rejected(self, rng):
        with pytest.raises(ValueError):
            eta(rng.standard_normal(4), -0.1, 2, 2)

    def test_report_consistency(self, rng):
        # a block survives iff its norm exceeds the threshold
        z = rng.standard_normal(12)
        out = eta(z, 0.7, 4, 3).reshape(4, 3)
        norms = np.linalg.norm(z.reshape(4, 3), axis=1)
        for i in range(4):
            if norms[i] > 0.7:
                np.testing.assert_allclose(np.linalg.norm(out[i]), norms[i] - 0.7, rtol=1e-12)
            else:
                np.testing.assert_array_equal(out[i], 0.0)

    @given(seed=st.integers(0, 10**6), alpha=st.floats(0.0, 3.0))
    @settings(max_examples=80, deadline=None)
    def test_nonexpansive(self, seed, alpha):
        r = np.random.default_rng(seed)
        a = r.standard_normal(12)
        b = r.standard_normal(12)
        ea = eta(a, alpha, 4, 3)
        eb = eta(b, alpha, 4, 3)
        assert np.linalg.norm(ea - eb) <= np.linalg.norm(a - b) + 1e-12

    def test_is_proximal_map_of_l21(self, rng):
        # dense grid search oracle on a d=1, n=2 instance
        z = np.array([0.8, -0.5])
        alpha = 0.3
        out = eta(z, alpha, 2, 1)
        grid = np.linspace(-2.0, 2.0, 401)
        best, best_val = None, np.inf
        for u0 in grid:
            for u1 in grid:
                u = np.array([u0, u1])
                val = 0.5 * np.sum((u - z) ** 2) + alpha * l21(u, 2, 1)
                if val < best_val:
                    best, best_val = u, val
        np.testing.assert_allclose(out, best, atol=2e-2)
        prox_val = 0.5 * np.sum((out - z) ** 2) + alpha * l21(out, 2, 1)
        assert prox_val <= best_val + 1e-12


class TestThresholdJacobian:
    def test_zero_threshold_identity_jacobian(self, rng):
        z = rng.standard_normal(8)
        v = rng.standard_normal(8)
        np.testing.assert_array_equal(eta_jvp(z, 0.0, v, 4, 2), v)

    def test_inactive_block_zero(self, rng):
        z = np.array([0.1, 0.1, 2.0, 0.0])
        out = eta_jvp(z, 0.5, rng.standard_normal(4), 2, 2)
        np.testing.assert_array_equal(out[:2], 0.0)

    def test_matches_finite_differences(self, rng):
        n, d = 5, 3
        for _ in range(10):
            z = rng.standard_normal(n * d)
            v = rng.standard_normal(n * d)
            alpha = 0.6
            # keep away from kinks so the finite difference is clean
            if np.min(np.abs(np.linalg.norm(z.reshape(n, d), axis=1) - alpha)) < 1e-3:
                continue
            got = eta_jvp(z, alpha, v, n, d)
            want = fd_jvp(z, alpha, v, n, d)
            assert np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-12) < 1e-5

    @given(case=off_kink_cases())
    @example(case=(np.full(2, 2.0), 1.0, np.full(2, 2.22507386e-308), np.array([1e-8, 0.0]), 1, 2))
    @settings(max_examples=200, deadline=None)
    def test_vjp_is_jvp(self, case):
        # the Jacobian is symmetric, so eta_jvp also serves as the
        # vector-Jacobian product: <J u, v> == <u, J v>
        z, alpha, u, v, n, d = case
        left = float(eta_jvp(z, alpha, u, n, d) @ v)
        right = float(u @ eta_jvp(z, alpha, v, n, d))
        scale = max(abs(left), abs(right), np.linalg.norm(u) * np.linalg.norm(v))
        # relative 1e-12, but at least one unit in the last place: in the
        # example the products are subnormal (2.2e-316), spaced 4.9e-324 apart
        assert abs(left - right) <= max(1e-12 * scale, np.spacing(scale))

    def test_dalpha_direction(self, rng):
        out = eta_dalpha(np.array([3.0, 4.0, 0.1, 0.0]), 1.0, 2, 2)
        np.testing.assert_allclose(out[:2], [-0.6, -0.8], atol=1e-15)
        np.testing.assert_array_equal(out[2:], 0.0)

    def test_dalpha_matches_finite_differences(self, rng):
        n, d = 4, 2
        z = rng.standard_normal(n * d)
        alpha, h = 0.5, 1e-6
        want = (eta(z, alpha + h, n, d) - eta(z, alpha - h, n, d)) / (2 * h)
        got = eta_dalpha(z, alpha, n, d)
        np.testing.assert_allclose(got, want, atol=1e-8)


class TestOnsagerTrace:
    # the AMP correction is the Jacobian trace per measurement, eta_trace / n_y

    def test_zero_input(self):
        assert eta_trace(np.zeros(12), 0.5, 4, 3) / 6 == 0.0

    def test_full_identity_trace(self, rng):
        z = rng.standard_normal(12) + 3.0
        assert eta_trace(z, 0.0, 4, 3) / 8 == pytest.approx(12 / 8, rel=1e-14)

    def test_d1_trace_contribution_is_one(self):
        # one active block at d=1 contributes exactly 1 to the raw trace
        assert eta_trace(np.array([2.0, 0.1]), 0.5, 2, 1) == pytest.approx(1.0, rel=1e-14)

    def test_matches_numerical_divergence(self, rng):
        n, d, n_y = 5, 3, 9
        for _ in range(5):
            z = rng.standard_normal(n * d)
            alpha = 0.4
            if np.min(np.abs(np.linalg.norm(z.reshape(n, d), axis=1) - alpha)) < 1e-3:
                continue
            got = eta_trace(z, alpha, n, d) / n_y
            want = fd_divergence(z, alpha, n, d) / n_y
            assert abs(got - want) / max(abs(want), 1e-12) < 1e-5

    def test_analytic_block_trace(self, rng):
        # per active block the trace contribution is d - alpha (d-1) / r
        d = 4
        z = rng.standard_normal(d)
        r = np.linalg.norm(z)
        alpha = 0.5 * r
        got = eta_trace(z, alpha, 1, d)
        assert got == pytest.approx(d - alpha * (d - 1) / r, rel=1e-12)


# The threshold kernels as first written, with np.linalg.norm block norms and
# np.where masks over whole (..., n, d) arrays: the oracle for the kernels
# that mask per block.


def eta_oracle(Z, alpha, n, d):
    Zb = Z.reshape(Z.shape[:-1] + (n, d))
    r = np.linalg.norm(Zb, axis=-1, keepdims=True)
    safe = np.where(r > 0, r, 1.0)
    scale = np.maximum(0.0, 1.0 - alpha / safe)
    return (scale * Zb).reshape(Z.shape)


def oracle_norms(Zb, alpha):
    # at alpha = 0 every nonzero block is active, also one whose squared
    # norm underflows, so the derivatives need its true norm there
    if alpha == 0:
        return true_block_norms(Zb)[..., None]
    # otherwise the kernels' block norm: the true norm where the squared
    # norm is subnormal and has lost bits, np.linalg.norm everywhere else
    squares = (Zb * Zb).sum(axis=-1, keepdims=True)
    subnormal = (squares > 0) & (squares < np.finfo(np.float64).tiny)
    return np.where(
        subnormal, true_block_norms(Zb)[..., None], np.linalg.norm(Zb, axis=-1, keepdims=True)
    )


def eta_jvp_oracle(Z, alpha, V, n, d):
    Zb = Z.reshape(Z.shape[:-1] + (n, d))
    Vb = V.reshape(V.shape[:-1] + (n, d))
    r = oracle_norms(Zb, alpha)
    active = r > alpha
    safe = np.where(active, r, 1.0)
    U = np.where(active, Zb / safe, 0.0)
    radial = (U * Vb).sum(axis=-1, keepdims=True)
    out = np.where(active, (1.0 - alpha / safe) * Vb + (alpha / safe) * radial * U, 0.0)
    return out.reshape(Z.shape)


def eta_dalpha_oracle(Z, alpha, n, d):
    Zb = Z.reshape(Z.shape[:-1] + (n, d))
    r = oracle_norms(Zb, alpha)
    active = r > alpha
    safe = np.where(active, r, 1.0)
    return np.where(active, -Zb / safe, 0.0).reshape(Z.shape)


# Entries below about 1e-154 underflow when squared for the block norm; the
# kernels must still kill such a block when its true norm is at most alpha.
_ENTRIES = st.floats(-10.0, 10.0, allow_subnormal=False)


def true_block_norms(Zb):
    """Block norms without underflow: each block scaled by its largest entry."""
    top = np.abs(Zb).max(axis=-1, keepdims=True)
    return top[..., 0] * np.linalg.norm(Zb / np.where(top > 0, top, 1.0), axis=-1)


@st.composite
def threshold_cases(draw):
    """Batched (Z, V, alpha, n, d) with some zero blocks and some blocks whose
    norm equals alpha exactly (alpha times a signed unit vector)."""
    n, d, batch = draw(st.integers(1, 6)), draw(st.integers(1, 5)), draw(st.integers(1, 3))
    alpha = abs(draw(_ENTRIES)) / 2.0
    Zb = draw(arrays(np.float64, (batch, n, d), elements=_ENTRIES))
    V = draw(arrays(np.float64, (batch, n * d), elements=_ENTRIES))
    kinds = draw(st.lists(st.sampled_from(["free", "zero", "kink"]), min_size=batch * n,
                          max_size=batch * n))
    for idx, kind in enumerate(kinds):
        b, i = divmod(idx, n)
        if kind != "free":
            Zb[b, i] = 0.0
        if kind == "kink":
            Zb[b, i, draw(st.integers(0, d - 1))] = draw(st.sampled_from([alpha, -alpha]))
    return Zb.reshape(batch, n * d), V, alpha, n, d


def kink_case(alpha):
    """One d = 1 block on the kink, z = alpha; its squared norm is subnormal
    for the alphas below, and sqrt of it lands just above alpha."""
    return np.array([[alpha]]), np.array([[1.0]]), alpha, 1, 1


class TestKernelsAgainstOracle:
    @given(case=threshold_cases())
    @example(case=kink_case(2.2084486924263783e-162))
    @example(case=kink_case(2.8794e-161))
    # a block whose squared norm underflows, so it is inactive, under the
    # smallest alpha: 1/alpha overflows, and no inf * 0 may give nan
    @example(case=(np.array([[1.4649e-205]]), np.array([[1.0]]), 5e-324, 1, 1))
    @settings(max_examples=300, deadline=None)
    def test_match_oracle_and_zero_side_at_kink(self, case):
        Z, V, alpha, n, d = case
        got = {
            "eta": eta(Z, alpha, n, d),
            "eta_jvp": eta_jvp(Z, alpha, V, n, d),
            "eta_dalpha": eta_dalpha(Z, alpha, n, d),
        }
        want = {
            "eta": eta_oracle(Z, alpha, n, d),
            "eta_jvp": eta_jvp_oracle(Z, alpha, V, n, d),
            "eta_dalpha": eta_dalpha_oracle(Z, alpha, n, d),
        }
        dead = true_block_norms(Z.reshape(Z.shape[0], n, d)) <= alpha
        for name in got:
            assert got[name].shape == Z.shape
            np.testing.assert_allclose(got[name], want[name], rtol=1e-12, atol=1e-12,
                                       err_msg=name)
            blocks = got[name].reshape(Z.shape[0], n, d)
            np.testing.assert_array_equal(blocks[dead], 0.0, err_msg=name)

    def test_zero_threshold_keeps_underflowing_blocks(self):
        # the squared norm of (1e-170, 0) underflows to 0; at alpha = 0 the
        # threshold is the identity on it, and so is its Jacobian
        z = np.array([1e-170, 0.0, 0.0, 0.0])
        v = np.array([1.0, 1.0, 2.0, 3.0])
        np.testing.assert_array_equal(eta(z, 0.0, 2, 2), z)
        np.testing.assert_array_equal(eta_jvp(z[:2], 0.0, v[:2], 1, 2), [1.0, 1.0])
        np.testing.assert_array_equal(eta_dalpha(z[:2], 0.0, 1, 2), [-1.0, 0.0])
        # the zero block keeps the zero side
        np.testing.assert_array_equal(eta_jvp(z, 0.0, v, 2, 2), [1.0, 1.0, 0.0, 0.0])
        np.testing.assert_array_equal(eta_dalpha(z, 0.0, 2, 2), [-1.0, 0.0, 0.0, 0.0])

    def test_trace_counts_only_the_blocks_eta_keeps(self):
        # ||3e-162 * 1_4|| = 6e-162 < alpha, but its squared norm is
        # subnormal and np.linalg.norm puts it just above alpha: eta kills
        # the block, so the Onsager trace must not count it
        z, alpha = np.full(4, 3e-162), 6.1e-162
        np.testing.assert_array_equal(eta(z, alpha, 1, 4), 0.0)
        assert np.linalg.norm(z) > alpha
        assert eta_trace(z, alpha, 1, 4) == 0.0
        # at alpha = 0 eta keeps a block whose squared norm underflows
        tiny = np.array([1e-170, 0.0, 0.0, 0.0])
        assert eta_trace(tiny, 0.0, 2, 2) == 2.0

    def test_kink_block_takes_zero_side(self):
        # ||(3, 4)|| = 5 exactly, so alpha = 5 sits on the kink
        z = np.array([3.0, 4.0, 0.3, 0.4])
        v = np.array([1.0, -2.0, 0.5, 0.5])
        np.testing.assert_array_equal(eta(z, 5.0, 2, 2), 0.0)
        np.testing.assert_array_equal(eta_jvp(z, 5.0, v, 2, 2), 0.0)
        np.testing.assert_array_equal(eta_dalpha(z, 5.0, 2, 2), 0.0)


# The kernels with every per-block sum an einsum over the block axis and
# every per-block scaling one broadcast product, as they run above
# ``operators._PLANE_MAX_D``: the oracle of the coordinate-plane form below it.

_TINY = np.finfo(np.float64).tiny


def einsum_block_norms(Zb):
    squares = np.einsum("...i,...i->...", Zb, Zb)[..., None]
    norms = np.sqrt(squares)
    subnormal = (squares > 0) & (squares < _TINY)
    if subnormal.any():
        norms[subnormal] = einsum_scaled_block_norms(Zb)[subnormal]
    return norms


def einsum_scaled_block_norms(Zb):
    top = np.abs(Zb).max(axis=-1, keepdims=True)
    return top * einsum_block_norms(Zb / np.where(top > 0, top, 1.0))


def einsum_eta(Z, alpha, n, d):
    if alpha == 0.0:
        return Z.copy()
    Zb = Z.reshape(Z.shape[:-1] + (n, d))
    r = einsum_block_norms(Zb)
    return ((1.0 - alpha / np.maximum(r, alpha)) * Zb).reshape(Z.shape)


def einsum_eta_jvp(Z, alpha, V, n, d):
    Zb = Z.reshape(Z.shape[:-1] + (n, d))
    Vb = V.reshape(V.shape[:-1] + (n, d))
    if alpha == 0.0:
        return np.where(einsum_scaled_block_norms(Zb) > 0, Vb, 0.0).reshape(Z.shape)
    r = einsum_block_norms(Zb)
    m = np.maximum(r, alpha)
    ratio = alpha / m
    radial = np.einsum("...i,...i->...", Zb, Vb)[..., None] * (r > alpha) / m
    return ((1.0 - ratio) * Vb + (ratio * radial / m) * Zb).reshape(Z.shape)


def einsum_eta_dalpha(Z, alpha, n, d):
    Zb = Z.reshape(Z.shape[:-1] + (n, d))
    if alpha == 0.0:
        r = einsum_scaled_block_norms(Zb)
        coef = np.where(r > 0, -1.0 / np.where(r > 0, r, 1.0), 0.0)
    else:
        r = einsum_block_norms(Zb)
        coef = (r > alpha) / -np.maximum(r, alpha)
    return (coef * Zb).reshape(Z.shape)


def library_kernels(Z, alpha, V, n, d):
    return {
        "_block_norms": _block_norms(Z.reshape(Z.shape[:-1] + (n, d))),
        "eta": eta(Z, alpha, n, d),
        "eta_jvp": eta_jvp(Z, alpha, V, n, d),
        "eta_dalpha": eta_dalpha(Z, alpha, n, d),
    }


def einsum_kernels(Z, alpha, V, n, d):
    return {
        "_block_norms": einsum_block_norms(Z.reshape(Z.shape[:-1] + (n, d)))[..., 0],
        "eta": einsum_eta(Z, alpha, n, d),
        "eta_jvp": einsum_eta_jvp(Z, alpha, V, n, d),
        "eta_dalpha": einsum_eta_dalpha(Z, alpha, n, d),
    }


@st.composite
def plane_cases(draw):
    """Batched (Z, V, alpha, n, d) for d = 1 to 9, with zero blocks, blocks
    whose squared norm is subnormal or underflows to 0, blocks on the kink,
    and alpha = 0."""
    n, d, batch = draw(st.integers(1, 4)), draw(st.integers(1, 9)), draw(st.integers(1, 3))
    alpha = draw(st.just(0.0) | _ENTRIES.map(lambda x: abs(x) / 2.0))
    Zb = draw(arrays(np.float64, (batch, n, d), elements=_ENTRIES))
    V = draw(arrays(np.float64, (batch, n * d), elements=_ENTRIES))
    kinds = draw(st.lists(st.sampled_from(["free", "zero", "subnormal", "kink"]),
                          min_size=batch * n, max_size=batch * n))
    for idx, kind in enumerate(kinds):
        b, i = divmod(idx, n)
        if kind == "subnormal":
            Zb[b, i] *= 1e-160
        elif kind != "free":
            Zb[b, i] = 0.0
        if kind == "kink":
            Zb[b, i, draw(st.integers(0, d - 1))] = draw(st.sampled_from([alpha, -alpha]))
    return Zb.reshape(batch, n * d), V, alpha, n, d


class TestCoordinatePlanes:
    """Up to operators._PLANE_MAX_D the kernels sum and scale blocks one
    coordinate plane at a time, in the order of einsum's sum; above it they
    run the einsum form.  On both sides of the cutoff they give its bits."""

    @given(case=plane_cases())
    @example(case=(np.full((1, 3), 3e-162), np.ones((1, 3)), 1e-162, 1, 3))
    @example(case=(np.array([[1.2, -1.6, 0.0]]), np.ones((1, 3)), 2.0, 1, 3))
    @settings(max_examples=300, deadline=None)
    def test_match_the_einsum_form(self, case):
        Z, V, alpha, n, d = case
        got = library_kernels(Z, alpha, V, n, d)
        want = einsum_kernels(Z, alpha, V, n, d)
        for name in got:
            assert got[name].shape == want[name].shape, name
            np.testing.assert_array_equal(got[name], want[name], err_msg=name)

    @pytest.mark.parametrize("d", range(1, 10))
    def test_overflow_warns_no_more_than_the_einsum_form(self, d):
        # squares of 1e200 overflow, and +inf + -inf is nan: einsum warns of
        # neither, so the plane sums must not either
        rng = np.random.default_rng(d)
        Z = np.full((2, 3 * d), 1e200) * rng.choice([-1.0, 1.0], (2, 3 * d))
        V = np.full((2, 3 * d), 1e200) * rng.choice([-1.0, 1.0], (2, 3 * d))
        Z[0, :d] = 1.0
        raised = []
        for kernels in (library_kernels, einsum_kernels):
            with warnings.catch_warnings(record=True) as caught, np.errstate(all="warn"):
                warnings.simplefilter("always")
                kernels(Z, 0.5, V, 3, d)
            raised.append({(w.category, str(w.message)) for w in caught})
        got, want = raised
        assert got <= want
