import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from blockunfold.blockcore import BlockVector, l21_norm
from blockunfold.operators import (
    block_soft_threshold,
    eta,
    eta_dalpha,
    eta_jvp,
    onsager_trace,
    threshold_dalpha,
    threshold_jvp,
    threshold_vjp,
)


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


class TestBlockSoftThreshold:
    def test_zero_threshold_is_identity(self, rng):
        z = BlockVector(rng.standard_normal(8), 4, 2)
        out = block_soft_threshold(z, 0.0)
        np.testing.assert_array_equal(out.output.data, z.data)

    def test_direct_evaluation(self):
        z = BlockVector(np.array([1.2, 1.6]), 1, 2)
        out = block_soft_threshold(z, 0.5)
        np.testing.assert_allclose(out.output.data, [0.9, 1.2], atol=1e-15)
        assert out.block_norms[0] == pytest.approx(2.0)
        assert out.active[0]

    def test_subthreshold_block_killed(self):
        z = BlockVector(np.array([0.4, 0.0]), 1, 2)
        out = block_soft_threshold(z, 0.5)
        np.testing.assert_array_equal(out.output.data, [0.0, 0.0])
        assert not out.active[0]

    def test_negative_threshold_rejected(self, rng):
        z = BlockVector(rng.standard_normal(4), 2, 2)
        with pytest.raises(ValueError):
            block_soft_threshold(z, -0.1)

    def test_report_consistency(self, rng):
        z = BlockVector(rng.standard_normal(12), 4, 3)
        out = block_soft_threshold(z, 0.7)
        for i in range(4):
            assert out.active[i] == (out.block_norms[i] > 0.7)
            if not out.active[i]:
                np.testing.assert_array_equal(out.output.block(i), 0.0)

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
        z = BlockVector(np.array([0.8, -0.5]), 2, 1)
        alpha = 0.3
        out = block_soft_threshold(z, alpha).output.data
        grid = np.linspace(-2.0, 2.0, 401)
        best, best_val = None, np.inf
        for u0 in grid:
            for u1 in grid:
                u = np.array([u0, u1])
                val = 0.5 * np.sum((u - z.data) ** 2) + alpha * l21_norm(
                    BlockVector(u, 2, 1)
                )
                if val < best_val:
                    best, best_val = u, val
        np.testing.assert_allclose(out, best, atol=2e-2)
        prox_val = 0.5 * np.sum((out - z.data) ** 2) + alpha * l21_norm(
            BlockVector(out, 2, 1)
        )
        assert prox_val <= best_val + 1e-12


class TestThresholdJacobian:
    def test_zero_threshold_identity_jacobian(self, rng):
        z = BlockVector(rng.standard_normal(8), 4, 2)
        v = BlockVector(rng.standard_normal(8), 4, 2)
        np.testing.assert_array_equal(threshold_jvp(z, 0.0, v).data, v.data)

    def test_inactive_block_zero(self, rng):
        z = BlockVector(np.array([0.1, 0.1, 2.0, 0.0]), 2, 2)
        v = BlockVector(rng.standard_normal(4), 2, 2)
        out = threshold_jvp(z, 0.5, v)
        np.testing.assert_array_equal(out.block(0), 0.0)

    def test_matches_finite_differences(self, rng):
        n, d = 5, 3
        for _ in range(10):
            z = rng.standard_normal(n * d)
            v = rng.standard_normal(n * d)
            alpha = 0.6
            # keep away from kinks so the finite difference is clean
            if np.min(np.abs(np.linalg.norm(z.reshape(n, d), axis=1) - alpha)) < 1e-3:
                continue
            got = threshold_jvp(BlockVector(z, n, d), alpha, BlockVector(v, n, d)).data
            want = fd_jvp(z, alpha, v, n, d)
            assert np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-12) < 1e-5

    def test_vjp_is_jvp(self, rng):
        z = BlockVector(rng.standard_normal(6), 2, 3)
        v = BlockVector(rng.standard_normal(6), 2, 3)
        np.testing.assert_array_equal(
            threshold_jvp(z, 0.4, v).data, threshold_vjp(z, 0.4, v).data
        )

    def test_dalpha_direction(self, rng):
        z = BlockVector(np.array([3.0, 4.0, 0.1, 0.0]), 2, 2)
        out = threshold_dalpha(z, 1.0)
        np.testing.assert_allclose(out.block(0), [-0.6, -0.8], atol=1e-15)
        np.testing.assert_array_equal(out.block(1), 0.0)

    def test_dalpha_matches_finite_differences(self, rng):
        n, d = 4, 2
        z = rng.standard_normal(n * d)
        alpha, h = 0.5, 1e-6
        want = (eta(z, alpha + h, n, d) - eta(z, alpha - h, n, d)) / (2 * h)
        got = threshold_dalpha(BlockVector(z, n, d), alpha).data
        np.testing.assert_allclose(got, want, atol=1e-8)


class TestOnsagerTrace:
    def test_zero_input(self):
        assert onsager_trace(BlockVector.zeros(4, 3), 0.5, 6) == 0.0

    def test_full_identity_trace(self, rng):
        z = BlockVector(rng.standard_normal(12) + 3.0, 4, 3)
        assert onsager_trace(z, 0.0, 8) == pytest.approx(12 / 8, rel=1e-14)

    def test_d1_trace_contribution_is_one(self):
        z = BlockVector(np.array([2.0, 0.1]), 2, 1)
        # one active block at d=1 contributes exactly 1 to the raw trace
        assert onsager_trace(z, 0.5, 1) == pytest.approx(1.0, rel=1e-14)

    def test_matches_numerical_divergence(self, rng):
        n, d, n_y = 5, 3, 9
        for _ in range(5):
            z = rng.standard_normal(n * d)
            alpha = 0.4
            if np.min(np.abs(np.linalg.norm(z.reshape(n, d), axis=1) - alpha)) < 1e-3:
                continue
            got = onsager_trace(BlockVector(z, n, d), alpha, n_y)
            want = fd_divergence(z, alpha, n, d) / n_y
            assert abs(got - want) / max(abs(want), 1e-12) < 1e-5

    def test_analytic_block_trace(self, rng):
        # per active block the trace contribution is d - alpha (d-1) / r
        d = 4
        z = rng.standard_normal(d)
        r = np.linalg.norm(z)
        alpha = 0.5 * r
        got = onsager_trace(BlockVector(z, 1, d), alpha, 1)
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
    return np.linalg.norm(Zb, axis=-1, keepdims=True)


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


class TestKernelsAgainstOracle:
    @given(case=threshold_cases())
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

    def test_kink_block_takes_zero_side(self):
        # ||(3, 4)|| = 5 exactly, so alpha = 5 sits on the kink
        z = np.array([3.0, 4.0, 0.3, 0.4])
        v = np.array([1.0, -2.0, 0.5, 0.5])
        np.testing.assert_array_equal(eta(z, 5.0, 2, 2), 0.0)
        np.testing.assert_array_equal(eta_jvp(z, 5.0, v, 2, 2), 0.0)
        np.testing.assert_array_equal(eta_dalpha(z, 5.0, 2, 2), 0.0)
