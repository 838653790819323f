import numpy as np
import pytest

from blockunfold.blockcore import (
    ORTHONORMAL_TOL,
    BlockDictionary,
    _kron_eye,
    block_coherence,
    kron_lift,
    mutual_coherence,
)
from blockunfold.cli import read_config
from blockunfold.datagen import build_problem
from blockunfold.weights import (
    _assemble,
    circulant,
    circulant_dual_kernel,
    circulant_weights_fft,
    closed_form_weights,
    kkt_weights,
    kron_weights,
    solve_kkt_oracle,
)

from conftest import REPO, random_orthonormal_block_dictionary, unit_column_matrix


def conditioned_dictionary(n_y, n, d, rng, cond_cap=50.0):
    """Orthonormal-block draw with moderate global conditioning.

    The explicit weight formula squares D D^T twice, so ill-conditioned
    draws (cond ~ 100+) lose the 1e-8 agreement with the KKT oracle to
    float64 roundoff; the cap keeps the comparison about the formulas.
    """
    while True:
        D = random_orthonormal_block_dictionary(n_y, n, d, rng)
        if np.linalg.cond(D.data) <= cond_cap:
            return D


def hermitian_kernel(n, zero_bins, rng):
    """Real kernel whose spectrum is zero exactly on the given symmetric bins."""
    spec = np.zeros(n, dtype=complex)
    spec[0] = rng.standard_normal()
    if n % 2 == 0:
        spec[n // 2] = rng.standard_normal()
    for i in range(1, (n + 1) // 2):
        z = rng.standard_normal() + 1j * rng.standard_normal()
        spec[i], spec[n - i] = z, np.conj(z)
    for i in zero_bins:
        spec[i] = 0.0
        spec[n - i] = 0.0
    k = np.fft.ifft(spec).real
    return k / np.linalg.norm(k)


class TestKktOracle:
    def test_orthogonal_square_returns_columns(self, rng):
        Q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        D = BlockDictionary(Q, n=6, d=1)
        assert D.max_block_gram_residual() <= ORTHONORMAL_TOL
        for i in range(6):
            np.testing.assert_allclose(
                solve_kkt_oracle(D, i).ravel(), Q[:, i], atol=1e-9
            )

    def test_satisfies_both_stationarity_rows(self, rng):
        D = random_orthonormal_block_dictionary(12, 6, 2, rng)
        G = 2.0 * D.data @ D.data.T
        for i in range(6):
            Bi = solve_kkt_oracle(D, i)
            # multiplier recovered by least squares from the first row block
            Di = D.block(i)
            lam, *_ = np.linalg.lstsq(Di, -G @ Bi, rcond=None)
            assert np.linalg.norm(G @ Bi + Di @ lam) < 1e-8
            assert np.linalg.norm(Di.T @ Bi - np.eye(2)) < 1e-8

    def test_objective_no_worse_than_dictionary(self, rng):
        D = random_orthonormal_block_dictionary(12, 6, 2, rng)
        w = kkt_weights(D)
        assert (
            np.linalg.norm(w.B.data.T @ D.data) ** 2
            <= np.linalg.norm(D.data.T @ D.data) ** 2 + 1e-9
        )


class TestClosedForm:
    def test_matches_kkt_oracle(self, rng):
        for _ in range(5):
            D = conditioned_dictionary(12, 6, 2, rng)
            Bc = closed_form_weights(D).B.data
            Bk = np.hstack([solve_kkt_oracle(D, i) for i in range(6)])
            rel = np.linalg.norm(Bc - Bk) / np.linalg.norm(Bk)
            assert rel < 1e-8

    def test_matches_kkt_oracle_on_the_circulant_cfg_kernel(self):
        # the rank-24 circulant K of scripts/circulant.cfg: the Gram form
        # keeps B in the range of D D^T, where the KKT oracle's minimum-norm
        # solution lies
        K = build_problem(read_config(REPO / "scripts" / "circulant.cfg").scenario).K
        D = BlockDictionary(K, n=K.shape[1], d=1)
        Bc, Bk = closed_form_weights(D).B.data, kkt_weights(D).B.data
        assert np.linalg.norm(Bc - Bk) <= 1e-13 * np.linalg.norm(Bk)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_ill_conditioned_dictionary_stays_feasible(self, seed):
        # 20 x 40 unit columns, singular values over three decades
        # (cond(D) near 700, so cond(D D^T) near 5e5)
        r = np.random.default_rng(seed)
        U, _ = np.linalg.qr(r.standard_normal((20, 20)))
        V, _ = np.linalg.qr(r.standard_normal((40, 20)))
        K = U @ np.diag(np.logspace(0, -3, 20)) @ V.T
        D = BlockDictionary(K / np.linalg.norm(K, axis=0), n=40, d=1)
        Bc, Bk = closed_form_weights(D).B.data, kkt_weights(D).B.data
        assert np.linalg.norm(Bc - Bk) <= 1e-10 * np.linalg.norm(Bk)

    def test_feasibility(self, rng):
        D = conditioned_dictionary(12, 6, 2, rng)
        w = closed_form_weights(D)
        assert w.feasibility_residual <= 1e-8
        for i in range(6):
            np.testing.assert_allclose(
                w.B.block(i).T @ D.block(i), np.eye(2), atol=1e-8
            )

    def test_local_optimality_probe(self, rng):
        # random feasible perturbations, re-projected onto the constraint,
        # never beat the closed form on the surrogate objective
        D = conditioned_dictionary(12, 6, 2, rng)
        w = closed_form_weights(D)
        base = np.linalg.norm(w.B.data.T @ D.data) ** 2
        for _ in range(100):
            P = w.B.data + 0.1 * rng.standard_normal(w.B.data.shape)
            for i in range(6):
                Di = D.block(i)
                Pi = P[:, 2 * i : 2 * i + 2]
                Pi += Di @ np.linalg.solve(Di.T @ Di, np.eye(2) - Di.T @ Pi)
                np.testing.assert_allclose(Pi.T @ Di, np.eye(2), atol=1e-8)
            assert np.linalg.norm(P.T @ D.data) ** 2 >= base - 1e-8

    def test_requires_orthonormal_blocks(self, rng):
        D = BlockDictionary(2.0 * rng.standard_normal((8, 8)), n=4, d=2)
        with pytest.raises(ValueError, match="orthonormal"):
            closed_form_weights(D)

    def test_cross_coherence_near_zero_for_square_dictionary(self, rng):
        # a full-rank square dictionary admits B with B^T D = I exactly
        for seed in range(10):
            r = np.random.default_rng(seed)
            D = conditioned_dictionary(12, 6, 2, r)
            w = closed_form_weights(D)
            assert w.cross_coherence <= 1e-6
            assert w.cross_coherence <= block_coherence(D) + 1e-8


class TestKroneckerReduction:
    def test_d1_returns_base(self, rng):
        K = unit_column_matrix(6, 10, rng)
        base = closed_form_weights(BlockDictionary(K, n=10, d=1))
        assert kron_weights(K, 1, base) is base

    def test_matches_dense_lifted_solve(self, rng):
        # direct lifted-solve oracle at (m, n, d) = (6, 10, 3)
        K = unit_column_matrix(6, 10, rng)
        base = closed_form_weights(BlockDictionary(K, n=10, d=1))
        lifted = kron_weights(K, 3, base)
        dense = closed_form_weights(kron_lift(K, 3))
        rel = np.linalg.norm(lifted.B.data - dense.B.data) / np.linalg.norm(dense.B.data)
        assert rel < 1e-6

    def test_cross_coherence_scaling(self, rng):
        K = unit_column_matrix(6, 10, rng)
        base = closed_form_weights(BlockDictionary(K, n=10, d=1))
        lifted = kron_weights(K, 3, base)
        assert lifted.cross_coherence == pytest.approx(base.cross_coherence / 3, abs=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 5])
    @pytest.mark.parametrize("unit", [True, False])
    def test_certificates_match_the_dense_assembly(self, rng, d, unit):
        # the lift is held as its base, with residual and coherence from
        # W^T K; the reference assembles the dense W (x) I_d against the lift
        K = unit_column_matrix(6, 10, rng)
        if not unit:
            K = K * rng.uniform(0.5, 2.0, 10)
        R = rng.standard_normal((6, 10))
        # w_i^T k_i = 1 + up to 1e-10: feasible, with residuals to compare
        W = R * (1.0 + 1e-10 * rng.random(10)) / np.einsum("ij,ij->j", R, K)
        base = _assemble(W, BlockDictionary(K, n=10, d=1))
        lifted = kron_weights(K, d, base)
        dense = _assemble(_kron_eye(W, d), kron_lift(K, d))
        assert lifted.B.held.shape == (6, 10)
        np.testing.assert_array_equal(lifted.B.data, dense.B.data)
        assert lifted.feasibility_residual == pytest.approx(dense.feasibility_residual, rel=1e-5)
        assert lifted.cross_coherence == pytest.approx(dense.cross_coherence, rel=1e-12)

    def test_infeasible_base_rejected(self, rng):
        K = unit_column_matrix(6, 10, rng)
        base = closed_form_weights(BlockDictionary(K, n=10, d=1))
        K2 = unit_column_matrix(6, 10, np.random.default_rng(99))
        with pytest.raises(ValueError, match="infeasible"):
            kron_weights(K2, 3, base)


class TestCirculant:
    def test_unit_impulse(self):
        e = np.zeros(8)
        e[0] = 1.0
        w = circulant_weights_fft(e)
        np.testing.assert_allclose(w.B.data, np.eye(8), atol=1e-12)
        np.testing.assert_allclose(w.kernel, e, atol=1e-12)
        assert w.rank == 8

    def test_full_rank_inverse_and_kkt(self, rng):
        n = 16
        k = rng.standard_normal(n)
        k /= np.linalg.norm(k)
        w = circulant_weights_fft(k)
        K, B = circulant(k), w.B.data
        assert w.rank == n
        assert np.abs(B.T @ K - np.eye(n)).max() < 1e-8
        # stationarity with a single multiplier, per-column
        lams = np.array(
            [-2.0 * K[:, i] @ K @ K.T @ B[:, i] / (K[:, i] @ K[:, i]) for i in range(n)]
        )
        assert lams.max() - lams.min() < 1e-10
        resid = 2.0 * K @ K.T @ w.kernel + lams[0] * k
        assert np.abs(resid).max() < 1e-8

    def test_rank_deficient_scaling(self, rng):
        n = 16
        k = hermitian_kernel(n, zero_bins=(3, 5), rng=rng)
        b_raw, rank = circulant_dual_kernel(k)
        assert rank == 12
        assert b_raw @ k == pytest.approx(0.75, abs=1e-12)
        w = circulant_weights_fft(k)
        assert w.kernel @ k == pytest.approx(1.0, abs=1e-12)
        assert w.feasibility_residual <= 1e-8

    def test_zero_kernel_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            circulant_weights_fft(np.zeros(8))

    def test_matches_closed_form_full_rank(self, rng):
        n = 12
        k = rng.standard_normal(n)
        k /= np.linalg.norm(k)
        w_fft = circulant_weights_fft(k)
        w_cf = closed_form_weights(BlockDictionary(circulant(k), n=n, d=1))
        rel = np.linalg.norm(w_fft.B.data - w_cf.B.data) / np.linalg.norm(w_cf.B.data)
        assert rel < 1e-6


class TestUpperBoundObjective:
    def test_closed_form_no_worse_than_dictionary(self, rng):
        # the surrogate (1/d) ||B^T D||_F^2 the weights minimize, against
        # the feasible point B = D
        D = random_orthonormal_block_dictionary(12, 6, 2, rng)
        w = closed_form_weights(D)
        assert (
            np.linalg.norm(w.B.data.T @ D.data) ** 2
            <= np.linalg.norm(D.data.T @ D.data) ** 2 + 1e-9
        )


class TestWeightInvariants:
    def test_feasibility_and_coherence_chain_all_methods(self, rng):
        # chain with the infimum estimator min(mu_cross(B,D), mu_b(D)):
        # every feasible point upper-bounds the generalized coherence
        K = unit_column_matrix(8, 12, rng)
        Kd = BlockDictionary(K, n=12, d=1)
        mu_d = block_coherence(Kd)
        for w in (closed_form_weights(Kd), kkt_weights(Kd)):
            assert w.feasibility_residual <= 1e-8
            mu_tilde = min(w.cross_coherence, mu_d)
            assert 0.0 <= mu_tilde <= mu_d <= mutual_coherence(K) + 1e-12 <= 1.0 + 1e-12
        k = np.random.default_rng(5).standard_normal(12)
        k /= np.linalg.norm(k)
        w = circulant_weights_fft(k)
        assert w.feasibility_residual <= 1e-8
        Kc = BlockDictionary(circulant(k), n=12, d=1)
        assert w.cross_coherence <= block_coherence(Kc) + 1e-8

    def test_lambda_invariance_is_structural(self, rng):
        # the circulant multiplier is shift-invariant for any kernel length
        for n in (8, 9, 15):
            k = rng.standard_normal(n)
            k /= np.linalg.norm(k)
            w = circulant_weights_fft(k)
            K, B = circulant(k), w.B.data
            lams = [
                -2.0 * K[:, i] @ K @ K.T @ B[:, i] / (K[:, i] @ K[:, i])
                for i in range(n)
            ]
            assert max(lams) - min(lams) < 1e-9
