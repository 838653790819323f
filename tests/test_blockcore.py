import pickle
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from blockunfold.blockcore import (
    BlockDictionary,
    block_coherence,
    cross_block_coherence,
    kron_adjoint,
    kron_apply,
    kron_factor,
    kron_lift,
    load_matrix,
    mutual_coherence,
    save_matrix,
)
from blockunfold.blockcore import (
    MAX_LIFT_ENTRIES,
    ORTHONORMAL_TOL,
    _block_gram_residuals,
    _pairwise_block_spectral_max,
    _read_manifest,
    _write_manifest,
)
from blockunfold.operators import eta
from blockunfold.solvers import lasso_objective

from conftest import first_escape, random_orthonormal_block_dictionary, unit_column_matrix


def l21(x, n, d):
    """The l2,1 norm of a flat block signal, as the objective's penalty term:
    the objective at zero residual with unit weight."""
    D = BlockDictionary(np.eye(n * d), n=n, d=d)
    return lasso_objective(D, x[None], x[None], 1.0)[0]


class TestNormsAndSupport:
    def test_zero_vector(self):
        # no block of a zero signal is active, so it lies inside any support
        x = np.zeros(12)
        assert l21(x, 4, 3) == 0.0
        assert first_escape([x], np.eye(12)[0], 4, 3) == -1

    def test_pythagorean_block(self):
        assert l21(np.array([3.0, 4.0]), 1, 2) == pytest.approx(5.0, abs=1e-15)

    def test_one_active_block(self):
        x = np.array([3.0, 4.0, 0.0, 0.0])
        assert first_escape([x], np.array([1.0, 0.0, 0.0, 0.0]), 2, 2) == -1
        assert first_escape([x], np.array([0.0, 0.0, 1.0, 0.0]), 2, 2) == 0

    def test_l21_is_sum_of_block_norms(self, rng):
        x = rng.standard_normal(12)
        manual = sum(np.linalg.norm(x[3 * i : 3 * i + 3]) for i in range(4))
        assert l21(x, 4, 3) == pytest.approx(manual, rel=1e-14)

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="expected n\\*d = 4"):
            eta(np.zeros(5), 0.1, 2, 2)

    @given(seed=st.integers(0, 10**6), alpha=st.floats(0.0, 5.0))
    @settings(max_examples=50, deadline=None)
    def test_threshold_never_grows_support(self, seed, alpha):
        r = np.random.default_rng(seed)
        x = r.standard_normal(12)
        out = eta(x, alpha, 4, 3)
        assert first_escape([out], x, 4, 3) == -1


class TestCoherence:
    def test_orthogonal_columns(self, rng):
        Q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        D = BlockDictionary(Q, n=6, d=1)
        assert D.max_block_gram_residual() <= ORTHONORMAL_TOL
        assert block_coherence(D) == pytest.approx(0.0, abs=1e-12)

    def test_lifted_coherence_matches_channel_coherence(self, rng):
        # brute-force oracle over all column pairs of K
        m, n, d = 8, 16, 3
        K = unit_column_matrix(m, n, rng)
        brute = max(
            abs(K[:, i] @ K[:, j]) for i in range(n) for j in range(n) if i != j
        )
        D = kron_lift(K, d)
        assert block_coherence(D) == pytest.approx(brute / d, abs=1e-12)

    def test_gaussian_coherence_statistics(self):
        # 32 x 128 unit-column Gaussian, mean coherence over 50 seeds
        values = [
            mutual_coherence(unit_column_matrix(32, 128, np.random.default_rng(s)))
            for s in range(50)
        ]
        assert abs(np.mean(values) - 0.6268) < 0.1

    def test_coherence_chain(self, rng):
        # 0 <= mu_b <= mu <= 1 for orthonormal-block unit-column dictionaries
        for _ in range(10):
            K = unit_column_matrix(8, 16, rng)
            D = kron_lift(K, 2)
            mu_b = block_coherence(D)
            mu = mutual_coherence(D.data)
            assert 0.0 <= mu_b <= mu + 1e-12 <= 1.0 + 1e-12

    @pytest.mark.parametrize("n,d", [(2, 2), (7, 3), (16, 5)])
    def test_block_row_svd_matches_per_pair_norms(self, rng, n, d):
        # the per-pair loop of spectral norms is the reference; one batched
        # SVD per block row runs the same LAPACK routine on the same blocks
        G = rng.standard_normal((n * d, n * d))
        loop = max(
            float(np.linalg.norm(G[i * d : (i + 1) * d, j * d : (j + 1) * d], 2))
            for i in range(n)
            for j in range(n)
            if i != j
        )
        assert _pairwise_block_spectral_max(G, n, d) == loop

    def test_needs_two_blocks(self, rng):
        D = BlockDictionary(rng.standard_normal((4, 2)), n=1, d=2)
        with pytest.raises(ValueError):
            block_coherence(D)

    def test_cross_coherence_infeasible_names_block(self, rng):
        D = random_orthonormal_block_dictionary(8, 4, 2, rng)
        B = BlockDictionary(2.0 * D.data, n=4, d=2)
        with pytest.raises(ValueError, match="block 0"):
            cross_block_coherence(B, D)
        only_third = D.data.copy()
        only_third[:, 4:6] *= 2.0
        with pytest.raises(ValueError, match="block 2: .* = 1.414e\\+00"):
            cross_block_coherence(BlockDictionary(only_third, n=4, d=2), D)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_lift_pair_coherence_matches_the_dense_route(self, rng, d):
        # the same matrices without kron_base take the dense route
        K = unit_column_matrix(10, 14, rng)
        R = rng.standard_normal((10, 14))
        W = R / np.einsum("ij,ij->j", R, K)  # feasible: w_i^T k_i = 1
        B, D = kron_lift(W, d), kron_lift(K, d)
        dense = [BlockDictionary(M.data, n=14, d=d) for M in (B, D)]
        assert cross_block_coherence(B, D) == pytest.approx(
            cross_block_coherence(*dense), rel=1e-12
        )

    @pytest.mark.parametrize("d", [1, 3])
    def test_infeasible_lift_pair_names_the_dense_route_block(self, rng, d):
        K = unit_column_matrix(6, 5, rng)
        W = K.copy()
        W[:, 3] *= 1.5
        W[:, 1] *= 0.5
        B, D = kron_lift(W, d), kron_lift(K, d)
        messages = []
        for pair in ((B, D), [BlockDictionary(M.data, n=5, d=d) for M in (B, D)]):
            with pytest.raises(ValueError, match="infeasible at block 1: ") as info:
                cross_block_coherence(*pair)
            messages.append(str(info.value))
        assert messages[0] == messages[1]

    @pytest.mark.parametrize("d", [1, 3])
    def test_block_gram_residuals_match_per_block_loop(self, rng, d):
        X, Y = rng.standard_normal((2, 7, 4 * d))
        loop = [
            np.linalg.norm(X[:, i * d : (i + 1) * d].T @ Y[:, i * d : (i + 1) * d] - np.eye(d))
            for i in range(4)
        ]
        np.testing.assert_allclose(_block_gram_residuals(X, Y, 4, d), loop, rtol=1e-13)


class TestKroneckerBridge:
    def test_d1_lift_is_identity_operation(self, rng):
        K = rng.standard_normal((3, 5))
        D = kron_lift(K, 1)
        np.testing.assert_array_equal(D.data, K)

    def test_lift_dimensions(self, rng):
        D = kron_lift(rng.standard_normal((3, 4)), 2)
        assert D.data.shape == (6, 8)

    def test_lift_block_structure(self, rng):
        # block i of the lift equals K[:,i] (x) I_d entrywise
        K = rng.standard_normal((3, 4))
        d = 3
        D = kron_lift(K, d)
        for i in range(4):
            np.testing.assert_allclose(D.block(i), np.kron(K[:, [i]], np.eye(d)), atol=0)

    def test_vectorized_model_matches_matrix_product(self, rng):
        # direct matrix-product oracle: Y = K X, no noise
        K = rng.standard_normal((5, 7))
        X = rng.standard_normal((7, 3))
        D = kron_lift(K, 3)
        # row-major flattening of X stacks its rows, one block per coefficient
        lhs = D.data @ X.reshape(-1)
        rhs = (K @ X).reshape(-1)
        assert np.linalg.norm(lhs - rhs) < 1e-12

    def test_lift_entry_cap(self, rng):
        # the lift holds its 100 x 100 base; the cap is checked before the
        # dense data is built, so no array of 100 * 100 * 1001**2 entries
        # is ever allocated
        K = rng.standard_normal((100, 100))
        assert K.size * 1001**2 > MAX_LIFT_ENTRIES
        D = kron_lift(K, 1001)
        assert D.held.shape == (100, 100) and D.n_y == 100_100
        with pytest.raises(ValueError, match="cap"):
            D.data

    def test_lift_input_checks(self, rng):
        with pytest.raises(ValueError, match="2-d"):
            kron_lift(rng.standard_normal(4), 2)
        with pytest.raises(ValueError, match="d must be >= 1"):
            kron_lift(rng.standard_normal((3, 4)), 0)

    def test_orthonormal_flag_tracks_unit_columns(self, rng):
        K = unit_column_matrix(4, 6, rng)
        assert kron_lift(K, 2).max_block_gram_residual() <= ORTHONORMAL_TOL
        assert kron_lift(2.0 * K, 2).max_block_gram_residual() > ORTHONORMAL_TOL

    @pytest.mark.parametrize("d", [1, 2, 5])
    @pytest.mark.parametrize("columns", ["unit", "near_unit", "scaled"])
    def test_gram_residual_and_flag_match_the_dense_route(self, rng, d, columns):
        # a lift's residual sqrt(d) |k_j^T k_j - 1|, taken on the base,
        # against the per-block Gram residuals of its dense data
        K = unit_column_matrix(4, 6, rng)
        if columns == "near_unit":
            K = K * (1.0 + 1e-12 * rng.random(6))  # within ORTHONORMAL_TOL
        elif columns == "scaled":
            K = K * rng.uniform(0.5, 2.0, 6)
        D = kron_lift(K, d)
        dense = _block_gram_residuals(D.data, D.data, 6, d).max()
        assert D.max_block_gram_residual() == pytest.approx(dense, rel=1e-6, abs=1e-14)
        orthonormal = D.max_block_gram_residual() <= ORTHONORMAL_TOL
        assert orthonormal == (dense <= ORTHONORMAL_TOL) == (columns != "scaled")


class TestKronFactor:
    def test_recovers_a_contiguous_copy_of_the_base(self, rng):
        K = rng.standard_normal((3, 5))
        lifted = kron_lift(K, 4).data
        base = kron_factor(lifted, 4)
        np.testing.assert_array_equal(base, K)
        assert base.flags.c_contiguous
        assert not np.shares_memory(base, lifted)

    def test_rejects_one_perturbed_off_diagonal_channel_entry(self, rng):
        M = np.kron(rng.standard_normal((3, 5)), np.eye(3))
        assert kron_factor(M, 3) is not None
        M[0, 1] = 1e-300  # row channel 0, column channel 1 of block (0, 0)
        assert kron_factor(M, 3) is None

    def test_rejects_unequal_channel_slices(self, rng):
        M = np.kron(rng.standard_normal((3, 5)), np.eye(2))
        M[5, 9] += 1e-15  # channel 1 of entry (2, 4)
        assert kron_factor(M, 2) is None

    def test_rejects_a_shape_that_is_not_a_multiple_of_d(self, rng):
        M = np.kron(rng.standard_normal((3, 5)), np.eye(2))
        assert kron_factor(M[:, :-1], 2) is None
        assert kron_factor(M[:-1], 2) is None

    def test_dense_matrix_and_input_checks(self, rng):
        assert kron_factor(rng.standard_normal((6, 4)), 2) is None
        with pytest.raises(ValueError):
            kron_factor(rng.standard_normal(6), 2)
        with pytest.raises(ValueError):
            kron_factor(rng.standard_normal((6, 4)), 0)

    def test_dictionary_keeps_its_factor(self, rng):
        K = rng.standard_normal((3, 5))
        D = kron_lift(K, 2)
        assert D.kron_base is D.kron_base and D.held is D.kron_base
        np.testing.assert_array_equal(D.kron_base, K)
        dense = BlockDictionary(rng.standard_normal((6, 10)), n=5, d=2)
        assert dense.kron_base is None and dense.held is dense.data

    @given(
        m=st.integers(1, 6),
        n=st.integers(1, 6),
        d=st.integers(1, 8),
        batch=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_products_match_the_dense_lift(self, m, n, d, batch, seed):
        if m == n:
            n += 1  # m != n, so a transposed base shows up as a shape error
        rng = np.random.default_rng(seed)
        K = rng.standard_normal((m, n))
        M = kron_lift(K, d).data
        base = kron_factor(M, d)
        assert base is not None
        X = rng.standard_normal((batch, n * d))
        R = rng.standard_normal((batch, m * d))
        np.testing.assert_allclose(kron_apply(X, base), X @ M.T, rtol=0, atol=1e-12)
        np.testing.assert_allclose(kron_adjoint(R, base), R @ M, rtol=0, atol=1e-12)
        # a dense matrix: the dense product itself
        np.testing.assert_array_equal(kron_apply(X, M), X @ M.T)
        np.testing.assert_array_equal(kron_adjoint(R, M), R @ M)

    @pytest.mark.parametrize(
        "m, n, d, batch", [(64, 64, 5, 250), (64, 256, 8, 200)], ids=["circ-desk", "gauss-wide"]
    )
    def test_column_major_base_gives_the_bits_of_a_c_ordered_matmul(self, rng, m, n, d, batch):
        W = rng.standard_normal((m, n))
        X = rng.standard_normal((batch, n * d))
        R = rng.standard_normal((batch, m * d))
        want_apply = np.matmul(W, X.reshape(batch, n, d)).reshape(batch, -1)
        WT = np.ascontiguousarray(W.T)
        want_adjoint = np.matmul(WT, R.reshape(batch, m, d)).reshape(batch, -1)
        np.testing.assert_array_equal(kron_apply(X, W).view(np.uint64), want_apply.view(np.uint64))
        np.testing.assert_array_equal(
            kron_adjoint(R, W).view(np.uint64), want_adjoint.view(np.uint64)
        )


# Finite values of every magnitude, and -0.0, in small matrices.
_MATRICES = st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
    lambda shape: arrays(
        np.float64, shape, elements=st.floats(allow_nan=False, allow_infinity=False)
    )
)


def assert_same_bits(a, b):
    """Equal shapes and bits, signed zeros included."""
    assert a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


class TestMatrixFormat:
    """The ``.npy`` files of datasets, weights and checkpoints
    (``save_matrix``, ``load_matrix``)."""

    def test_round_trip_exact(self, tmp_path, rng):
        A = rng.standard_normal((7, 3)) * 10.0 ** rng.integers(-8, 8, size=(7, 3))
        A[0] = [-0.0, 5e-324, -2.2e-308]
        A[1] = [1e308, -1e308, 1.7976931348623157e308]
        path = tmp_path / "a.npy"
        save_matrix(path, A)
        assert_same_bits(load_matrix(path), A)

    def test_saves_to_exactly_the_path(self, tmp_path):
        path = tmp_path / "m.dat"
        save_matrix(path, np.eye(2))
        assert [p.name for p in tmp_path.iterdir()] == ["m.dat"]
        assert path.read_bytes().startswith(b"\x93NUMPY")
        np.testing.assert_array_equal(load_matrix(path), np.eye(2))

    def test_fortran_ordered_file_loads_c_ordered(self, tmp_path, rng):
        A = np.asfortranarray(rng.standard_normal((3, 4)))
        path = tmp_path / "f.npy"
        with open(path, "wb") as f:
            np.save(f, A)
        loaded = load_matrix(path)
        assert loaded.flags.c_contiguous
        np.testing.assert_array_equal(loaded, A)

    def test_header_and_layout(self, tmp_path):
        path = tmp_path / "m.npy"
        save_matrix(path, np.asfortranarray([[1.0, 2.0], [3.0, 4.0]]))
        with open(path, "rb") as f:
            assert np.lib.format.read_magic(f) == (1, 0)
            shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(f)
            body = f.read()
        assert (shape, fortran_order, dtype) == ((2, 2), False, np.dtype("<f8"))
        # the values follow the header row by row
        assert np.frombuffer(body, dtype="<f8").tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_vector_saved_as_column(self, tmp_path):
        save_matrix(tmp_path / "v.npy", np.array([1.0, 2.0, 3.0]))
        assert load_matrix(tmp_path / "v.npy").shape == (3, 1)

    @given(A=_MATRICES)
    @settings(max_examples=25, deadline=None)
    def test_round_trip_and_every_truncation_names_the_file(self, tmp_path_factory, A):
        tmp = tmp_path_factory.mktemp("matrix")
        path = tmp / "full.npy"
        save_matrix(path, A)
        assert_same_bits(load_matrix(path), A)
        full = path.read_bytes()
        cut_path = tmp / "cut.npy"
        for size in range(len(full)):
            cut_path.write_bytes(full[:size])
            with pytest.raises(ValueError, match="cut.npy"):
                load_matrix(cut_path)

    @pytest.mark.parametrize(
        "kind, message",
        [
            ("pickle", "not a readable .npy matrix"),
            ("object", "not a readable .npy matrix"),
            ("text", "not a readable .npy matrix"),
            ("vector", "holds a 1-d float64 array"),
            ("cube", "holds a 3-d float64 array"),
            ("integer", "holds a 2-d int64 array"),
        ],
    )
    def test_other_files_are_rejected(self, tmp_path, kind, message):
        path = tmp_path / "m.npy"
        with open(path, "wb") as f:
            if kind == "pickle":
                pickle.dump(np.eye(2), f)
            elif kind == "object":
                np.save(f, np.array([[1.0, "a"]], dtype=object), allow_pickle=True)
            elif kind == "text":
                f.write(b"2 2\n1 2\n3 4\n")
            else:
                shapes = {"vector": (3,), "cube": (2, 2, 2), "integer": (2, 2)}
                dtype = np.int64 if kind == "integer" else np.float64
                np.save(f, np.zeros(shapes[kind], dtype=dtype))
        with pytest.raises(ValueError, match=f"m.npy: {message}"):
            load_matrix(path)

    def test_missing_rows_name_the_file(self, tmp_path):
        path = tmp_path / "short.npy"
        save_matrix(path, np.arange(6.0).reshape(3, 2))
        # the header still says 3 rows; the last row's 16 bytes are gone
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(ValueError, match="short.npy: not a readable .npy matrix"):
            load_matrix(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_names_the_line(self, tmp_path, value):
        A = np.arange(6.0).reshape(3, 2)
        A[2, 1] = float(value)
        save_matrix(tmp_path / "m.npy", A)
        with pytest.raises(ValueError, match=rf"m.npy: non-finite value {value} at row 3, column 2"):
            load_matrix(tmp_path / "m.npy")


class TestManifest:
    """The text manifests of datasets and checkpoints (``_write_manifest``,
    ``_read_manifest``)."""

    def test_round_trip(self, tmp_path):
        path = tmp_path / "manifest.txt"
        _write_manifest(path, "run", {"name": "a b", "count": 3, "empty": ""})
        assert path.read_text() == "[run]\nname = a b\ncount = 3\nempty = \n"
        field = _read_manifest(path, "run")
        assert (field("name", str), field("count", int), field("empty", str)) == ("a b", 3, "")

    def test_blank_lines_and_section_headers_are_skipped(self, tmp_path):
        path = tmp_path / "manifest.txt"
        path.write_text("[run]\n\n  \n[more]\n k=v \n")
        assert _read_manifest(path, "run")("k", str) == "v"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", r"m.txt:1: not a run manifest"),
            ("[other]\nk = v\n", r"m.txt:1: not a run manifest"),
            ("[run]\nk = v\njust words\n", r"m.txt:3: expected `key = value`, got 'just words'"),
            ("[run]\n= v\n", r"m.txt:2: expected `key = value`, got '= v'"),
            ("[run]\nk = 1\nj = 2\nk = 3\n", r"m.txt:4: key 'k' repeats line 2"),
            ("[run]\nk = 12", r"m.txt:2: file ends mid-line \(truncated\)"),
            ("[run]\nk = v\n[run", r"m.txt:3: file ends mid-line \(truncated\)"),
        ],
        ids=["empty", "other_section", "no_equals", "no_key", "repeated_key", "cut_value",
             "cut_header"],
    )
    def test_malformed_lines_name_the_line(self, tmp_path, text, message):
        path = tmp_path / "m.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            _read_manifest(path, "run")

    def test_missing_key_names_the_file_and_bad_value_the_line(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("[run]\ncount = three\n")
        field = _read_manifest(path, "run")
        with pytest.raises(ValueError, match="m.txt: missing key 'depth'"):
            field("depth", int)
        with pytest.raises(ValueError, match="m.txt:2: bad count value 'three': invalid literal"):
            field("count", int)

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"[run]\nname = \xff\n", r"m.txt: not UTF-8 text \(invalid start byte at byte 13\)"),
            (
                "[run]\nname = \u00e9\n".encode()[:-2],
                r"m.txt: not UTF-8 text \(unexpected end of data at byte 13\)",
            ),
        ],
        ids=["invalid_byte", "cut_character"],
    )
    def test_non_utf8_file_names_the_file(self, tmp_path, data, message):
        path = tmp_path / "m.txt"
        path.write_bytes(data)
        with pytest.raises(ValueError, match=message):
            _read_manifest(path, "run")


class TestValidation:
    def test_block_accessor_matches_slices(self, rng):
        D = random_orthonormal_block_dictionary(6, 3, 2, rng)
        for i in range(3):
            np.testing.assert_array_equal(D.block(i), D.data[:, 2 * i : 2 * i + 2])

    def test_kron_lift_holds_one_lift(self, rng):
        # the lift holds a copy of its base; its dense data is built on
        # request as one array, and kept
        K = unit_column_matrix(64, 256, rng)
        peaks = []
        tracemalloc.start()
        try:
            D = kron_lift(K, 8)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            data = D.data
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert D.max_block_gram_residual() <= ORTHONORMAL_TOL
        assert "data" in vars(D) and D.data is data
        assert peaks[0] <= 1.1 * K.nbytes + 2**16
        assert peaks[1] <= 1.1 * data.nbytes + K.nbytes
        assert_same_bits(data, np.kron(K, np.eye(8)))
        assert not data.flags.writeable

    def test_threads_sharing_a_lift_get_equal_data(self, rng):
        # threads that ask for a shared lift's data at once may each build
        # it; every one gets the same read-only bits, and one array is kept
        D = kron_lift(rng.standard_normal((8, 16)), 3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as pool:
                results = list(pool.map(lambda _: D.data, range(32), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        for A in results:
            assert_same_bits(A, np.kron(D.held, np.eye(3)))
            assert not A.flags.writeable
        assert any(A is D.data for A in results)

    def test_writable_data_is_copied(self, rng):
        A = rng.standard_normal((4, 6))
        view = A.view()
        view.flags.writeable = False
        for data in (A, view):
            D = BlockDictionary(data, n=3, d=2)
            assert not np.shares_memory(D.data, A)
        A[0, 0] = 99.0
        assert D.data[0, 0] != 99.0

    def test_immutability(self, rng):
        # the cached ||D||_2 relies on a dictionary's data never changing
        D = random_orthonormal_block_dictionary(6, 3, 2, rng)
        with pytest.raises(ValueError):
            D.data[0, 0] = 1.0
