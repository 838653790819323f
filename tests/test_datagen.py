import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockunfold.blockcore import ORTHONORMAL_TOL, BlockDictionary, kron_lift, load_matrix
from blockunfold.datagen import (
    _REJECTION_CAP,
    _STREAM_SIGNAL,
    Scenario,
    ScenarioConfig,
    _draw_signal,
    build_problem,
    gen_circulant_K,
    gen_gaussian_K,
    gen_signal_batch,
    load_dataset,
    load_split,
    noise_sigma,
    sample_signal_class,
    save_dataset,
)


def gaussian_cfg(**kw):
    base = dict(scenario=Scenario.GAUSSIAN, m=4, n=16, d=2, pnz=0.1, seed=0)
    base.update(kw)
    return ScenarioConfig(**base)


class TestGaussianMatrix:
    def test_unit_columns(self):
        K = gen_gaussian_K(8, 20, seed=3)
        np.testing.assert_allclose(np.linalg.norm(K, axis=0), 1.0, atol=1e-12)

    def test_lift_has_orthonormal_blocks(self):
        K = gen_gaussian_K(8, 20, seed=3)
        D = kron_lift(K, 3)
        assert D.max_block_gram_residual() <= ORTHONORMAL_TOL

    def test_deterministic(self):
        np.testing.assert_array_equal(
            gen_gaussian_K(5, 9, seed=7), gen_gaussian_K(5, 9, seed=7)
        )


class TestCirculantMatrix:
    def test_full_rank(self):
        k, K, rank = gen_circulant_K(16, 16, seed=1)
        assert rank == 16
        assert np.all(np.abs(np.fft.fft(k)) > 1e-12)

    def test_prescribed_rank(self):
        k, K, rank = gen_circulant_K(128, 32, seed=2)
        assert rank == 32
        sv = np.linalg.svd(K, compute_uv=False)
        assert int((sv > 1e-10 * sv[0]).sum()) == 32

    def test_kernel_is_real_from_hermitian_spectrum(self):
        k, K, rank = gen_circulant_K(32, 10, seed=5)
        spec = np.fft.fft(k)
        np.testing.assert_allclose(spec[1:], np.conj(spec[1:][::-1]), atol=1e-12)

    def test_columns_are_cyclic_shifts(self):
        k, K, rank = gen_circulant_K(12, 6, seed=4)
        for i in range(12):
            np.testing.assert_allclose(K[:, i], np.roll(k, i), atol=0)

    def test_unit_norm_columns_preserve_structure(self):
        # normalization rescales by one global constant, keeping K circulant
        k, K, rank = gen_circulant_K(16, 8, seed=6)
        np.testing.assert_allclose(np.linalg.norm(K, axis=0), 1.0, atol=1e-12)

    def test_odd_parity_falls_back_to_nearest_rank(self):
        # n even, odd number of zeros needed: the self-paired bins absorb it
        k, K, rank = gen_circulant_K(16, 9, seed=3)
        assert rank in (8, 9, 10)
        sv = np.linalg.svd(K, compute_uv=False)
        assert int((sv > 1e-10 * sv[0]).sum()) == rank


def reference_rows(cfg, D, draws):
    """The per-row generator the batched one replaced: ``draws`` holds each
    row's signal and the generator it came from, which then draws that
    row's noise, and ``y = D.data @ x (+ sigma e)`` one row at a time."""
    sigma = noise_sigma(cfg)
    X, Y = np.empty((len(draws), cfg.n_x)), np.empty((len(draws), cfg.n_y))
    for row, (x, rng) in enumerate(draws):
        y = D.data @ x
        if sigma > 0.0:
            y = y + sigma * rng.standard_normal(cfg.n_y)
        X[row], Y[row] = x, y
    return X, Y


def reference_batch(cfg, D, count, start_index=0):
    rngs = (
        np.random.default_rng([cfg.seed, _STREAM_SIGNAL, start_index + row])
        for row in range(count)
    )
    return reference_rows(cfg, D, [(_draw_signal(rng, cfg), rng) for rng in rngs])


def reference_class(cfg, D, s, count):
    def accepted(row):
        for attempt in range(_REJECTION_CAP):
            rng = np.random.default_rng([cfg.seed, _STREAM_SIGNAL, row, attempt])
            x = _draw_signal(rng, cfg)
            if np.count_nonzero(np.linalg.norm(x.reshape(cfg.n, cfg.d), axis=1)) <= s:
                return x, rng
        raise AssertionError("reference rejection sampling failed")

    return reference_rows(cfg, D, [accepted(row) for row in range(count)])


def assert_matches_reference(got, want):
    """X bit-identical; every row of Y within 1e-14 of the reference's norm."""
    (X, Y), (X_ref, Y_ref) = got, want
    np.testing.assert_array_equal(X, X_ref)
    assert Y.shape == Y_ref.shape
    err = np.linalg.norm(Y - Y_ref, axis=1)
    assert np.all(err <= 1e-14 * np.linalg.norm(Y_ref, axis=1))


BASE_PRODUCT_CASES = {
    "gaussian_snr30": gaussian_cfg(m=6, n=20, d=3, pnz=0.3, snr_db=30.0, seed=4),
    "gaussian_exact": gaussian_cfg(m=6, n=20, d=3, pnz=0.3, seed=4),
    "circulant": ScenarioConfig(
        scenario=Scenario.CIRCULANT, m=16, n=16, d=4, pnz=0.3, snr_db=20.0, rank=8, seed=5
    ),
    "d1": gaussian_cfg(m=6, n=20, d=1, pnz=0.3, snr_db=30.0, seed=6),
}


class TestSignals:
    def test_pnz_zero_gives_zero_signal(self):
        # the noise variance is proportional to pnz, so y is pure (zero
        # variance) noise when no block can activate
        cfg = gaussian_cfg(pnz=0.0, snr_db=10.0)
        problem = build_problem(cfg)
        X, Y = gen_signal_batch(cfg, problem.D, 8)
        np.testing.assert_array_equal(X, 0.0)
        np.testing.assert_array_equal(Y, 0.0)
        assert noise_sigma(cfg) == 0.0

    def test_infinite_snr_exact_measurements(self):
        cfg = gaussian_cfg(snr_db=np.inf)
        problem = build_problem(cfg)
        X, Y = gen_signal_batch(cfg, problem.D, 8)
        np.testing.assert_allclose(Y, X @ problem.D.data.T, atol=0)

    def test_active_fraction(self):
        cfg = gaussian_cfg(pnz=0.1)
        problem = build_problem(cfg)
        X, _ = gen_signal_batch(cfg, problem.D, 10_000)
        norms = np.linalg.norm(X.reshape(-1, cfg.n, cfg.d), axis=2)
        frac = float((norms > 0).mean())
        assert abs(frac - 0.1) < 0.01

    def test_noise_variance_formula(self):
        cfg = gaussian_cfg(pnz=0.2, snr_db=12.0, n=8, m=4, d=2)
        sigma = noise_sigma(cfg)
        assert sigma == pytest.approx(
            np.sqrt(0.2 * (8 * 2) / (4 * 2) * 10 ** (-1.2)), rel=1e-12
        )
        problem = build_problem(cfg)
        X, Y = gen_signal_batch(cfg, problem.D, 12_500)
        noise = Y - X @ problem.D.data.T
        # 1e5 draws match the formula within 3%
        assert noise.size >= 10**5
        assert abs(noise.var() - sigma**2) / sigma**2 < 0.03

    def test_counter_based_determinism(self):
        # rows drawn from start_index > 0 equal the same rows of a longer
        # batch: X bit for bit, Y up to one product's rounding, since Y is
        # one product of the whole batch
        for cfg in (gaussian_cfg(), *BASE_PRODUCT_CASES.values()):
            problem = build_problem(cfg)
            X1, Y1 = gen_signal_batch(cfg, problem.D, 30)
            assert_matches_reference(
                gen_signal_batch(cfg, problem.D, 12, start_index=18), (X1[18:], Y1[18:])
            )

    def test_rejection_sampler_bounds_support(self):
        cfg = gaussian_cfg(pnz=0.3)
        problem = build_problem(cfg)
        X, Y = sample_signal_class(cfg, problem.D, s=2, count=50)
        norms = np.linalg.norm(X.reshape(-1, cfg.n, cfg.d), axis=2)
        assert np.all((norms > 0).sum(axis=1) <= 2)
        np.testing.assert_allclose(Y, X @ problem.D.data.T, atol=0)


class TestBaseProduct:
    """The measurements of a batch are one product through the base, and
    match the per-row dense products they replaced."""

    @pytest.mark.parametrize("case", sorted(BASE_PRODUCT_CASES))
    def test_batch_matches_per_row_lift(self, case):
        cfg = BASE_PRODUCT_CASES[case]
        D = build_problem(cfg).D
        # the problem holds the m x n base; no dense lift is built
        assert D.kron_base is D.held and D.held.shape == (cfg.m, cfg.n)
        assert vars(D).get("data", D.held) is D.held
        assert_matches_reference(gen_signal_batch(cfg, D, 40, 7), reference_batch(cfg, D, 40, 7))

    @pytest.mark.parametrize("snr_db", [30.0, np.inf])
    def test_dense_dictionary_without_base(self, rng, snr_db):
        cfg = gaussian_cfg(m=6, n=10, d=3, pnz=0.4, snr_db=snr_db, seed=8)
        D = BlockDictionary(rng.standard_normal((cfg.n_y, cfg.n_x)), n=cfg.n, d=cfg.d)
        assert_matches_reference(gen_signal_batch(cfg, D, 25), reference_batch(cfg, D, 25))

    @pytest.mark.parametrize("case", ["gaussian_snr30", "d1"])
    def test_empty_batch(self, case):
        cfg = BASE_PRODUCT_CASES[case]
        D = build_problem(cfg).D
        for X, Y in (gen_signal_batch(cfg, D, 0, 3), sample_signal_class(cfg, D, 2, 0)):
            assert X.shape == (0, cfg.n_x) and Y.shape == (0, cfg.n_y)

    @pytest.mark.parametrize("case", sorted(BASE_PRODUCT_CASES))
    def test_signal_class_matches_per_row_lift(self, case):
        cfg = BASE_PRODUCT_CASES[case]
        D = build_problem(cfg).D
        assert_matches_reference(
            sample_signal_class(cfg, D, 3, 30), reference_class(cfg, D, 3, 30)
        )


class TestDatasetFiles:
    def test_round_trip(self, tmp_path):
        cfg = gaussian_cfg(snr_db=20.0)
        problem = build_problem(cfg)
        splits = {
            "train": gen_signal_batch(cfg, problem.D, 6, 0),
            "val": gen_signal_batch(cfg, problem.D, 4, 6),
            "test": gen_signal_batch(cfg, problem.D, 5, 10),
        }
        save_dataset(tmp_path, cfg, problem, splits)
        cfg2, problem2 = load_dataset(tmp_path)
        splits2 = {split: load_split(tmp_path, split) for split in splits}
        assert cfg2 == cfg
        np.testing.assert_array_equal(problem2.K, problem.K)
        for split in splits:
            np.testing.assert_array_equal(splits2[split][0], splits[split][0])
            np.testing.assert_array_equal(splits2[split][1], splits[split][1])

    def test_circulant_round_trip(self, tmp_path):
        cfg = ScenarioConfig(
            scenario=Scenario.CIRCULANT, m=16, n=16, d=2, pnz=0.2, rank=8, seed=3
        )
        problem = build_problem(cfg)
        splits = {"train": gen_signal_batch(cfg, problem.D, 3, 0)}
        save_dataset(tmp_path, cfg, problem, splits)
        cfg2, problem2 = load_dataset(tmp_path)
        assert problem2.rank == problem.rank
        np.testing.assert_array_equal(problem2.kernel, problem.kernel)

    def test_byte_identical_rewrite(self, tmp_path):
        cfg = gaussian_cfg()
        problem = build_problem(cfg)
        splits = {"train": gen_signal_batch(cfg, problem.D, 4, 0)}
        save_dataset(tmp_path / "a", cfg, problem, splits)
        save_dataset(tmp_path / "b", cfg, problem, splits)
        for name in ("K.npy", "X_train.npy", "Y_train.npy", "manifest.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()


@st.composite
def small_datasets(draw):
    """A scenario of a few blocks and split sizes 0..2 (0 writes no files)."""
    circulant = draw(st.booleans())
    n = draw(st.integers(2, 4))
    cfg = ScenarioConfig(
        scenario=Scenario.CIRCULANT if circulant else Scenario.GAUSSIAN,
        m=n if circulant else draw(st.integers(2, 3)),
        n=n,
        d=draw(st.integers(1, 2)),
        pnz=0.5,
        snr_db=draw(st.sampled_from([np.inf, 20.0])),
        rank=n if circulant else None,
        seed=draw(st.integers(0, 99)),
    )
    counts = {split: draw(st.integers(0, 2)) for split in ("train", "val", "test")}
    return cfg, counts


class TestDatasetLoader:
    @staticmethod
    def _save(tmp_path, cfg, counts):
        problem = build_problem(cfg)
        splits, start = {}, 0
        for split, count in counts.items():
            if count:
                splits[split] = gen_signal_batch(cfg, problem.D, count, start)
                start += count
        save_dataset(tmp_path, cfg, problem, splits)
        return splits

    @staticmethod
    def _load(data, counts):
        """load_dataset, then every split the dataset holds."""
        cfg, problem = load_dataset(data)
        return cfg, problem, {s: load_split(data, s) for s, c in counts.items() if c}

    @given(case=small_datasets())
    @settings(max_examples=8, deadline=None)
    def test_every_truncation_names_the_file(self, tmp_path_factory, case):
        cfg, counts = case
        data = tmp_path_factory.mktemp("data")
        splits = self._save(data, cfg, counts)
        for path in sorted(data.iterdir()):
            full = path.read_bytes()
            for size in range(len(full)):
                path.write_bytes(full[:size])
                # only the final newline gone included: a manifest cut inside
                # its last line may still parse, to other values
                with pytest.raises(ValueError, match=path.name):
                    self._load(data, counts)
            path.write_bytes(full)
        cfg2, _, splits2 = self._load(data, counts)
        assert cfg2 == cfg
        assert splits2.keys() == splits.keys()

    def test_missing_manifest_key_names_the_file(self, tmp_path):
        cfg = gaussian_cfg()
        self._save(tmp_path, cfg, {"train": 2})
        path = tmp_path / "manifest.txt"
        path.write_text(path.read_text().replace("seed = 0\n", ""))
        with pytest.raises(ValueError, match="manifest.txt: missing key 'seed'"):
            load_dataset(tmp_path)

    def test_bad_manifest_value_names_the_line(self, tmp_path):
        cfg = gaussian_cfg()
        self._save(tmp_path, cfg, {"train": 2})
        path = tmp_path / "manifest.txt"
        path.write_text(path.read_text().replace("m = 4", "m = four"))
        with pytest.raises(ValueError, match="manifest.txt:3: bad m value 'four'"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("claimed", [1, 3])
    def test_row_count_must_match_manifest(self, tmp_path, claimed):
        cfg = gaussian_cfg()
        self._save(tmp_path, cfg, {"train": 2})
        path = tmp_path / "manifest.txt"
        path.write_text(path.read_text().replace("n_train = 2", f"n_train = {claimed}"))
        with pytest.raises(ValueError, match=f"X_train.npy: 2 rows, but .*n_train = {claimed}"):
            load_split(tmp_path, "train")

    def test_old_text_dataset_asks_for_gen(self, tmp_path):
        cfg = ScenarioConfig(
            scenario=Scenario.CIRCULANT, m=4, n=4, d=2, pnz=0.5, rank=4, seed=1
        )
        self._save(tmp_path, cfg, {"train": 2})
        # the layout of a dataset written before the .npy files
        for path in sorted(tmp_path.glob("*.npy")):
            A = load_matrix(path)
            rows = [f"{A.shape[0]} {A.shape[1]}"] + [" ".join(map(repr, row)) for row in A.tolist()]
            path.with_suffix(".txt").write_text("\n".join(rows) + "\n", encoding="utf-8")
            path.unlink()
        old = "dataset in the old text format; rerun `blockunfold gen`"
        with pytest.raises(ValueError, match=f"K.txt: {old}"):
            load_dataset(tmp_path)
        with pytest.raises(ValueError, match=f"X_train.txt: {old}"):
            load_split(tmp_path, "train")


class TestValidation:
    def test_pnz_range(self):
        with pytest.raises(ValueError):
            gaussian_cfg(pnz=1.5)

    def test_circulant_needs_rank(self):
        with pytest.raises(ValueError):
            ScenarioConfig(
                scenario=Scenario.CIRCULANT, m=16, n=16, d=2, pnz=0.1, rank=None
            )

    def test_circulant_needs_square(self):
        with pytest.raises(ValueError):
            ScenarioConfig(
                scenario=Scenario.CIRCULANT, m=8, n=16, d=2, pnz=0.1, rank=4
            )
