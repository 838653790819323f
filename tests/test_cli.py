import logging
import math
import re
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

import blockunfold
from blockunfold import cli, solvers, unfolding, verify
from blockunfold.blockcore import load_matrix, save_matrix
from blockunfold.cli import main, read_config
from blockunfold.datagen import Scenario, noise_sigma
from blockunfold.unfolding import NetworkVariant

from conftest import load_benchmark_tracer, per_layer_functions

REPO = Path(__file__).resolve().parents[1]

TINY_CFG = """
[scenario]
kind = gaussian
m = 6
n = 12
d = 2
pnz = 0.15
snr_db = inf
seed = 3
n_train = 60
n_validation = 20
n_test = 25

[network]
variant = albista
depth = 4

[weights]
method = closed_form

[training]
learning_rate = 0.02
tol = 1e-5
patience = 5
eval_every = 5
batch_size = 20
max_iters_per_layer = 60
"""

COMPLIANT_CFG = """
[scenario]
kind = gaussian
m = 28
n = 32
d = 2
pnz = 0.02
snr_db = inf
seed = 2
n_train = 10
n_validation = 5
n_test = 40

[network]
variant = albista
depth = 8

[weights]
method = closed_form
"""

CIRCULANT_CFG = """
[scenario]
kind = circulant
m = 16
n = 16
d = 2
pnz = 0.1
snr_db = 20
rank = 16
seed = 5
n_train = 12
n_validation = 6
n_test = 10

[network]
variant = albista
depth = 3

[weights]
method = circulant_fft

[training]
learning_rate = 0.02
patience = 3
eval_every = 5
batch_size = 6
max_iters_per_layer = 20
"""


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_eval_curves(path):
    curves = {}
    for line in path.read_text().splitlines()[2:]:
        name, layer, value = line.split(",")
        curves.setdefault(name, {})[int(layer)] = float(value)
    return curves


class TestPipeline:
    def test_full_pipeline_outputs(self, tmp_path):
        cfg = write_cfg(tmp_path, TINY_CFG)
        out = tmp_path / "run"
        assert main(["all", "--config", cfg, "--out", str(out)]) == 0
        for name in (
            "data/manifest.txt",
            "data/K.npy",
            "data/X_train.npy",
            "weights/B_base.npy",
            "weights/B_base.meta",
            "checkpoint.txt",
            "checkpoint.alphas.npy",
            "checkpoint.gammas.npy",
            "checkpoint.D.npy",
            "checkpoint.B.npy",
            "history.csv",
            "eval.csv",
            "verify.csv",
        ):
            assert (out / name).exists(), name
        # schema strings lead every CSV
        for name in ("history.csv", "eval.csv", "verify.csv"):
            first = (out / name).read_text().splitlines()[0]
            assert first.startswith("# blockunfold-csv v1")

    def test_manifest_echoes_dimensions(self, tmp_path):
        cfg = write_cfg(tmp_path, TINY_CFG)
        out = tmp_path / "run"
        assert main(["gen", "--config", cfg, "--out", str(out)]) == 0
        manifest = (out / "data" / "manifest.txt").read_text()
        for line in ("m = 6", "n = 12", "d = 2", "seed = 3"):
            assert line in manifest

    def test_allocator_policy_is_logged(self, tmp_path, caplog):
        cfg = write_cfg(tmp_path, TINY_CFG)
        with caplog.at_level(logging.INFO, logger="blockunfold"):
            assert main(["gen", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
        outcome, detail = blockunfold.ALLOCATOR_POLICY
        assert outcome in ("applied", "skipped", "unavailable")
        assert f"allocator policy {outcome}: {detail}" in caplog.messages
        if outcome == "applied":
            assert "mallopt(M_MMAP_THRESHOLD, 33554432) = " in detail

    def test_trained_below_untrained_at_final_layer(self, tmp_path):
        cfg = write_cfg(tmp_path, TINY_CFG)
        out = tmp_path / "run"
        assert main(["all", "--config", cfg, "--out", str(out)]) == 0
        curves = read_eval_curves(out / "eval.csv")
        final = 4
        assert curves["albista_trained"][final] < curves["bista"][final]

    def test_eval_computes_dictionary_norm_once(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path, TINY_CFG)
        out = tmp_path / "run"
        for command in ("gen", "weights"):
            assert main([command, "--config", cfg, "--out", str(out)]) == 0
        calls = []
        norm = solvers.spectral_norm

        def counting_norm(A, *args, **kwargs):
            calls.append(A.shape)
            return norm(A, *args, **kwargs)

        monkeypatch.setattr(solvers, "spectral_norm", counting_norm)
        assert main(["eval", "--config", cfg, "--out", str(out)]) == 0
        # one dictionary, taken on the base K of its lift, 25 test signals
        assert calls == [(6, 12)]

    def test_circulant_pipeline_and_rank_field(self, tmp_path):
        cfg = write_cfg(tmp_path, CIRCULANT_CFG)
        out = tmp_path / "run"
        assert main(["gen", "--config", cfg, "--out", str(out)]) == 0
        assert "rank = 16" in (out / "data" / "manifest.txt").read_text()
        assert (out / "data" / "kernel.npy").exists()
        assert main(["weights", "--config", cfg, "--out", str(out)]) == 0
        meta = (out / "weights" / "B_base.meta").read_text()
        assert "method = circulant_fft" in meta
        assert "rank = 16" in meta

    def test_weights_meta_reports_quality(self, tmp_path):
        cfg = write_cfg(tmp_path, TINY_CFG)
        out = tmp_path / "run"
        main(["gen", "--config", cfg, "--out", str(out)])
        main(["weights", "--config", cfg, "--out", str(out)])
        meta = dict(
            line.split(" = ")
            for line in (out / "weights" / "B_base.meta").read_text().splitlines()
        )
        assert float(meta["feasibility_residual"]) <= 1e-8
        assert float(meta["lifted_cross_coherence"]) == pytest.approx(
            float(meta["cross_coherence"]) / 2, rel=1e-12
        )


class TestReproducibility:
    def test_byte_identical_reruns_and_thread_invariance(self, tmp_path):
        cfg = write_cfg(tmp_path, TINY_CFG)
        outs = [tmp_path / f"run{i}" for i in range(3)]
        assert main(["all", "--config", cfg, "--out", str(outs[0])]) == 0
        assert main(["all", "--config", cfg, "--out", str(outs[1]), "--threads", "1"]) == 0
        assert main(["all", "--config", cfg, "--out", str(outs[2]), "--threads", "4"]) == 0
        for name in ("history.csv", "eval.csv", "verify.csv"):
            ref = (outs[0] / name).read_bytes()
            assert (outs[1] / name).read_bytes() == ref, name
            assert (outs[2] / name).read_bytes() == ref, name
        # overwriting in place reproduces the same bytes too
        ref_eval = (outs[0] / "eval.csv").read_bytes()
        assert main(["eval", "--config", cfg, "--out", str(outs[0])]) == 0
        assert (outs[0] / "eval.csv").read_bytes() == ref_eval

    def test_threads_flag_sets_blas_threads_for_the_command(self, tmp_path, monkeypatch):
        functions = cli._openblas_threads()
        if functions is None:
            pytest.skip("numpy has no bundled OpenBLAS thread functions")
        get, _ = functions
        default = get()
        seen = []
        monkeypatch.setattr(cli, "cmd_gen", lambda cfg: seen.append(get()) or 0)
        cfg = write_cfg(tmp_path, TINY_CFG)
        for threads in (["--threads", "1"], ["--threads", "3"], []):
            assert main(["gen", "--config", cfg, "--out", str(tmp_path), *threads]) == 0
            assert get() == default
        assert seen == [1, 3, default]

    def test_threads_flag_warns_without_openblas(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_openblas_threads", lambda: None)
        monkeypatch.setattr(cli, "cmd_gen", lambda cfg: 0)
        cfg = write_cfg(tmp_path, TINY_CFG)
        with pytest.warns(RuntimeWarning, match="--threads 2 ignored"):
            assert main(["gen", "--config", cfg, "--out", str(tmp_path), "--threads", "2"]) == 0

    def test_seed_override_changes_data(self, tmp_path):
        cfg = write_cfg(tmp_path, TINY_CFG)
        a, b = tmp_path / "a", tmp_path / "b"
        main(["gen", "--config", cfg, "--out", str(a)])
        main(["gen", "--config", cfg, "--out", str(b), "--seed", "99"])
        assert (a / "data" / "K.npy").read_bytes() != (b / "data" / "K.npy").read_bytes()


class TestVerifyCommand:
    def test_compliant_instance_exit_zero(self, tmp_path):
        cfg = write_cfg(tmp_path, COMPLIANT_CFG)
        out = tmp_path / "run"
        assert main(["gen", "--config", cfg, "--out", str(out)]) == 0
        assert main(["weights", "--config", cfg, "--out", str(out)]) == 0
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        report = (out / "verify.csv").read_text()
        assert "containment=True bound=True" in report

    def test_both_routes_use_the_measurement_noise(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path, CIRCULANT_CFG)
        out = tmp_path / "run"
        sigmas = []

        def recording(measure):
            def wrapper(params, fp, X_star, sigma=0.0, s=None, **kwargs):
                sigmas.append(sigma)
                return measure(params, fp, X_star, sigma, s, **kwargs)
            return wrapper

        # the calibrated route measures through verify, the checkpoint route
        # through the CLI's own binding
        monkeypatch.setattr(verify, "measure_constants", recording(verify.measure_constants))
        monkeypatch.setattr(cli, "measure_constants", recording(cli.measure_constants))
        for command in ("gen", "weights", "verify", "train", "verify"):
            main([command, "--config", cfg, "--out", str(out)])
        expected = noise_sigma(read_config(cfg).scenario)
        assert expected > 0
        assert sigmas == [expected, expected]

    def test_calibrated_route_notes_a_failed_kappa_estimate(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path, COMPLIANT_CFG)
        out = tmp_path / "run"
        assert main(["gen", "--config", cfg, "--out", str(out)]) == 0
        assert main(["weights", "--config", cfg, "--out", str(out)]) == 0
        # zero coherence zeroes every threshold-condition denominator
        monkeypatch.setattr(cli, "cross_block_coherence", lambda B, D: 0.0)
        monkeypatch.setattr(verify, "cross_block_coherence", lambda B, D: 0.0)
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        report = (out / "verify.csv").read_text()
        assert "# kappa estimation failed: nonpositive threshold-condition denominator" in report
        assert "kappa_ok=False" in report and "assertions disabled" in report

    def test_calibrated_route_runs_one_full_pass(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path, COMPLIANT_CFG)
        out, ref = tmp_path / "run", tmp_path / "ref"
        for run in (out, ref):
            for command in ("gen", "weights"):
                assert main([command, "--config", cfg, "--out", str(run)]) == 0
        # the reference measures its constants on a second full forward pass
        calibrate = verify.calibrated_network

        def remeasured(D, B, gamma, depth, X, Y, sigma=0.0, s=None):
            params, _ = calibrate(D, B, gamma, depth, X, Y, sigma, s)
            fp = unfolding.forward(params, Y)
            return params, verify.measure_constants(params, fp, X, sigma, s)

        with monkeypatch.context() as mp:
            mp.setattr(cli, "calibrated_network", remeasured)
            assert main(["verify", "--config", cfg, "--out", str(ref)]) == 0
        full_passes, forward = [], unfolding.forward

        def counting_forward(params, Y, depth=None, start=0, **kwargs):
            if start == 0 and depth in (None, params.depth):
                full_passes.append(Y.shape)
            return forward(params, Y, depth, start, **kwargs)

        for module in (cli, verify):
            monkeypatch.setattr(module, "forward", counting_forward)
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        assert full_passes == [(40, 56)]
        assert (out / "verify.csv").read_bytes() == (ref / "verify.csv").read_bytes()

    @pytest.mark.parametrize(
        "variant, message",
        [
            ("tied", "not tied"),
            ("tied_cp", r"infeasible at block \d+: .* = \S+"),
            ("untied", "not untied"),
            ("untied_cp", r"infeasible at block \d+: .* = \S+"),
            ("albista", None),
        ],
    )
    def test_every_variant_checkpoint(self, tmp_path, capsys, variant, message):
        cfg = write_cfg(tmp_path, TINY_CFG)
        out = tmp_path / "run"
        assert main(["all", "--config", cfg, "--out", str(out), "--variant", variant]) == 0
        assert "error:" not in capsys.readouterr().err
        lines = (out / "verify.csv").read_text().splitlines()
        unmet = [line for line in lines if line.startswith("# hypotheses not met: ")]
        header = lines.index("layer,empirical_max_err,bound_rhs,alpha,gamma,kappa_ratio")
        rows = [dict(zip(lines[header].split(","), map(float, line.split(","))))
                for line in lines[header + 1 :]]
        assert [row["layer"] for row in rows] == [1, 2, 3, 4]
        assert all(math.isfinite(row["empirical_max_err"]) for row in rows)
        assert all(math.isfinite(row["alpha"]) for row in rows)
        if message is None:
            assert unmet == []
            return
        assert len(unmet) == 1
        assert re.search(message, unmet[0]), unmet[0]
        assert all(math.isnan(row["bound_rhs"]) for row in rows)
        assert all(math.isnan(row["kappa_ratio"]) for row in rows)
        gradient_step = variant.endswith("_cp")
        assert all(math.isfinite(row["gamma"]) == gradient_step for row in rows)


class TestErrors:
    def test_missing_dataset_reported(self, tmp_path):
        cfg = write_cfg(tmp_path, TINY_CFG)
        code = main(["weights", "--config", cfg, "--out", str(tmp_path / "nope")])
        assert code == 2

    def test_missing_weights_reported(self, tmp_path):
        cfg = write_cfg(tmp_path, TINY_CFG)
        out = tmp_path / "run"
        main(["gen", "--config", cfg, "--out", str(out)])
        assert main(["train", "--config", cfg, "--out", str(out)]) == 2

    def test_zero_test_samples_rejected(self, tmp_path):
        bad = TINY_CFG.replace("n_test = 25", "n_test = 0")
        cfg = write_cfg(tmp_path, bad)
        with pytest.raises(ValueError, match="split sizes"):
            read_config(cfg)

    def test_circulant_weights_need_circulant_scenario(self, tmp_path):
        bad = TINY_CFG.replace("method = closed_form", "method = circulant_fft")
        cfg = write_cfg(tmp_path, bad)
        with pytest.raises(ValueError, match="circulant"):
            read_config(cfg)

    def test_unknown_method_rejected(self, tmp_path):
        # kronecker was closed_form under another name and is gone; at the
        # CLI's d = 1, kkt and svd_d1 give closed_form's matrix too
        for method in ("magic", "kronecker", "kkt", "svd_d1"):
            bad = TINY_CFG.replace("method = closed_form", f"method = {method}")
            cfg = write_cfg(tmp_path, bad)
            with pytest.raises(ValueError, match=f"unknown weights method '{method}'"):
                read_config(cfg)

    def _single_error(self, capsys, argv):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1, err
        return err

    def test_missing_config_is_an_error_line(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.cfg")
        err = self._single_error(capsys, ["gen", "--config", missing, "--out", str(tmp_path)])
        assert "missing.cfg" in err

    def test_malformed_data_file_is_an_error_line(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, TINY_CFG)
        out = tmp_path / "run"
        assert main(["gen", "--config", cfg, "--out", str(out)]) == 0
        path = out / "data" / "K.npy"
        path.write_bytes(path.read_bytes()[:-8])
        err = self._single_error(capsys, ["weights", "--config", cfg, "--out", str(out)])
        assert "K.npy: not a readable .npy matrix" in err

    @pytest.mark.parametrize(
        "stage, name, value",
        [("train", "Y_train.npy", "nan"), ("eval", "Y_test.npy", "inf")],
        ids=["nan_in_train", "inf_in_test"],
    )
    def test_non_finite_data_value_is_an_error_line(self, tmp_path, capsys, stage, name, value):
        cfg = write_cfg(tmp_path, TINY_CFG)
        out = tmp_path / "run"
        for step in ("gen", "weights"):
            assert main([step, "--config", cfg, "--out", str(out)]) == 0
        path = out / "data" / name
        Y = load_matrix(path)
        Y[2, 0] = float(value)
        save_matrix(path, Y)
        err = self._single_error(capsys, [stage, "--config", cfg, "--out", str(out)])
        assert f"{name}: non-finite value {value} at row 3, column 1" in err

    @pytest.mark.parametrize(
        "stage, name, value",
        [("eval", "B", "nan"), ("verify", "alphas", "inf")],
        ids=["nan_B", "inf_alpha"],
    )
    def test_non_finite_checkpoint_value_is_an_error_line(
        self, tmp_path, capsys, stage, name, value
    ):
        cfg = write_cfg(tmp_path, TINY_CFG)
        out = tmp_path / "run"
        assert main(["all", "--config", cfg, "--out", str(out)]) == 0
        path = out / f"checkpoint.{name}.npy"
        A = load_matrix(path)
        A[0, 0] = float(value)
        save_matrix(path, A)
        err = self._single_error(capsys, [stage, "--config", cfg, "--out", str(out)])
        assert f"checkpoint.{name}.npy: non-finite value {value} at row 1, column 1" in err

    def test_checkpoint_without_its_arrays_is_an_error_line(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, TINY_CFG)
        out, moved = tmp_path / "run", tmp_path / "moved"
        assert main(["all", "--config", cfg, "--out", str(out)]) == 0
        for name in ("data", "weights"):
            shutil.copytree(out / name, moved / name)
        shutil.copy(out / "checkpoint.txt", moved / "checkpoint.txt")
        err = self._single_error(capsys, ["eval", "--config", cfg, "--out", str(moved)])
        assert re.search(r"No such file or directory: '.*moved/checkpoint\.\w+\.npy'", err), err

    @pytest.mark.parametrize("stage", ["eval", "verify"])
    def test_diverging_network_is_an_error_line(self, tmp_path, capsys, stage):
        # every step size 1e200: layer 1 is still finite, layer 2 overflows
        cfg = write_cfg(tmp_path, TINY_CFG)
        out = tmp_path / "run"
        assert main(["all", "--config", cfg, "--out", str(out)]) == 0
        path = out / "checkpoint.gammas.npy"
        save_matrix(path, np.full_like(load_matrix(path), 1e200))
        capsys.readouterr()
        err = self._single_error(capsys, [stage, "--config", cfg, "--out", str(out)])
        assert err == "error: diverged: non-finite activation (layer 2)\n"

    @pytest.mark.parametrize(
        "learning_rate, reason",
        [
            ("1e150", "non-finite gradient for S of layer 2"),
            ("3e153", "non-finite activation (layer 2)"),
        ],
    )
    # step sizes this large overflow Adam's moments and the activations on
    # purpose; the numpy warnings on the way are not what is checked
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_failing_training_stage_freezes_its_layer(
        self, tmp_path, learning_rate, reason
    ):
        # tied starts at x = 0, where its shared S does not act, so at these
        # step sizes layer 1 trains and layer 2 fails on its second step
        text = TINY_CFG.replace("variant = albista", "variant = tied").replace(
            "learning_rate = 0.02", f"learning_rate = {learning_rate}"
        )
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "run"
        with pytest.warns(UserWarning) as record:
            assert main(["all", "--config", cfg, "--out", str(out)]) == 0
        stopped = [str(w.message) for w in record if " stopped at step " in str(w.message)]
        assert stopped[0] == (
            f"layer 2 stopped at step 2: {reason}; freezing at its best observed state"
        )
        layers = np.loadtxt(out / "history.csv", delimiter=",", skiprows=2)[:, 1]
        assert np.count_nonzero(layers == 1) > 1 and np.count_nonzero(layers == 2) == 1
        # the frozen network runs: eval wrote every layer's curve
        curve = read_eval_curves(out / "eval.csv")["tied_trained"]
        assert sorted(curve) == [0, 1, 2, 3, 4] and all(map(math.isfinite, curve.values()))

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("learning_rate", "learning_rat", "unknown key 'learning_rat' in [training]"),
            ("[eval]", "[evaluation]", "unknown key 'bista_alpha' in [evaluation]"),
            ("[scenario]", "scenario", "File contains no section headers."),
            ("m = 6", "m = abc", "bad m value 'abc' in [scenario]: invalid literal for int()"),
            ("variant = albista", "variant = albistaa", "bad variant value 'albistaa' in [network]"),
            ("patience = 5", "patience = 0", "patience must be >= 1, got 0"),
            ("m = 6", "m = 0", "m must be >= 1, got 0"),
            ("d = 2", "d = -1", "d must be >= 1, got -1"),
        ],
        ids=["misspelled_key", "misspelled_section", "no_section_header", "not_an_int",
             "unknown_variant", "patience_zero", "m_zero", "d_negative"],
    )
    def test_bad_config_is_an_error_line(self, tmp_path, capsys, old, new, message):
        cfg = write_cfg(tmp_path, (TINY_CFG + "\n[eval]\nbista_alpha = 1.0\n").replace(old, new))
        with pytest.raises(ValueError) as info:
            read_config(cfg)
        assert message in str(info.value)
        err = self._single_error(capsys, ["gen", "--config", cfg, "--out", str(tmp_path)])
        assert err.startswith(f"error: {cfg}: ") and message in err, err

    def test_bad_depth_flag_names_no_file(self, tmp_path, capsys):
        # the value comes from the command line, not from the config file
        cfg = write_cfg(tmp_path, TINY_CFG)
        argv = ["gen", "--config", cfg, "--out", str(tmp_path), "--depth", "0"]
        assert self._single_error(capsys, argv) == "error: depth must be >= 1, got 0\n"

    def test_non_utf8_config_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "exp.cfg"
        path.write_bytes(TINY_CFG.encode().replace(b"closed_form", b"closed_form\xff"))
        err = self._single_error(capsys, ["gen", "--config", str(path), "--out", str(tmp_path)])
        assert err.startswith(f"error: {path}: not UTF-8 text (invalid start byte at byte "), err


class TestSplitLoading:
    """Each stage parses only the dataset files it reads."""

    def test_stages_run_without_the_splits_they_do_not_read(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, TINY_CFG)
        out = tmp_path / "run"
        assert main(["all", "--config", cfg, "--out", str(out)]) == 0
        data = out / "data"
        for name in ("X_train", "Y_train", "X_val", "Y_val"):
            (data / f"{name}.npy").unlink()
        assert main(["eval", "--config", cfg, "--out", str(out)]) == 0
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["train", "--config", cfg, "--out", str(out)]) == 2
        assert "X_train.npy" in capsys.readouterr().err
        for name in ("X_test", "Y_test"):
            (data / f"{name}.npy").unlink()
        assert main(["weights", "--config", cfg, "--out", str(out)]) == 0


class TestNoDenseLift:
    """A lift is held as its base, so no albista stage builds the dense
    ``K (x) I_d`` or ``W (x) I_d``.  The circulant instance is noiseless:
    at ``snr_db = 20`` its checkpoint fails verify's containment check."""

    @pytest.mark.parametrize(
        "text",
        [TINY_CFG, CIRCULANT_CFG.replace("snr_db = 20", "snr_db = inf")],
        ids=["closed_form", "circulant_fft"],
    )
    def test_albista_stages_build_no_dense_lift(self, tmp_path, monkeypatch, text):
        def refuse(W, d):
            raise AssertionError(f"dense lift of a {W.shape} matrix at d = {d}")

        for name, module in list(sys.modules.items()):
            if name.startswith("blockunfold.") and hasattr(module, "_kron_eye"):
                monkeypatch.setattr(module, "_kron_eye", refuse)
        cfg = write_cfg(tmp_path, text)
        assert read_config(cfg).scenario.d > 1
        out = tmp_path / "run"
        for stage in ("gen", "weights", "train", "eval", "verify"):
            assert main([stage, "--config", cfg, "--out", str(out)]) == 0, stage
        # verify's calibrated route, without a checkpoint
        (out / "checkpoint.txt").unlink()
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        assert "edge-calibrated" in (out / "verify.csv").read_text()


class TestTracedPipeline:
    def test_every_function_with_a_per_layer_metric_runs(self, tmp_path):
        # benchmark/run.py fails a traced run in which a function with a
        # per-layer metric in BENCHMARK.json is never called; the same
        # contract on a pipeline small enough for every test run
        tracer = load_benchmark_tracer()
        wanted = per_layer_functions() | {"weights.closed_form_weights"}
        cfg = write_cfg(tmp_path, TINY_CFG)
        with tracer.patched(tracer.Tracer()) as traced:
            assert main(["all", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
        summary = traced.summary()
        silent = sorted(name for name in wanted if not summary.get(f"{name}.calls"))
        assert silent == []


class TestShippedConfigs:
    # scripts/gaussian.cfg is checked against criterion 08's instance in
    # tests/test_acceptance.py

    @pytest.mark.parametrize(
        "path",
        sorted(REPO.glob("scripts/*.cfg")) + sorted(REPO.glob("benchmark/configs/*.cfg")),
        ids=lambda p: p.name,
    )
    def test_every_shipped_config_reads(self, path):
        # read_config rejects keys it does not read; no shipped experiment
        # or benchmark workload may hold one
        read_config(path)

    def test_circulant_cfg(self):
        cfg = read_config(REPO / "scripts" / "circulant.cfg")
        sc = cfg.scenario
        assert sc.scenario is Scenario.CIRCULANT
        assert (sc.m, sc.n, sc.d, sc.rank, sc.seed) == (64, 64, 5, 24, 2)
        assert cfg.weights_method == "circulant_fft"
        assert (cfg.variant, cfg.depth) == (NetworkVariant.ALBISTA, 10)
