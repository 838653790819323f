"""Tests of the benchmark harness itself (run with ``pytest benchmark/tests``)."""

import json

import pytest

import run
from blockunfold import operators, solvers, unfolding, verify
from tracer import Tracer, patched


def _fake_clock(times):
    ticks = iter(times)
    return lambda: float(next(ticks))


def test_self_time_of_nested_calls():
    # outer [0, 10] holds inner [1, 3] and middle [4, 8]; middle holds leaf [5, 6].
    tracer = Tracer(clock=_fake_clock([0, 1, 3, 4, 5, 6, 8, 10]))
    leaf = tracer.wrap("m.leaf", lambda: None)
    inner = tracer.wrap("m.inner", lambda: None)
    middle = tracer.wrap("m.middle", lambda: leaf())

    def body():
        inner()
        middle()

    tracer.wrap("m.outer", body)()
    assert tracer.self_times() == {
        "m.leaf": 1.0,
        "m.inner": 2.0,
        "m.middle": 3.0,
        "m.outer": 4.0,
    }
    assert list(tracer.parents) == [-1, 0, 0, 2]
    summary = tracer.summary()
    assert summary["m.outer.calls"] == 1 and summary["m.leaf.errors"] == 0


def test_failed_call_closes_its_span_and_counts_an_error():
    tracer = Tracer(clock=_fake_clock([0, 2, 5, 7]))

    def boom():
        raise ValueError("x")

    failing = tracer.wrap("m.fail", boom)

    def outer():
        with pytest.raises(ValueError):
            failing()

    tracer.wrap("m.outer", outer)()
    assert tracer.summary()["m.fail.errors"] == 1
    assert tracer.self_times() == {"m.fail": 3.0, "m.outer": 4.0}


def test_patching_rebinds_every_module_binding_and_restores_it():
    original = operators.eta
    importers = (unfolding, solvers, verify)
    assert all(m.eta is original for m in importers)
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with patched(tracer):
            assert operators.eta is not original
            assert all(m.eta is operators.eta for m in importers)
            assert unfolding.forward.__wrapped__ is not None
            raise RuntimeError("leave the context by an error")
    assert operators.eta is original
    assert all(m.eta is original for m in importers)
    assert "__wrapped__" not in vars(unfolding.forward)


def test_calls_through_an_importing_module_nest_under_the_caller():
    import numpy as np

    from blockunfold.blockcore import BlockDictionary

    D = BlockDictionary(np.eye(4), n=2, d=2)
    params = unfolding.init_from_bista(
        unfolding.NetworkVariant.ALBISTA, D, 2, B_analytic=D.data, alpha=0.1
    )
    tracer = Tracer()
    with patched(tracer):
        unfolding.forward(params, np.ones((3, 4)))
    summary = tracer.summary()
    assert summary["unfolding.forward.calls"] == 1
    assert summary["unfolding.forward.rows"] == 3
    assert summary["operators.eta.calls"] == 2
    assert summary["operators.eta.elems"] == 2 * 3 * 4
    forward_id = tracer.names.index("unfolding.forward")
    forward_span = list(tracer.name_ids).index(forward_id)
    eta_id = tracer.names.index("operators.eta")
    assert {
        tracer.parents[i] for i, n in enumerate(tracer.name_ids) if n == eta_id
    } == {forward_span}


def test_timing_reports_the_highest_percentile_with_ten_samples_beyond():
    assert run.timing([3.0, 1.0, 2.0]) == {"median": 2.0, "n": 3}
    stats = run.timing([float(i) for i in range(40)])
    assert stats["n"] == 40 and stats["p75"] == 29.0


def test_stopped_layers_splits_patience_and_budget():
    layers = [1] * 5 + [2] * 3 + [3] * 5
    assert run.stopped_layers(layers, max_iters=5) == {
        "training.layers_stopped_patience": 1,
        "training.layers_stopped_budget": 2,
    }


TINY_CONFIG = """\
[scenario]
kind = gaussian
m = 8
n = 16
d = 2
pnz = 0.2
snr_db = inf
seed = 1
n_train = 40
n_validation = 10
n_test = 12

[network]
variant = albista
depth = 2

[weights]
method = closed_form

[training]
learning_rate = 0.03
tol = 1e-5
patience = 2
eval_every = 5
batch_size = 10
max_iters_per_layer = 20
"""


@pytest.fixture
def tiny(tmp_path, monkeypatch):
    config = tmp_path / "tiny.cfg"
    config.write_text(TINY_CONFIG)
    monkeypatch.setattr(run, "WORK_DIR", tmp_path / "work")
    return run.Workload("tiny", config, 1, reference=None)


def test_smoke_run_of_the_whole_harness(tiny):
    spec = run.load_spec()
    # The second untraced run compares its outputs with the first two runs'.
    for trace, wanted in ((False, "end_to_end"), (True, "per_layer"), (False, "end_to_end")):
        record = run.run(tiny, seed=0, trace=trace, spec=spec)
        result = record["result"]
        assert record["failures"] == []
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        assert [m["name"] for m in spec[wanted]] == list(result["metrics"])
    assert len(list((run.WORK_DIR / "results").glob("tiny-seed0-*.json"))) >= 2
    state = json.loads((run.WORK_DIR / "tiny" / "repeat.json").read_text())
    src = run.src_sha256()
    assert set(state) == {f"outputs.{src}.seed1", f"counters.{src}.seed1"}


@pytest.mark.parametrize("same_src", [True, False])
def test_outputs_differ_from_an_earlier_run(tiny, same_src):
    # Outputs of the same src/ must repeat; another version's may differ.
    spec = run.load_spec()
    state = run.WORK_DIR / "tiny" / "repeat.json"
    state.parent.mkdir(parents=True)
    src = run.src_sha256() if same_src else "1" * 64
    fake = {name: "0" * 64 for name in run.OUTPUT_FILES}
    state.write_text(json.dumps({f"outputs.{src}.seed1": fake}))
    record = run.run(tiny, seed=0, trace=False, spec=spec)
    assert record["result"]["correct"] is not same_src
    if same_src:
        assert record["failures"]
        assert all("differ from an earlier run" in f for f in record["failures"])


def test_traced_run_fails_when_a_stage_command_is_not_traced(tiny, monkeypatch):
    # Unwrapping cli.cmd_train and the training module moves the train
    # stage into cli.main's self time.  (With training still wrapped, only
    # cmd_train's own glue would move, near the 2% tolerance on this config.)
    import tracer

    spec = run.load_spec()
    wrap = tracer.Tracer.wrap

    def wrap_all_but_train(self, name, fn):
        return fn if name == "cli.train" or name.startswith("training.") else wrap(self, name, fn)

    monkeypatch.setattr(tracer.Tracer, "wrap", wrap_all_but_train)
    record = run.run(tiny, seed=0, trace=True, spec=spec)
    assert not record["result"]["correct"]
    assert any("outside the stage commands" in f for f in record["failures"])
    assert any("never called" in f and "cli.train" in f for f in record["failures"])


def test_missing_program_exits_nonzero_without_a_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "absent")
    argv = ["--workload", "circ-desk", "--seed", "1", "--seconds", "1", "--trace", "0"]
    assert run.main(argv) == 2
    assert capsys.readouterr().out == ""
