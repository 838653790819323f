"""The traced benchmark's contract on a pipeline small enough for every test run.

``benchmark/run.py --trace 1`` runs the five CLI stages with every public
function of the package wrapped by ``benchmark/tracer.py`` and fails when a
function with a per-layer metric in ``BENCHMARK.json`` is never called.
Here the same stages run on a tiny albista config with blocks larger than
the trainer's 2-coordinate frame, so the framed training stage is covered.
"""

from blockunfold.cli import main

from conftest import load_benchmark_tracer, per_layer_functions

STAGES = ("gen", "weights", "train", "eval", "verify")

N, D, BATCH = 12, 5, 20
FRAMED_CFG = f"""
[scenario]
kind = gaussian
m = 6
n = {N}
d = {D}
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
batch_size = {BATCH}
max_iters_per_layer = 60
"""


def test_traced_stages_call_every_measured_function_and_none_raises(tmp_path):
    tracer = load_benchmark_tracer()
    cfg = tmp_path / "framed.cfg"
    cfg.write_text(FRAMED_CFG)
    out = tmp_path / "run"
    with tracer.patched(tracer.Tracer()) as traced:
        codes = {stage: main([stage, "--config", str(cfg), "--out", str(out)]) for stage in STAGES}
    assert codes == dict.fromkeys(STAGES, 0)
    summary = traced.summary()

    wanted = per_layer_functions() | {"weights.closed_form_weights"}
    assert sorted(name for name in wanted if not summary.get(f"{name}.calls")) == []
    raised = {k: v for k, v in summary.items() if k.endswith(".errors") and v}
    assert raised == {}

    # every training step runs the whole gradient chain, on 2 coordinates
    # per block and one more block per row for the rest of its target
    steps = len((out / "history.csv").read_text().splitlines()) - 2
    for name in (
        "unfolding.backward",
        "operators.eta_jvp",
        "operators.eta_dalpha",
        "training.empirical_risk",
        "training.adam_step",
    ):
        assert summary[f"{name}.calls"] == steps, name
    assert summary["unfolding.forward.calls"] > steps
    assert summary["operators.eta_jvp.elems"] == steps * BATCH * (N + 1) * 2
