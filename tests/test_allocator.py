"""The package's malloc policy: importing blockunfold pins glibc's mmap and
trim thresholds once per process, unless the environment sets malloc."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import blockunfold
from blockunfold import _malloc_override

SRC = Path(__file__).resolve().parents[1] / "src"


# 20 full-depth albista passes at a batch of 600 signals, after two warm-up
# passes (the heap reaches its size over the first two): each iterate is
# 600 x 256 float64 (1.2 MB), above glibc's 128 KiB starting mmap
# threshold.  Prints the policy and the 20 passes' minor faults.
_FAULT_SCRIPT = """
import json, resource
import numpy as np
import blockunfold
from blockunfold.blockcore import kron_lift
from blockunfold.unfolding import NetworkVariant, forward, init_from_bista

rng = np.random.default_rng(0)
K = rng.standard_normal((32, 64))
K /= np.linalg.norm(K, axis=0)
params = init_from_bista(NetworkVariant.ALBISTA, kron_lift(K, 4), 8, B_analytic=K)
Y = rng.standard_normal((600, params.n_y))
for _ in range(2):
    forward(params, Y)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    forward(params, Y)
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(json.dumps({"policy": blockunfold.ALLOCATOR_POLICY, "faults": faults}))
"""


def _run_passes(**malloc_env) -> dict:
    env = {k: v for k, v in os.environ.items() if _malloc_override({k: v}) is None}
    env.update(malloc_env, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", _FAULT_SCRIPT],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize(
    "environ, reason",
    [
        ({}, None),
        ({"PATH": "/usr/bin", "MALLOC_ARENA_MAX": "2"}, None),
        ({"MALLOC_TRIM_THRESHOLD_": "0"}, "MALLOC_TRIM_THRESHOLD_ is set"),
        ({"MALLOC_TOP_PAD_": "0", "MALLOC_CHECK_": "3"}, "MALLOC_CHECK_ is set"),
        ({"GLIBC_TUNABLES": "glibc.cpu.x86_ibt=on"}, None),
        (
            {"GLIBC_TUNABLES": "glibc.cpu.x86_ibt=on:glibc.malloc.mmap_threshold=4096"},
            "GLIBC_TUNABLES sets a glibc.malloc tunable",
        ),
    ],
    ids=["empty", "other_variables", "trim", "two_variables", "other_tunable", "malloc_tunable"],
)
def test_override_reads_only_the_environment(environ, reason):
    assert _malloc_override(environ) == reason


@pytest.mark.skipif(blockunfold.ALLOCATOR_POLICY[0] == "unavailable", reason="glibc only")
class TestPinnedThresholds:
    def test_repeated_passes_take_no_page_faults(self):
        result = _run_passes()
        outcome, detail = result["policy"]
        assert outcome == "applied"
        assert "M_MMAP_THRESHOLD, 33554432) = 1" in detail
        assert "M_TRIM_THRESHOLD, 67108864) = 1" in detail
        assert result["faults"] <= 20

    def test_a_malloc_variable_leaves_the_allocator_alone(self):
        # the trim threshold alone freezes the mmap threshold at 128 KiB,
        # so every 1.2 MB array is mapped and faulted afresh
        result = _run_passes(MALLOC_TRIM_THRESHOLD_=str(256 << 20))
        assert result["policy"] == ["skipped", "MALLOC_TRIM_THRESHOLD_ is set"]
        assert result["faults"] > 10_000
