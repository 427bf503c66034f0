"""The benchmark's traced run rebinds public names inside polygam's modules
(bench/harness.trace_targets) and fails if one of them is gone; this keeps
such a rename from surfacing only when the benchmark runs."""

import os
import sys

import polygam

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH_DIR)

import harness  # noqa: E402


def test_every_traced_name_exists():
    targets = harness.trace_targets(polygam)
    assert targets
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in targets if not hasattr(owner, attr)]
    assert missing == []
