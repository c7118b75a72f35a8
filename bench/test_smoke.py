"""Smoke test of the benchmark at tiny N.

Run from the repository root with ``python -m pytest bench/test_smoke.py``.
Every workload runs untraced and traced at small sizes; each run must pass
every check and emit exactly the metrics BENCHMARK.json names.
"""
import json
import sys
from pathlib import Path

import pytest

import harness

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = {"cli-io": (2, 3, 4), "lattice": (2, 3, 4), "moyal": (1, 2, 3), "dynamics": (1, 2)}


@pytest.fixture(autouse=True)
def fast_loops(monkeypatch):
    monkeypatch.setattr(harness, "SETUP_REPEATS", 2)
    monkeypatch.setattr(harness, "MIN_JOBS", 2)
    monkeypatch.setattr(harness, "SWEEP_MIN_JOBS", 1)
    # The harness imports torusq afresh; give other tests back their modules.
    saved = {k: v for k, v in sys.modules.items() if k == "torusq" or k.startswith("torusq.")}
    yield
    for name in [k for k in sys.modules if k == "torusq" or k.startswith("torusq.")]:
        del sys.modules[name]
    sys.modules.update(saved)


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(harness.WORKLOADS)
    for entry in SPEC["workloads"]:
        assert entry["why"] == harness.WORKLOADS[entry["name"]].why


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(TINY))
def test_run_emits_every_metric_and_passes_checks(name, trace, tmp_path):
    report = harness.run(name, 7, 0.05, trace, ROOT, tmp_path, sizes=TINY[name])
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        key: metric["unit"] for key, metric in report["metrics"].items()
    }
    assert report["correct"] and report["failed"] == 0 and report["attempted"] >= 1
    for metric in report["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(metric["value"] > 0 for metric in report["metrics"].values())
    else:
        assert (tmp_path / f"spans-{name}-seed7.json").exists()
