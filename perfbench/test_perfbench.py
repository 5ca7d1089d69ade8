"""Tests of the benchmark itself.

Run from the repository root with ``python -m pytest perfbench -q``.
The smoke runs use ``--smoke`` sizes, so each takes seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from time import perf_counter

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(ROOT / "src"))

from workloads import Sizes, run_workload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable, str(cwd / "perfbench" / "run.py"),
            "--workload", workload, "--seed", "3", "--seconds", "1",
            "--trace", str(trace), "--smoke",
        ],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_declared_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if not trace:
        # End-to-end metrics are never 0: the bounds are shares of them.
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "registry-churn", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_feature_slowdown_is_attributed_to_features(monkeypatch):
    """A 20% slower ``FeatureExtractor.extract`` moves ``features.busy_ms``
    and the ``speaker-closed`` latency, and leaves ``registry-churn``
    unchanged."""
    from repro.core.features import FeatureExtractor

    sizes = replace(Sizes.smoke(), min_ops=24)
    runs = {
        name: run_workload(name, 5, 1.0, True, sizes)
        for name in ("speaker-closed", "registry-churn")
    }
    original = FeatureExtractor.extract
    delayed: list[float] = []

    def slower(self, images):
        began = perf_counter()
        out = original(self, images)
        elapsed = perf_counter() - began
        delayed.append(elapsed)
        time.sleep(0.2 * elapsed)
        return out

    monkeypatch.setattr(FeatureExtractor, "extract", slower)
    churn = run_workload("registry-churn", 5, 1.0, True, sizes)
    assert delayed == []
    slow = run_workload("speaker-closed", 5, 1.0, True, sizes)
    assert delayed

    base = runs["speaker-closed"]
    assert not slow["problems"] and not churn["problems"]
    assert (slow["per_layer"]["features.busy_ms"]
            > 1.12 * base["per_layer"]["features.busy_ms"])
    assert (slow["end_to_end"]["latency_p50_ms"]
            > 1.05 * base["end_to_end"]["latency_p50_ms"])
    before = runs["registry-churn"]
    assert churn["per_layer"]["features.busy_ms"] == 0.0
    assert before["per_layer"]["features.busy_ms"] == 0.0
    ratio = (churn["end_to_end"]["latency_p50_ms"]
             / before["end_to_end"]["latency_p50_ms"])
    assert 0.67 < ratio < 1.5
