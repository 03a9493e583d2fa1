"""The benchmark's own tests, at tiny sizes. Kept out of the repository's
default pytest collection (the file name does not match test_*.py); run with

    python3 -m pytest -q perfbench/selftest.py
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import drumgen.layers as dm_layers  # noqa: E402
import drumgen.model as dm_model  # noqa: E402
import harness  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def tiny_run(name, trace, tmp_path, seed=3):
    return harness.run(name, seed, 0.05, trace, out_dir=str(tmp_path), root=ROOT,
                       nproc=1, scale=workloads.TINY)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_smoke_every_workload(name, trace, tmp_path):
    detail, result = tiny_run(name, trace, tmp_path)
    assert result["correct"], detail["failed_checks"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith("work-")]
    assert leftovers == []


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", ("train-paper", "train-accept"))
def test_traced_train_counts(name, tmp_path):
    _, result = tiny_run(name, 1, tmp_path)
    m = result["metrics"]
    assert m["autodiff.tape_nodes_per_step"]["value"] == 138
    assert m["layers.dropout_calls_per_step"]["value"] == 11


def test_quality_metrics_repeat_bit_for_bit(tmp_path):
    for name in ("train-accept", "generate-fanout", "cli-pipeline"):
        a = tiny_run(name, 0, tmp_path / "a")[1]["metrics"]
        b = tiny_run(name, 0, tmp_path / "b")[1]["metrics"]
        for k in ("train_loss", "gen_feature_l1"):
            assert a[k]["value"] == b[k]["value"], (name, k)


def test_self_time_nested_and_sibling_spans():
    # root [0,10] holds siblings [1,3] and [4,8]; [4,8] holds [5,6]
    start = [0.0, 1.0, 4.0, 5.0]
    end = [10.0, 3.0, 8.0, 6.0]
    parent = [-1, 0, 0, 2]
    own = spans.self_times(start, end, parent)
    assert list(own) == [4.0, 2.0, 3.0, 1.0]
    assert sum(own) == end[0] - start[0]


def test_self_time_clips_child_to_parent():
    own = spans.self_times([0.0, 1.0], [2.0, 3.0], [-1, 0])
    assert list(own) == [1.0, 2.0]


def test_tracer_restores_every_patched_name():
    before = (dm_model.backward, dm_model.Tape, dm_layers.lstm_step,
              dm_layers.LinearLayer.forward)
    tr = spans.Tracer()
    tr.install()
    assert dm_model.backward is not before[0]
    tr.uninstall()
    assert (dm_model.backward, dm_model.Tape, dm_layers.lstm_step,
            dm_layers.LinearLayer.forward) == before


def test_percentile_needs_ten_samples_beyond():
    assert harness.percentile_with_tail(list(range(99)), 90) is None
    assert harness.percentile_with_tail(list(range(100)), 90) == pytest.approx(89.1)


def test_fails_without_sources(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero and
    prints no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "train-accept",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_training_without_updates_fails(name, tmp_path, monkeypatch):
    """With Adam made a no-op the heads stay at zero and the loss at ln 512:
    the run must report a failed check."""
    monkeypatch.setattr(dm_model, "adam_step", lambda *args, **kwargs: None)
    detail, result = tiny_run(name, 0, tmp_path)
    assert not result["correct"]
    assert "train.learned" in detail["failed_checks"]
    assert result["metrics"]["train_loss"]["value"] == pytest.approx(workloads.LN_512)
