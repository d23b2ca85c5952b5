"""Smoke test of the benchmark: every workload at tiny sizes, traced and
untraced, with every output check evaluated, and BENCHMARK.json against
the definitions in code."""

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import pb_trace
import pb_workloads
import run

ROOT = os.path.dirname(pb_workloads.HERE)
WORKLOADS = pb_workloads.WORKLOADS


def test_benchmark_json_matches_definitions():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]
    assert tuple(WORKLOADS) == run.WORKLOAD_NAMES
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        tuple(row) for row in pb_workloads.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        row[:3] for row in pb_trace.PER_LAYER]
    layers = set(pb_trace.LAYERS)
    assert all(set(w.loads) <= layers for w in WORKLOADS.values())
    assert all(row[3] is None or row[3] in layers for row in pb_trace.PER_LAYER)


def _measure(tmp_path, name, trace):
    wl = WORKLOADS[name]
    return pb_workloads.measure(wl, 3, 0.0, trace, str(tmp_path / "work"), sizes=wl.tiny,
                                setup_probes=1, trace_path=str(tmp_path / "trace.npz"))


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_untraced_run_at_tiny_size(tmp_path, name):
    res = _measure(tmp_path, name, False)
    assert res["correct"] and res["failed"] == 0, res["failed_checks"]
    assert list(res["metrics"]) == [row[0] for row in pb_workloads.END_TO_END]
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_at_tiny_size(tmp_path, name):
    res = _measure(tmp_path, name, True)
    assert res["correct"] and res["failed"] == 0, res["failed_checks"]
    assert list(res["metrics"]) == [row[0] for row in pb_trace.PER_LAYER]
    values = {k: m["value"] for k, m in res["metrics"].items()}
    assert all(math.isfinite(v) and v != pb_trace.MISSING for v in values.values())
    with np.load(tmp_path / "trace.npz") as saved:
        names = [str(name) for name in saved["names"]]
        spans = dict(zip(names, np.bincount(saved["layer"], minlength=len(names))))
    # every layer the workload claims to load was hooked and called
    assert all(spans[layer] > 0 for layer in WORKLOADS[name].loads)
    assert 0.5 < values["trace.coverage"] <= 1.0


def test_missing_hook_reads_missing(tmp_path, monkeypatch):
    monkeypatch.setitem(pb_trace.LAYERS, "manet.single", ("consensuslab.manet:no_such_function",))
    res = _measure(tmp_path, "manet", True)
    assert res["correct"]
    assert res["metrics"]["manet.single_round_us"]["value"] == pb_trace.MISSING
    assert res["metrics"]["manet.batch_round_us"]["value"] > 0


def test_command_prints_result_last(tmp_path, monkeypatch, capsys):
    wl = WORKLOADS["exact_certify"]
    monkeypatch.setitem(WORKLOADS, wl.name, dataclasses.replace(wl, full=wl.tiny))
    monkeypatch.setattr(pb_workloads, "SETUP_PROBES", 1)
    monkeypatch.setattr(run, "SCRATCH", str(tmp_path))
    for var in run.THREAD_VARS:
        monkeypatch.setenv(var, "1")
    assert run.main(["--workload", wl.name, "--seconds", "0", "--seed", "5"]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    res = json.loads(last)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["attempted"] >= 1 and res["failed"] == 0


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(pb_workloads.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "mc_shared",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
