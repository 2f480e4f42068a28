"""Tests of the benchmark itself (run: python3 -m pytest perfbench/tests)."""

import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hostspeed
import run
import tracing
import worker
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _generate(name, seed, workdir):
    workdir.mkdir()
    inp = WORKLOADS[name].generate(seed, workdir, small=True)
    (workdir / "inputs.json").write_text(json.dumps(inp))
    return {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_deterministic_for_a_seed(name, tmp_path):
    first = _generate(name, 3, tmp_path / "a")
    assert first == _generate(name, 3, tmp_path / "b")
    assert first != _generate(name, 4, tmp_path / "c")


def test_metric_names_and_benchmark_json_agree():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert e2e == run.END_TO_END
    assert per_layer == run.per_layer_metrics()
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    for name in [*e2e, *per_layer, *WORKLOADS]:
        assert NAME.fullmatch(name), name


def _patched_attrs():
    out = {}
    for _, owner_path, attr in tracing.TIMED + tracing.COUNTED:
        owner = tracing._resolve(owner_path)
        out[(owner_path, attr)] = owner.__dict__[attr]
    return out


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_has_no_errors_and_restores_wrappers(name, tmp_path):
    workdir = tmp_path / "in"
    _generate(name, 5, workdir)
    before = _patched_attrs()
    plain = worker.run_rep(name, workdir, tmp_path, trace=False)
    traced = worker.run_rep(name, workdir, tmp_path, trace=True)
    assert _patched_attrs() == before
    for rep in (plain, traced):
        assert rep["failed"] == 0 and rep["attempted"] > 0, rep["problems"]
        assert rep["problems"] == []
    assert plain["digest"] == traced["digest"]
    assert set(traced["per_layer"]) == set(tracing.per_layer_units())
    assert abs(traced["self_time_gap_s"]) < 1e-6
    assert traced["per_layer"]["bench.run.calls"] == 1


def test_traced_counters_match_the_run(tmp_path):
    workdir = tmp_path / "in"
    _generate("trace-relay-heavy", 5, workdir)
    layer = worker.run_rep("trace-relay-heavy", workdir, tmp_path, trace=True)["per_layer"]
    assert layer["engine.requests"] == 400
    assert layer["io.parse_trace.calls"] == 1
    assert layer["selection.generate_relay_list.calls"] == layer["engine.relay_phase_requests"]
    assert 0 < layer["engine.served_by_relay"] <= layer["engine.relay_attempts"]


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "desk-sweep",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_host_speed_probe_samples_and_stops():
    speed = hostspeed.HostSpeed(min(os.sched_getaffinity(0)))
    t0 = time.monotonic()
    time.sleep(0.5)
    speed.stop()
    assert speed.proc.returncode == 0
    assert len(speed.durations) >= 5
    assert all(t0 < end < time.monotonic() for end in speed.ends)
    # A window holding no sample is widened to the nearest ones.
    assert speed.factor(t0 - 10.0, t0 - 9.0) > 0
