"""Tests of the benchmark itself.

``BENCHMARK.json`` is well formed, every workload runs end to end through the
same code path at a tiny ``--scale``, the ledger's self-time arithmetic holds
on a fake, the ledger's wrappers leave the output digest unchanged, and a
tampered golden digest fails the run.  Runs happen in a copy of ``bench/`` so
nothing is written into the repository.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from layers import Ledger  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
TINY = "0.02"


def bench_copy(tmp_path: Path, with_program: bool = True) -> Path:
    """A checkout holding ``BENCHMARK.json`` and ``bench/`` (and ``src/``, linked)."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "results", "__pycache__"))
    if with_program:
        (tmp_path / "src").symlink_to(ROOT / "src")
    return tmp_path


def run_bench(checkout: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=checkout,
                          capture_output=True, text=True, timeout=120)


def test_benchmark_json_is_valid():
    raw = (ROOT / "BENCHMARK.json").read_text()
    spec = json.loads(raw)
    assert len(raw.encode()) <= 64 * 1024
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert spec["command"] == ["python3", "bench/run.py"]
    assert spec["paths"] == ["bench"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower"), metric
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in spec[key]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in spec["end_to_end"])}]


def test_every_workload_runs_end_to_end(tmp_path):
    checkout = bench_copy(tmp_path)
    proc = run_bench(checkout, "--scale", TINY, "--repeats", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    results = json.loads((checkout / "bench/out/results.json").read_text())["workloads"]
    assert sorted(results) == sorted(w["name"] for w in spec["workloads"])
    for name, result in results.items():
        assert result["error_rate"] == 0
        assert set(result["metrics"]) >= {m["name"] for m in spec["end_to_end"]}
        # The traced run, with every wrapper installed, computed the same outputs.
        assert result["traced_run"]["digest"] == result["runs"][0]["digest"]
        layers = json.loads((checkout / f"bench/out/{name}.layers.json").read_text())
        assert set(layers["metrics"]) >= {m["name"] for m in spec["per_layer"]}
        trace = json.loads((checkout / f"bench/out/{name}.trace.json").read_text())
        assert {"setup", "timed"} <= {event["name"] for event in trace["traceEvents"]}
    for metric in ("setup_s", "us_per_op", "error_rate", "sim_p99_ms", "sched_latency_ms"):
        assert metric in proc.stdout


def test_tampered_golden_fails_the_run(tmp_path):
    checkout = bench_copy(tmp_path)
    args = ("--workload", "serve-steady", "--scale", TINY, "--repeats", "1")
    assert run_bench(checkout, *args, "--bless").returncode == 0
    golden_path = checkout / "bench/golden.json"
    golden = json.loads(golden_path.read_text())
    key = f"serve-steady seed=0 scale={float(TINY):g}"
    assert key in golden
    golden[key] = "0" * 64
    golden_path.write_text(json.dumps(golden))
    proc = run_bench(checkout, *args)
    assert proc.returncode != 0
    assert "MISMATCH" in proc.stdout


def test_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    checkout = bench_copy(tmp_path, with_program=False)
    proc = run_bench(checkout, "--workload", "serve-steady", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


@pytest.fixture
def fake_module(monkeypatch):
    clock = FakeClock()
    module = types.ModuleType("fake_bench_target")

    def inner():
        clock.now += 10

    def outer():
        clock.now += 1
        module.inner()
        clock.now += 2
        module.inner()
        clock.now += 3

    def ticks():
        for _ in range(2):
            clock.now += 4
            yield clock.now

    class Base:
        def work(self):
            clock.now += 1

    class Derived(Base):
        def work(self):
            clock.now += 2
            super().work()

    module.inner, module.outer, module.ticks = inner, outer, ticks
    module.Base, module.Derived = Base, Derived
    monkeypatch.setitem(sys.modules, module.__name__, module)
    return module, clock


def test_self_time_of_nested_wrapped_calls(fake_module):
    module, clock = fake_module
    originals = (module.inner, module.outer, module.ticks, module.Derived.work)
    ledger = Ledger(
        {
            "outer": ("fake_bench_target:outer",),
            "inner": ("fake_bench_target:inner",),
            "gen": ("fake_bench_target:ticks",),
            "method": ("fake_bench_target:Base.work",),
        },
        clock=clock, span_layers={"outer"},
    )
    with ledger:
        module.outer()
        assert list(module.ticks()) == [30.0, 34.0]
        module.Derived().work()
    stats = ledger.stats
    assert (stats["outer"].calls, stats["outer"].total_s, stats["outer"].self_s) == (1, 26, 6)
    assert (stats["inner"].calls, stats["inner"].total_s, stats["inner"].self_s) == (2, 20, 20)
    # Each next() is a call, the one that exhausts the generator included.
    assert (stats["gen"].calls, stats["gen"].self_s) == (3, 8)
    # The override and the base method it calls are both wrapped.
    assert (stats["method"].calls, stats["method"].self_s) == (2, 3)
    assert ledger.spans == [("outer", 0.0, 26.0)]
    assert ledger.metrics()["outer.self_s"] == 6
    assert (module.inner, module.outer, module.ticks, module.Derived.work) == originals
