"""Serving and cluster runs load neither the paper harness nor numpy/networkx.

The serving stack computes its percentiles and the scheduler its DAG width in
plain Python, and the CLI imports an experiment's module only when that
experiment runs, so a process that only serves — through the API or through
``ios-bench serve`` — never pays for those libraries or for the figure
modules of :mod:`repro.experiments`.  RandWire draws its random wiring in
plain Python too, so no compile loads networkx.  Each check runs in a fresh
interpreter: the test process itself has imported all of them.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: Imports the serving, cluster and observability packages, serves 20
#: requests on one host and on a 2-host partitioned cluster, then prints the
#: heavy modules that got loaded.
SERVE_AND_CLUSTER = """
import sys

import repro.cluster
import repro.obs
import repro.serve
from repro.cluster import ClusterConfig, run_cluster_serving
from repro.serve import InferenceService, ServingConfig, TrafficConfig, TrafficGenerator
from repro.serve.batcher import BatchPolicy

serving = ServingConfig(
    model="squeezenet", devices=("k80",), batch_sizes=(1, 2, 4),
    policy=BatchPolicy(max_batch_size=4, max_wait_ms=3.0),
)
traffic = TrafficConfig(model="squeezenet", num_requests=20, seed=1)
report = InferenceService(serving).run(TrafficGenerator(traffic).generate())
assert report.num_requests == 20, report.num_requests
cluster = ClusterConfig(
    serving=serving, num_hosts=2, partition=True, router="partition-affinity"
)
assert run_cluster_serving(traffic, cluster).describe()
print(sorted(
    name for name in sys.modules
    if name.split(".")[0] in ("numpy", "networkx")
    or name.startswith("repro.experiments")
))
"""

#: Runs ``ios-bench serve`` for 20 requests on one host and on a 2-host
#: partitioned cluster, then prints the heavy modules that got loaded.
CLI_SERVE = """
import sys

from repro.experiments.cli import serve_main

common = ["--model", "squeezenet", "--requests", "20", "--batch-sizes", "1,2,4"]
assert serve_main(common + ["--device", "k80", "--num-workers", "1"]) == 0
assert serve_main(common + ["--cluster", "2", "--partition"]) == 0
print(sorted(
    name for name in sys.modules
    if name.split(".")[0] in ("numpy", "networkx")
    or name.startswith("repro.experiments.fig")
))
"""

#: Builds and compiles RandWire, then prints the networkx modules loaded.
COMPILE_RANDWIRE = """
import sys

from repro.engine import Engine
from repro.frontend import load

assert Engine("v100").compile(load("randwire")).schedule.stages
print(sorted(name for name in sys.modules if name.split(".")[0] == "networkx"))
"""


def _heavy_modules_loaded(script: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip().splitlines()[-1]


def test_serving_and_cluster_runs_load_no_heavy_module():
    assert _heavy_modules_loaded(SERVE_AND_CLUSTER) == "[]"


def test_cli_serve_runs_load_no_heavy_module():
    assert _heavy_modules_loaded(CLI_SERVE) == "[]"


def test_randwire_compile_loads_no_networkx():
    assert _heavy_modules_loaded(COMPILE_RANDWIRE) == "[]"
