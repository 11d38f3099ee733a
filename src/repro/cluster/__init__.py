"""Multi-host serving: partition, route, and co-simulate a cluster of hosts.

The single-host :mod:`repro.serve` loop answers "how does one pool of
workers serve this trace?"; this package answers the next question the paper's
serving story raises — how does a *cluster* of such hosts serve it, when
requests must first be placed on a host, large models must be cut across
per-host memory bounds, and every inter-host hop pays a modeled transfer cost?

* :mod:`repro.cluster.host` — a :class:`Host` wraps one
  :class:`~repro.serve.service.InferenceService` (its own worker pool, loop,
  and alert rules) plus the :class:`HostSpec` declaring its fleet and memory.
* :mod:`repro.cluster.link` — the :class:`LinkModel` costing inter-host
  transfers (bandwidth + latency per host pair, optional ingress NIC
  serialization).
* :mod:`repro.cluster.partition` — device-assignment + communication-
  insertion over a :mod:`repro.ir` graph: contiguous stages balanced by
  FLOPs under per-host weight-memory bounds, send/recv boundaries at
  single-tensor cuts.
* :mod:`repro.cluster.router` — cluster-level placement policies
  (earliest-finish, least-loaded, round-robin, partition-affinity).
* :mod:`repro.cluster.loop` — the :class:`ClusterLoop` co-simulation: every
  host's discrete-event loop advances on one shared virtual clock, with
  routing and stage handoffs interleaved at exact event order.
* :mod:`repro.cluster.experiment` — :func:`run_cluster_serving` and the
  :class:`ClusterReport` behind ``ios-bench serve --cluster N``.
"""

from .experiment import ClusterConfig, ClusterReport, run_cluster_serving
from .host import Host, HostSpec
from .link import LinkModel
from .loop import ClusterLoop, ClusterOutcome, TransferStats
from .partition import PartitionError, PartitionPlan, StageSpec, partition_graph
from .router import (
    CLUSTER_ROUTERS,
    ClusterRouter,
    PartitionAffinityRouter,
    RankingHostRouter,
    RoundRobinHostRouter,
    get_cluster_router,
    list_cluster_routers,
)

__all__ = [
    "CLUSTER_ROUTERS",
    "ClusterConfig",
    "ClusterLoop",
    "ClusterOutcome",
    "ClusterReport",
    "ClusterRouter",
    "Host",
    "HostSpec",
    "LinkModel",
    "PartitionAffinityRouter",
    "PartitionError",
    "PartitionPlan",
    "RankingHostRouter",
    "RoundRobinHostRouter",
    "StageSpec",
    "TransferStats",
    "get_cluster_router",
    "list_cluster_routers",
    "partition_graph",
    "run_cluster_serving",
]
