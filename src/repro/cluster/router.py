"""Cluster-level routing: pick the host a request is dispatched to.

The single-host :mod:`repro.serve.fleet` routers pick a *worker* for a formed
batch; these policies act one level up, picking a *host* for each arriving
request before it ever reaches a loop.  The two layers compose: the cluster
router spreads requests over hosts, then each host's worker router places the
batches its loop forms.

Policies resolve through a :class:`~repro.checks.Registry` like the fleet
routers — ``CLUSTER_ROUTERS``, :func:`get_cluster_router`,
:func:`list_cluster_routers` — so the CLI spelling is uniform
(``--cluster-router earliest-finish-host``).  The ranking policies are one
:class:`RankingHostRouter` each, differing only in their key.

``eligible`` is the placement-filtered host list: under partitioning only the
stage-0 host receives external arrivals, and under per-host memory bounds
only hosts whose memory holds the model's weights are candidates.  Routers
never second-guess eligibility.
"""

from __future__ import annotations

from functools import partial
from operator import attrgetter, methodcaller
from typing import TYPE_CHECKING, Any, Callable, Sequence

from ..checks import Registry

if TYPE_CHECKING:  # pragma: no cover - types only
    from ..serve.request import InferenceRequest
    from .host import Host

__all__ = [
    "ClusterRouter",
    "RankingHostRouter",
    "PartitionAffinityRouter",
    "RoundRobinHostRouter",
    "CLUSTER_ROUTERS",
    "get_cluster_router",
    "list_cluster_routers",
]

#: Built once per pick from the request and the clock; ranks one host
#: (lower is better).
HostKey = Callable[["InferenceRequest", float], Callable[["Host"], Any]]

_HOST_ID = attrgetter("host_id")


def _ranked(hosts: Sequence["Host"], rank: Callable[["Host"], Any]) -> "Host":
    """The host with the lowest ``(rank, host id)``."""
    return min(zip(map(rank, hosts), map(_HOST_ID, hosts), hosts))[2]


class ClusterRouter:
    """Dispatch policy choosing the host an arriving request is sent to.

    Subclasses implement :meth:`pick` over the eligible hosts.  Routers may
    keep state (round-robin does); :meth:`reset` clears it, and the cluster
    loop calls it at the start of every run.
    """

    #: Registry name; subclasses override.
    name = "cluster-router"

    def reset(self) -> None:
        """Clear per-run state; the cluster loop calls this before every run."""

    def pick(
        self,
        hosts: Sequence["Host"],
        request: "InferenceRequest",
        now_ms: float,
    ) -> "Host":
        """Return the host that should serve ``request`` arriving now."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}({self.name!r})"


class RankingHostRouter(ClusterRouter):
    """Pick the host with the lowest ``(key, host id)``.

    ``key(request, now_ms)`` is built once per pick and ranks each host; ties
    break by host id for determinism.
    """

    def __init__(self, name: str, key: HostKey) -> None:
        self.name = name
        self.key = key

    def pick(self, hosts, request, now_ms):
        """The host ranked first by this router's key."""
        return _ranked(hosts, self.key(request, now_ms))


def _earliest_finish(request: "InferenceRequest", now_ms: float):
    """The host's predicted completion of the request (the default).

    Each host predicts the request's completion with the same arithmetic its
    own earliest-finish worker router uses — batching wait bound, queued work
    ahead, per-worker horizons plus the device execution estimate — so a host
    with fast idle silicon wins over a backlogged one even when queue depths
    look equal.
    """
    return methodcaller("predicted_completion_ms", request)


def _least_loaded(request: "InferenceRequest", now_ms: float):
    """Outstanding work right now: worker-busy milliseconds, then queued samples.

    Blind to device speed — the baseline the prediction-driven router is
    measured against.
    """
    return lambda host: (host.remaining_work_ms(now_ms), host.pending_samples)


class RoundRobinHostRouter(ClusterRouter):
    """Cycle through the eligible hosts in id order, ignoring load."""

    name = "round-robin-host"

    def __init__(self) -> None:
        self._next = 0

    def reset(self) -> None:
        self._next = 0

    def pick(self, hosts, request, now_ms):
        """The next host in the rotation."""
        host = hosts[self._next % len(hosts)]
        self._next += 1
        return host


class PartitionAffinityRouter(ClusterRouter):
    """Send every request of a partitioned model to its stage-0 host.

    The cluster loop assigns the run's :class:`~repro.cluster.partition.
    PartitionPlan` to :attr:`plan` before the first arrival.  Requests for a
    model the plan covers go to the entry stage's host (the rest of the
    pipeline is fixed by the plan anyway); anything else falls back to
    least-loaded placement.
    """

    name = "partition-affinity"

    def __init__(self) -> None:
        #: Set by the cluster loop when the run is partitioned.
        self.plan = None

    def pick(self, hosts, request, now_ms):
        """The plan's stage-0 host, or least-loaded when the plan is silent."""
        if self.plan is not None and (
            request.model == self.plan.model
            or self.plan.stage_for_model(request.model) is not None
        ):
            entry = self.plan.host_of_stage(0)
            for host in hosts:
                if host.host_id == entry:
                    return host
        return _ranked(hosts, _least_loaded(request, now_ms))


#: Cluster router registry: name -> zero-argument constructor.
CLUSTER_ROUTERS: Registry[Callable[[], ClusterRouter]] = Registry(
    "cluster router", instance_of=ClusterRouter
)
for _name, _key in (("earliest-finish-host", _earliest_finish),
                    ("least-loaded-host", _least_loaded)):
    CLUSTER_ROUTERS[_name] = partial(RankingHostRouter, _name, _key)
CLUSTER_ROUTERS[PartitionAffinityRouter.name] = PartitionAffinityRouter
CLUSTER_ROUTERS[RoundRobinHostRouter.name] = RoundRobinHostRouter

#: A fresh cluster router for any spelling of its name; a
#: :class:`ClusterRouter` instance passes through unchanged.
get_cluster_router = CLUSTER_ROUTERS.create
#: Names of all registered cluster routing policies, sorted.
list_cluster_routers = CLUSTER_ROUTERS.names
