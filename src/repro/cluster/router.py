"""Cluster-level routing: pick the host a request is dispatched to.

The single-host :mod:`repro.serve.fleet` routers pick a *worker* for a formed
batch; these policies act one level up, picking a *host* for each arriving
request before it ever reaches a loop.  The two layers compose: the cluster
router spreads requests over hosts, then each host's worker router places the
batches its loop forms.

Policies mirror the fleet registry idiom — a ``name`` attribute, a
``CLUSTER_ROUTERS`` table, :func:`get_cluster_router` /
:func:`list_cluster_routers` — so the CLI spelling is uniform
(``--cluster-router earliest-finish-host``).

``eligible`` is the placement-filtered host list: under partitioning only the
stage-0 host receives external arrivals, and under per-host memory bounds
only hosts whose memory holds the model's weights are candidates.  Routers
never second-guess eligibility.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:  # pragma: no cover - types only
    from ..serve.request import InferenceRequest
    from .host import Host

__all__ = [
    "ClusterRouter",
    "EarliestFinishHostRouter",
    "LeastLoadedHostRouter",
    "PartitionAffinityRouter",
    "RoundRobinHostRouter",
    "CLUSTER_ROUTERS",
    "get_cluster_router",
    "list_cluster_routers",
]


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
        return f"{type(self).__name__}()"


class EarliestFinishHostRouter(ClusterRouter):
    """Minimise the host's predicted completion of the request (the default).

    Each host predicts the request's completion with the same arithmetic its
    own earliest-finish worker router uses — batching wait bound, queued work
    ahead, per-worker horizons plus the device execution estimate — so a host
    with fast idle silicon wins over a backlogged one even when queue depths
    look equal.  Ties break by host id.
    """

    name = "earliest-finish-host"

    def pick(self, hosts, request, now_ms):
        """The host with the earliest predicted request completion."""
        return min(
            hosts,
            key=lambda host: (host.predicted_completion_ms(request), host.host_id),
        )


class LeastLoadedHostRouter(ClusterRouter):
    """Pick the host with the least outstanding work right now.

    Ranks by remaining worker-busy milliseconds, then samples waiting in the
    forming batch, then host id.  Blind to device speed — the baseline the
    prediction-driven router is measured against.
    """

    name = "least-loaded-host"

    def pick(self, hosts, request, now_ms):
        """The host with the smallest (busy horizon, queued samples)."""
        return min(
            hosts,
            key=lambda host: (
                host.remaining_work_ms(now_ms),
                host.pending_samples,
                host.host_id,
            ),
        )


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
        self._fallback = LeastLoadedHostRouter()

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
        return self._fallback.pick(hosts, request, now_ms)


#: Cluster router registry: name → zero-argument constructor.
CLUSTER_ROUTERS: dict[str, Callable[[], ClusterRouter]] = {
    EarliestFinishHostRouter.name: EarliestFinishHostRouter,
    LeastLoadedHostRouter.name: LeastLoadedHostRouter,
    PartitionAffinityRouter.name: PartitionAffinityRouter,
    RoundRobinHostRouter.name: RoundRobinHostRouter,
}


def get_cluster_router(name: "str | ClusterRouter") -> ClusterRouter:
    """A fresh cluster router for ``name`` (case/underscore tolerant).

    Accepts an already-built :class:`ClusterRouter` unchanged; raises
    :class:`ValueError` listing the registered policies on an unknown name.
    """
    if isinstance(name, ClusterRouter):
        return name
    key = name.strip().lower().replace("_", "-").replace(" ", "-")
    factory = CLUSTER_ROUTERS.get(key)
    if factory is None:
        raise ValueError(
            f"unknown cluster router {name!r}; registered routers: "
            f"{', '.join(sorted(CLUSTER_ROUTERS))}"
        )
    return factory()


def list_cluster_routers() -> list[str]:
    """Names of all registered cluster routing policies."""
    return sorted(CLUSTER_ROUTERS)
