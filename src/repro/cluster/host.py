"""One simulated host: a serving stack plus its ingress NIC horizon.

A :class:`Host` owns a full single-host serving stack — an
:class:`~repro.serve.service.InferenceService` whose
:class:`~repro.serve.loop.ServingLoop` the cluster loop starts on its shared
event queue (``begin``), hands arrivals (``arrive``) and finishes
(``finish``) — and the one piece of state that lives *between* hosts: the
time its ingress NIC is busy until.  Requests routed to a host pass through
:meth:`Host.ingress_delivery_ms`, which serialises concurrent deliveries when
the cluster's :class:`~repro.cluster.link.LinkModel` models ingress (and is
the identity function when it does not, keeping a 1-host cluster
byte-identical to the plain loop).

:class:`HostSpec` is the declarative half: the fleet a host runs and the
weight memory it can hold.  The memory bound gates *placement* — a host whose
memory cannot hold a model's weights is not eligible to serve it — which is
what makes partitioned placement win on small-memory fleets (see
:func:`~repro.cluster.partition.partition_graph`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..checks import require_number
from ..obs.metrics import ordered_sum
from ..serve.fleet import FleetSpec

if TYPE_CHECKING:  # pragma: no cover - types only
    from ..serve.loop import LoopState, ServingLoop
    from ..serve.request import InferenceRequest
    from ..serve.service import InferenceService
    from .link import LinkModel

__all__ = ["Host", "HostSpec"]


@dataclass(frozen=True)
class HostSpec:
    """Declaration of one host: its worker fleet and weight memory."""

    fleet: FleetSpec
    #: Weight memory in gigabytes; ``None`` means unbounded.  Placement
    #: (whole-model or a partition stage) must fit this bound.
    memory_gb: float | None = None

    def __post_init__(self) -> None:
        if self.memory_gb is not None:
            require_number("host memory_gb", self.memory_gb, positive=True)

    def fits(self, weight_bytes: int) -> bool:
        """Whether ``weight_bytes`` of resident weights fit this host."""
        return self.memory_gb is None or weight_bytes <= self.memory_gb * 1e9

    def describe(self) -> str:
        text = self.fleet.describe()
        if self.memory_gb is not None:
            text += f" mem={self.memory_gb:g}GB"
        return text


class Host:
    """A serving stack pinned to one host id, advancing on the shared clock.

    The cluster loop is the only writer: it hands arrivals to ``host.loop``,
    whose internal events share the cluster's event queue and so process in
    global time order, and moves stage tensors between hosts.  The host itself only adds the ingress
    horizon — everything else delegates to the wrapped service.
    """

    def __init__(self, host_id: int, spec: HostSpec, service: "InferenceService"):
        self.host_id = host_id
        self.spec = spec
        self.service = service
        #: Model name this host's loop serves (a stage model when partitioned).
        self.model = service.config.model
        #: Time the host's ingress NIC is busy until (serialised deliveries).
        self._ingress_free_ms = 0.0

    # ------------------------------------------------------------- delegation
    @property
    def loop(self) -> "ServingLoop":
        return self.service.loop

    @property
    def state(self) -> "LoopState":
        return self.service.loop.state

    @property
    def name(self) -> str:
        return f"host{self.host_id}"

    # ---------------------------------------------------------------- ingress
    def reset(self) -> None:
        """Clear inter-run host state (the loop resets itself in ``begin``)."""
        self._ingress_free_ms = 0.0

    def ingress_delivery_ms(
        self, sent_ms: float, num_bytes: float, link: "LinkModel"
    ) -> float:
        """When a tensor sent at ``sent_ms`` finishes arriving on this host.

        With ingress modeling off this is ``sent_ms`` — delivery is
        instantaneous, exactly like the single-host loop.  With it on, the
        NIC serialises: the delivery starts when the NIC frees up and
        occupies it for :meth:`~repro.cluster.link.LinkModel.ingress_ms`.
        """
        if not link.models_ingress:
            return sent_ms
        start_ms = max(sent_ms, self._ingress_free_ms)
        delivery_ms = start_ms + link.ingress_ms(num_bytes)
        self._ingress_free_ms = delivery_ms
        return delivery_ms

    # ------------------------------------------------------- router accessors
    def remaining_work_ms(self, now_ms: float) -> float:
        """Total worker-busy milliseconds still ahead of ``now_ms``."""
        return ordered_sum(
            max(0.0, worker.busy_until_ms - now_ms)
            for worker in self.service.pool.workers
        )

    @property
    def pending_samples(self) -> int:
        """Samples in the host loop's forming batch."""
        return self.state.pending_samples

    def predicted_completion_ms(self, request: "InferenceRequest") -> float:
        """Earliest predicted completion of ``request`` on this host."""
        return self.state.predicted_completion_ms(request)

    # ------------------------------------------------------------------ pretty
    def describe(self) -> str:
        return f"{self.name}: {self.spec.describe()}, model {self.model!r}"

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<Host {self.host_id} fleet={self.spec.fleet.describe()!r}>"
