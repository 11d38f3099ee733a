"""Heterogeneous fleets: mixed-device worker pools and routing policies.

The paper specialises a schedule per ``(model, batch size, device)``; a
production deployment rarely owns a single device generation.  This module
makes the *pool itself* heterogeneous:

* :class:`FleetSpec` declares worker groups — how many workers of each device
  preset the fleet runs (``FleetSpec.parse("k80:2,v100:4")``);
* :class:`Router` is the pluggable dispatch policy choosing a worker for each
  formed batch.  The default :class:`EarliestFinishRouter` minimises the
  *predicted completion time* — queueing delay **plus** the device's predicted
  execution latency from its registry-compiled model — so fast devices absorb
  more traffic without starving the slow ones.  :class:`EarliestStartRouter`
  (the old homogeneous tiebreak), :class:`RoundRobinRouter` and
  :class:`LeastLoadedRouter` are the baselines it is measured against.

A router never measures a device itself: it receives a lazy ``estimate``
callback from the service that resolves to the predicted execution latency of
the batch on a worker's device.  Only routers that need the estimate call it,
so e.g. round-robin routing never forces a compile for a device type that has
not been dispatched to yet.

Example::

    from repro.serve import FleetSpec, ServingConfig

    fleet = FleetSpec.parse("k80:2,v100:4")
    config = ServingConfig(model="squeezenet", fleet=fleet,
                           router="earliest-finish")
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from ..checks import require_int
from ..hardware.device import get_device
from .workers import Worker, earliest_start_worker

__all__ = [
    "FleetSpec",
    "Router",
    "EarliestFinishRouter",
    "EarliestStartRouter",
    "RoundRobinRouter",
    "LeastLoadedRouter",
    "ROUTERS",
    "get_router",
    "list_routers",
]


@dataclass(frozen=True)
class FleetSpec:
    """Declaration of a worker fleet as ordered (device, count) groups.

    Parameters
    ----------
    groups:
        Ordered ``(device_name, count)`` pairs.  Device names are
        canonicalised through :func:`repro.hardware.get_device` (aliases like
        ``"2080ti"`` resolve to their preset name); counts must be positive.
        Repeating a device name (directly or through an alias) is rejected —
        a duplicate is almost always a typo'd count, and silently merging
        would hide it.
    min_workers, max_workers:
        Optional elastic bounds.  When set, a service built on this fleet
        autoscales between them (see :mod:`repro.serve.autoscale`): ``groups``
        declares the *initial* pool, the bounds declare how far the
        autoscaler may shrink or grow it.  ``None`` (the default) keeps the
        pool fixed at its declared size.
    """

    groups: tuple[tuple[str, int], ...]
    min_workers: int | None = None
    max_workers: int | None = None

    def __post_init__(self) -> None:
        if not self.groups:
            raise ValueError("a fleet needs at least one worker group")
        canonicalised: dict[str, int] = {}
        for name, count in self.groups:
            require_int(f"worker count for device {name!r}", count)
            canonical = get_device(name).name
            if canonical in canonicalised:
                raise ValueError(
                    f"duplicate device group {canonical!r} (declared again as "
                    f"{name!r}); declare each device once with its total count"
                )
            canonicalised[canonical] = count
        object.__setattr__(self, "groups", tuple(canonicalised.items()))
        if (self.min_workers is None) != (self.max_workers is None):
            raise ValueError(
                "set min_workers and max_workers together (or neither)"
            )
        if self.min_workers is not None:
            require_int("min_workers", self.min_workers)
            require_int("max_workers", self.max_workers)
            if not self.min_workers <= self.num_workers <= self.max_workers:
                raise ValueError(
                    f"declared fleet size {self.num_workers} must lie within "
                    f"[min_workers={self.min_workers}, "
                    f"max_workers={self.max_workers}]"
                )

    # ------------------------------------------------------------ constructors
    @classmethod
    def parse(cls, spec: str) -> "FleetSpec":
        """Parse the CLI spelling ``"k80:2,v100:4"`` into a fleet.

        A bare device name means one worker (``"v100"`` == ``"v100:1"``).
        Raises :class:`ValueError` on malformed entries and duplicate device
        groups, and :class:`~repro.hardware.UnknownDeviceError` (a
        ``ValueError`` listing the available presets) on unknown device
        names; every message quotes the full ``spec`` verbatim so the
        offending CLI argument is identifiable in the error alone.
        """
        groups: list[tuple[str, int]] = []
        for entry in spec.split(","):
            entry = entry.strip()
            if not entry:
                continue
            name, sep, count = entry.partition(":")
            name, count = name.strip(), count.strip()
            if not name or (sep and not count):
                raise ValueError(f"malformed fleet entry {entry!r} in {spec!r}")
            if count:
                try:
                    workers = int(count)
                except ValueError:
                    raise ValueError(
                        f"worker count in fleet entry {entry!r} must be an "
                        f"integer, got {count!r} in {spec!r}"
                    ) from None
            else:
                workers = 1
            groups.append((name, workers))
        if not groups:
            raise ValueError(f"empty fleet spec {spec!r}")
        try:
            return cls(groups=tuple(groups))
        except ValueError as error:
            # Same error type, with the offending CLI argument in the message.
            raise type(error)(f"{error} (in fleet spec {spec!r})") from None

    @classmethod
    def homogeneous(cls, device: str, count: int) -> "FleetSpec":
        """A fleet of ``count`` identical workers (the pre-fleet pool shape)."""
        return cls(groups=((device, count),))

    def bounded(self, min_workers: int, max_workers: int) -> "FleetSpec":
        """A copy of this fleet with elastic ``[min, max]`` worker bounds."""
        return FleetSpec(
            groups=self.groups, min_workers=min_workers, max_workers=max_workers
        )

    @classmethod
    def of(cls, spec: "FleetSpec | str | Mapping[str, int]") -> "FleetSpec":
        """Coerce any accepted fleet spelling into a :class:`FleetSpec`."""
        if isinstance(spec, FleetSpec):
            return spec
        if isinstance(spec, str):
            return cls.parse(spec)
        if isinstance(spec, Mapping):
            return cls(groups=tuple(spec.items()))
        raise TypeError(
            f"cannot build a FleetSpec from {type(spec).__name__}; "
            "pass a FleetSpec, a 'dev:count,...' string, or a {device: count} mapping"
        )

    # -------------------------------------------------------------- inspection
    @property
    def num_workers(self) -> int:
        """Total worker count over all groups."""
        return sum(count for _, count in self.groups)

    @property
    def is_homogeneous(self) -> bool:
        """Whether the fleet runs a single device type."""
        return len(self.groups) == 1

    def device_names(self) -> tuple[str, ...]:
        """One entry per worker, expanded in group order (pool layout)."""
        return tuple(
            name for name, count in self.groups for _ in range(count)
        )

    def device_types(self) -> tuple[str, ...]:
        """The distinct device presets in the fleet, in group order."""
        return tuple(name for name, _ in self.groups)

    def primary_device(self) -> str:
        """The first declared device preset — what the autoscaler spawns."""
        return self.groups[0][0]

    @property
    def is_elastic(self) -> bool:
        """Whether this fleet declares autoscale bounds."""
        return self.min_workers is not None

    def describe(self) -> str:
        """The canonical ``"k80:2,v100:4"`` spelling of this fleet."""
        return ",".join(f"{name}:{count}" for name, count in self.groups)

    def __str__(self) -> str:
        return self.describe()


# --------------------------------------------------------------------------- #
# Routers                                                                      #
# --------------------------------------------------------------------------- #

#: Lazy predicted execution latency (ms) of the batch on a worker's device.
LatencyEstimate = Callable[[Worker], float]


class Router:
    """Dispatch policy: choose the worker a formed batch executes on.

    Subclasses implement :meth:`pick`.  ``estimate(worker)`` returns the
    predicted execution latency of the batch on that worker's device (derived
    from the registry-compiled model for the batch's ladder rung); routers
    that ignore it never trigger a compile for an untouched device type.
    Routers may keep state (round-robin does); :meth:`reset` clears it
    between runs.
    """

    #: Registry name; subclasses override.
    name = "router"

    def reset(self) -> None:
        """Clear per-run state; the serving loop calls this before every run."""

    def pick(self, workers: Sequence[Worker], ready_ms: float,
             estimate: LatencyEstimate) -> Worker:
        """Return the worker that should execute a batch ready at ``ready_ms``."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}()"


class EarliestFinishRouter(Router):
    """Minimise predicted completion: start time + device execution latency.

    The device-aware policy: a fast device with a short queue wins over an
    idle slow one whenever its predicted finish is earlier, so mixed fleets
    put their fast silicon to work without letting slow workers idle under
    load.  Ties break by worker id for determinism.
    """

    name = "earliest-finish"

    def pick(self, workers: Sequence[Worker], ready_ms: float,
             estimate: LatencyEstimate) -> Worker:
        """The worker with the earliest ``start + estimate(worker)``."""
        # One estimate per device type, not per worker: replicas are identical.
        per_device: dict[str, float] = {}

        def finish(worker: Worker) -> float:
            latency = per_device.get(worker.device.name)
            if latency is None:
                latency = per_device[worker.device.name] = estimate(worker)
            return max(worker.busy_until_ms, ready_ms) + latency

        return min(workers, key=lambda worker: (finish(worker), worker.worker_id))


class EarliestStartRouter(Router):
    """Pick the worker that can *start* earliest (the homogeneous-pool rule).

    Ignores device speed entirely — correct when every worker runs the same
    device, a baseline to beat when they do not.
    """

    name = "earliest-start"

    def pick(self, workers: Sequence[Worker], ready_ms: float,
             estimate: LatencyEstimate) -> Worker:
        """The worker whose horizon clears first (``estimate`` unused)."""
        return earliest_start_worker(workers, ready_ms)


class RoundRobinRouter(Router):
    """Cycle through the workers in id order, ignoring load and speed."""

    name = "round-robin"

    def __init__(self) -> None:
        self._next = 0

    def reset(self) -> None:
        self._next = 0

    def pick(self, workers: Sequence[Worker], ready_ms: float,
             estimate: LatencyEstimate) -> Worker:
        """The next worker in the rotation (``estimate`` unused)."""
        worker = workers[self._next % len(workers)]
        self._next += 1
        return worker


class LeastLoadedRouter(Router):
    """Pick the worker with the least total work assigned so far (``busy_ms``).

    Balances cumulative load rather than instantaneous queue depth; on a
    mixed fleet it systematically under-uses fast devices (they finish their
    share early), which is exactly why it is a useful baseline.
    """

    name = "least-loaded"

    def pick(self, workers: Sequence[Worker], ready_ms: float,
             estimate: LatencyEstimate) -> Worker:
        """The worker with the smallest ``busy_ms`` (``estimate`` unused)."""
        return min(workers, key=lambda worker: (worker.busy_ms, worker.worker_id))


#: Router registry: name → zero-argument constructor.
ROUTERS: dict[str, Callable[[], Router]] = {
    EarliestFinishRouter.name: EarliestFinishRouter,
    EarliestStartRouter.name: EarliestStartRouter,
    RoundRobinRouter.name: RoundRobinRouter,
    LeastLoadedRouter.name: LeastLoadedRouter,
}


def get_router(name: "str | Router") -> Router:
    """A fresh router instance for ``name`` (case/underscore tolerant).

    Accepts an already-built :class:`Router` unchanged, so configs can carry
    either a name or an instance.  Raises :class:`ValueError` listing the
    registered policies on an unknown name.
    """
    if isinstance(name, Router):
        return name
    key = name.strip().lower().replace("_", "-").replace(" ", "-")
    factory = ROUTERS.get(key)
    if factory is None:
        raise ValueError(
            f"unknown router {name!r}; registered routers: {', '.join(sorted(ROUTERS))}"
        )
    return factory()


def list_routers() -> list[str]:
    """Names of all registered routing policies."""
    return sorted(ROUTERS)
