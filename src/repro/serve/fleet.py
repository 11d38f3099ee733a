"""Heterogeneous fleets: mixed-device worker pools and routing policies.

The paper specialises a schedule per ``(model, batch size, device)``; a
production deployment rarely owns a single device generation.  This module
makes the *pool itself* heterogeneous:

* :class:`FleetSpec` declares worker groups — how many workers of each device
  preset the fleet runs (``FleetSpec.parse("k80:2,v100:4")``);
* :class:`Router` is the pluggable dispatch policy choosing a worker for each
  formed batch.  The default ``earliest-finish`` :class:`RankingRouter`
  minimises the *predicted completion time* — queueing delay **plus** the
  device's predicted execution latency from its registry-compiled model — so
  fast devices absorb more traffic without starving the slow ones.
  ``earliest-start`` (the old homogeneous tiebreak), ``least-loaded`` and
  :class:`RoundRobinRouter` are the baselines it is measured against.

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
from functools import partial
from operator import attrgetter
from typing import Any, Callable, Mapping, Sequence

from ..checks import Registry, require_int
from ..hardware.device import get_device
from .workers import Worker

__all__ = [
    "FleetSpec",
    "Router",
    "RankingRouter",
    "RoundRobinRouter",
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
        groups, and :class:`~repro.checks.UnknownNameError` (a
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
#: Built once per pick from the batch's ``ready_ms`` and ``estimate``; ranks
#: one worker (lower is better).
RankKey = Callable[[float, LatencyEstimate], Callable[[Worker], Any]]

_WORKER_ID = attrgetter("worker_id")
_BUSY_MS = attrgetter("busy_ms")


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
        return f"{type(self).__name__}({self.name!r})"


class RankingRouter(Router):
    """Pick the worker with the lowest ``(key, worker id)``.

    ``key(ready_ms, estimate)`` is built once per pick and ranks each worker;
    ties break by worker id for determinism.
    """

    def __init__(self, name: str, key: RankKey) -> None:
        self.name = name
        self.key = key

    def pick(self, workers: Sequence[Worker], ready_ms: float,
             estimate: LatencyEstimate) -> Worker:
        """The worker ranked first by this router's key."""
        rank = self.key(ready_ms, estimate)
        return min(zip(map(rank, workers), map(_WORKER_ID, workers), workers))[2]


def _earliest_finish(ready_ms: float, estimate: LatencyEstimate) -> Callable[[Worker], float]:
    """Predicted completion: start time + the device's execution latency.

    The device-aware default: a fast device with a short queue wins over an
    idle slow one whenever its predicted finish is earlier, so mixed fleets
    put their fast silicon to work without letting slow workers idle under
    load.  ``estimate`` is asked once per device type: replicas are identical.
    """
    per_device: dict[str, float] = {}

    def finish(worker: Worker) -> float:
        latency = per_device.get(worker.device.name)
        if latency is None:
            latency = per_device[worker.device.name] = estimate(worker)
        return max(worker.busy_until_ms, ready_ms) + latency

    return finish


def _earliest_start(ready_ms: float, estimate: LatencyEstimate) -> Callable[[Worker], float]:
    """When the worker's horizon clears (the homogeneous-pool rule).

    Ignores device speed entirely — correct when every worker runs the same
    device, a baseline to beat when they do not.
    """
    return lambda worker: max(worker.busy_until_ms, ready_ms)


def _least_loaded(ready_ms: float, estimate: LatencyEstimate) -> Callable[[Worker], float]:
    """Total work assigned so far (``busy_ms``).

    Balances cumulative load rather than instantaneous queue depth; on a
    mixed fleet it systematically under-uses fast devices (they finish their
    share early), which is exactly why it is a useful baseline.
    """
    return _BUSY_MS


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


#: Router registry: name -> zero-argument constructor.
ROUTERS: Registry[Callable[[], Router]] = Registry("router", instance_of=Router)
for _name, _key in (("earliest-finish", _earliest_finish),
                   ("earliest-start", _earliest_start),
                   ("least-loaded", _least_loaded)):
    ROUTERS[_name] = partial(RankingRouter, _name, _key)
ROUTERS[RoundRobinRouter.name] = RoundRobinRouter

#: A fresh router for any spelling of its name; a :class:`Router` instance
#: passes through unchanged, so configs can carry either.
get_router = ROUTERS.create
#: Names of all registered routing policies, sorted.
list_routers = ROUTERS.names
