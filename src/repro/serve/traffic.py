"""Synthetic traffic generation.

Serving experiments need reproducible load.  Two arrival processes cover the
regimes the paper's specialisation study cares about:

* **Poisson** — independent arrivals at a target rate, the standard model of
  aggregate user traffic; inter-arrival gaps are exponential.
* **Bursty** — arrivals clumped into bursts separated by idle gaps, the worst
  case for a fixed schedule and the best case for batching.  Every bursty
  request is labelled with its ``burst_id`` so SLO attainment can be broken
  out per burst after the run.

Per-request sample counts are drawn from a weighted mix (e.g. mostly single
images with occasional multi-image requests), which is what exercises
batch-size-specialised schedules.  SLO-aware workloads attach a latency
budget (``slo_ms`` → ``InferenceRequest.deadline_ms``) and optionally draw a
priority class per request from a weighted mix.  Everything is driven by one
``random.Random(seed)`` so a seed fully determines the workload.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from ..checks import require_int, require_number
from .request import InferenceRequest

__all__ = ["TrafficConfig", "TrafficGenerator", "poisson_arrivals", "bursty_arrivals",
           "bursty_arrival_bursts", "uniform_arrivals"]


def poisson_arrivals(num_requests: int, rate_rps: float, rng: random.Random) -> list[float]:
    """Arrival times (ms) of a Poisson process at ``rate_rps`` requests/second."""
    require_number("rate_rps", rate_rps, positive=True)
    now = 0.0
    arrivals = []
    for _ in range(num_requests):
        now += rng.expovariate(rate_rps) * 1e3
        arrivals.append(now)
    return arrivals


def bursty_arrival_bursts(
    num_requests: int,
    burst_size: int,
    burst_gap_ms: float,
    rng: random.Random,
    intra_burst_ms: float = 0.2,
) -> list[tuple[float, int]]:
    """``(arrival_ms, burst_id)`` pairs of bursts of back-to-back requests.

    Requests within a burst are ``intra_burst_ms`` apart (jittered ±50%);
    bursts start ``burst_gap_ms`` apart (also jittered) — think periodic
    batch jobs or synchronised clients.  When a burst's own span outlasts the
    gap, the next burst starts right where the previous one ended, keeping
    the arrival sequence monotonic (the batcher's input contract).  The
    burst id labels which burst each request belongs to — the boundary
    information that is unrecoverable from the flat arrival list once jitter
    blurs the gaps.
    """
    require_int("burst_size", burst_size)
    require_number("burst_gap_ms", burst_gap_ms, positive=True)
    pairs: list[tuple[float, int]] = []
    burst_start = 0.0
    burst_id = 0
    while len(pairs) < num_requests:
        now = burst_start
        for _ in range(min(burst_size, num_requests - len(pairs))):
            pairs.append((now, burst_id))
            now += intra_burst_ms * (0.5 + rng.random())
        burst_start = max(burst_start + burst_gap_ms * (0.5 + rng.random()), now)
        burst_id += 1
    return pairs


def bursty_arrivals(
    num_requests: int,
    burst_size: int,
    burst_gap_ms: float,
    rng: random.Random,
    intra_burst_ms: float = 0.2,
) -> list[float]:
    """Arrival times (ms) only — see :func:`bursty_arrival_bursts`."""
    return [
        arrival
        for arrival, _ in bursty_arrival_bursts(
            num_requests, burst_size, burst_gap_ms, rng, intra_burst_ms
        )
    ]


def uniform_arrivals(num_requests: int, rate_rps: float, rng: random.Random) -> list[float]:
    """Evenly spaced arrivals at ``rate_rps`` (a deterministic control pattern)."""
    require_number("rate_rps", rate_rps, positive=True)
    gap_ms = 1e3 / rate_rps
    return [index * gap_ms for index in range(num_requests)]


def _check_weights(field: str, weights: tuple[float, ...]) -> None:
    """Raise a ``ValueError`` naming ``field`` unless ``weights`` can be drawn from.

    ``random.choices`` accepts a negative weight and silently skews the mix;
    a NaN or infinite weight, or weights summing to zero, break the draw.
    """
    for index, weight in enumerate(weights):
        require_number(f"{field}[{index}]", weight)
    if not sum(weights) > 0:
        raise ValueError(f"{field} must not sum to zero, got {weights!r}")


@dataclass(frozen=True)
class TrafficConfig:
    """One reproducible synthetic workload."""

    model: str = "inception_v3"
    pattern: str = "poisson"
    num_requests: int = 200
    #: Target arrival rate for poisson/uniform patterns, requests per second.
    rate_rps: float = 200.0
    #: Burst shape for the bursty pattern.
    burst_size: int = 16
    burst_gap_ms: float = 50.0
    #: Candidate per-request sample counts and their weights (mixed demand).
    sample_sizes: tuple[int, ...] = (1, 2, 4)
    sample_weights: tuple[float, ...] = (0.6, 0.25, 0.15)
    #: Latency budget attached to every request (``deadline_ms``); ``None``
    #: generates SLO-free traffic.
    slo_ms: float | None = None
    #: Candidate priority classes and their weights; the default single
    #: class 0 draws no randomness, keeping pre-SLO workloads bit-identical.
    priorities: tuple[int, ...] = (0,)
    priority_weights: tuple[float, ...] = (1.0,)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.pattern not in ("poisson", "bursty", "uniform"):
            raise ValueError(
                f"unknown traffic pattern {self.pattern!r}; "
                "choose from poisson, bursty, uniform"
            )
        require_int("num_requests", self.num_requests)
        if len(self.sample_sizes) != len(self.sample_weights):
            raise ValueError("sample_sizes and sample_weights must have equal length")
        if not self.sample_sizes:
            raise ValueError("sample_sizes must not be empty")
        for index, size in enumerate(self.sample_sizes):
            require_int(f"sample_sizes[{index}]", size)
        _check_weights("sample_weights", self.sample_weights)
        require_int("burst_size", self.burst_size)
        require_number("rate_rps", self.rate_rps, positive=True)
        require_number("burst_gap_ms", self.burst_gap_ms, positive=True)
        if self.slo_ms is not None:
            require_number("slo_ms", self.slo_ms)
        if len(self.priorities) != len(self.priority_weights):
            raise ValueError("priorities and priority_weights must have equal length")
        if not self.priorities:
            raise ValueError("priorities must not be empty")
        _check_weights("priority_weights", self.priority_weights)

    def capped_to(self, max_samples: int) -> "TrafficConfig":
        """A copy whose per-request sample counts all fit ``max_samples``.

        Use this to fit a workload to a service whose batch-size ladder tops
        out below the default sample mix (a request larger than the ladder
        maximum cannot be served).  Oversized entries are dropped from the
        mix; the remaining weights keep their relative proportions.
        """
        pairs = [
            (size, weight)
            for size, weight in zip(self.sample_sizes, self.sample_weights)
            if size <= max_samples
        ]
        if not pairs:
            raise ValueError(
                f"no sample size in {self.sample_sizes} fits max_samples={max_samples}"
            )
        if len(pairs) == len(self.sample_sizes):
            return self
        sizes, weights = zip(*pairs)
        return replace(self, sample_sizes=sizes, sample_weights=weights)

    def with_slo(self, slo_ms: float) -> "TrafficConfig":
        """A copy whose requests all carry an ``slo_ms`` latency budget."""
        return replace(self, slo_ms=slo_ms)


class TrafficGenerator:
    """Turns a :class:`TrafficConfig` into a sorted request list."""

    def __init__(self, config: TrafficConfig):
        self.config = config

    def generate(self) -> list[InferenceRequest]:
        """The full request list (sorted by arrival) for this config's seed."""
        config = self.config
        rng = random.Random(config.seed)
        burst_ids: list[int | None] = [None] * config.num_requests
        if config.pattern == "poisson":
            arrivals = poisson_arrivals(config.num_requests, config.rate_rps, rng)
        elif config.pattern == "bursty":
            pairs = bursty_arrival_bursts(
                config.num_requests, config.burst_size, config.burst_gap_ms, rng
            )
            arrivals = [arrival for arrival, _ in pairs]
            burst_ids = [burst_id for _, burst_id in pairs]
        else:
            arrivals = uniform_arrivals(config.num_requests, config.rate_rps, rng)

        sizes = rng.choices(
            list(config.sample_sizes), weights=list(config.sample_weights),
            k=config.num_requests,
        )
        # A single priority class draws no randomness so that pre-SLO configs
        # keep producing bit-identical workloads for a given seed.
        if len(config.priorities) == 1:
            priorities = [config.priorities[0]] * config.num_requests
        else:
            priorities = rng.choices(
                list(config.priorities), weights=list(config.priority_weights),
                k=config.num_requests,
            )
        return [
            InferenceRequest(
                request_id=index,
                model=config.model,
                arrival_ms=arrival,
                num_samples=size,
                deadline_ms=config.slo_ms,
                priority=priority,
                burst_id=burst_id,
            )
            for index, (arrival, size, priority, burst_id) in enumerate(
                zip(arrivals, sizes, priorities, burst_ids)
            )
        ]
