"""Inter-host link model: bandwidth + latency costs for cluster transfers.

The paper's transfer-cost model stops at one device pool — tensors move
between stages over PCIe under a contention factor.  :class:`LinkModel`
extends it one level up: moving a tensor **between hosts** costs a per-pair
propagation latency plus serialisation time at a per-pair bandwidth, and
moving a request's input tensor **onto** a host can additionally be bounded
by the host's ingress NIC, which serialises concurrent deliveries.

Two distinct costs, two distinct mechanisms:

* :meth:`LinkModel.transfer_ms` — point-to-point host→host cost used for
  partitioned stage handoffs (send/recv boundary tensors).  Modeled as
  uncontended: each ordered host pair is its own link.
* :meth:`LinkModel.ingress_ms` — the serialised per-host NIC.  ``None``
  (the default) disables ingress modeling entirely: requests materialise on
  their host at arrival time, exactly like the single-host loop.  When set,
  the cluster loop serialises deliveries per host (see
  :meth:`~repro.cluster.host.Host.ingress_delivery_ms`) — the physical
  reason a scale-out cluster can beat one big host of equal compute.

All sizes are bytes, all times milliseconds, bandwidths GB/s
(1 GB/s == 1e6 bytes per millisecond).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from ..checks import require_number

__all__ = ["LinkModel"]

#: 1 GB/s expressed in bytes per millisecond.
_BYTES_PER_MS_PER_GBS = 1e6


@dataclass(frozen=True)
class LinkModel:
    """Bandwidth + latency per host pair, plus an optional ingress NIC."""

    #: Default host-to-host bandwidth (GB/s) — 100 GbE worth of payload.
    bandwidth_gb_s: float = 12.5
    #: Default host-to-host propagation latency (ms).
    latency_ms: float = 0.05
    #: Ingress NIC bandwidth per host (GB/s); ``None`` disables ingress
    #: modeling (deliveries are instantaneous, as in the single-host loop).
    ingress_gb_s: float | None = None
    #: Fixed per-delivery ingress latency (ms), applied when ingress is on.
    ingress_latency_ms: float = 0.0
    #: Per-ordered-pair overrides: ``{(src, dst): (gb_s, latency_ms)}``.
    pair_overrides: Mapping[tuple[int, int], tuple[float, float]] = field(
        default_factory=dict
    )

    def __post_init__(self) -> None:
        require_number("link bandwidth_gb_s", self.bandwidth_gb_s, positive=True)
        require_number("link latency_ms", self.latency_ms)
        if self.ingress_gb_s is not None:
            require_number("link ingress_gb_s", self.ingress_gb_s, positive=True)
        require_number("link ingress_latency_ms", self.ingress_latency_ms)
        for pair, (bandwidth, latency) in self.pair_overrides.items():
            require_number(f"link pair_overrides[{pair}] bandwidth", bandwidth, positive=True)
            require_number(f"link pair_overrides[{pair}] latency", latency)

    # ------------------------------------------------------------------- costs
    def pair(self, src: int, dst: int) -> tuple[float, float]:
        """The ``(bandwidth_gb_s, latency_ms)`` of the ordered host pair."""
        return self.pair_overrides.get((src, dst), (self.bandwidth_gb_s, self.latency_ms))

    def transfer_ms(self, num_bytes: float, src: int, dst: int) -> float:
        """Host→host transfer cost of ``num_bytes`` (0 on the same host)."""
        if src == dst:
            return 0.0
        bandwidth, latency = self.pair(src, dst)
        return latency + num_bytes / (bandwidth * _BYTES_PER_MS_PER_GBS)

    @property
    def models_ingress(self) -> bool:
        """Whether per-host ingress serialisation is enabled."""
        return self.ingress_gb_s is not None

    def ingress_ms(self, num_bytes: float) -> float:
        """Serialisation time of one delivery on a host's ingress NIC."""
        if self.ingress_gb_s is None:
            return 0.0
        return self.ingress_latency_ms + num_bytes / (
            self.ingress_gb_s * _BYTES_PER_MS_PER_GBS
        )

    # ------------------------------------------------------------------ pretty
    def describe(self) -> str:
        """Compact human-readable form for reports, e.g. ``12.5GB/s+0.05ms``."""
        text = f"{self.bandwidth_gb_s:g}GB/s+{self.latency_ms:g}ms"
        if self.models_ingress:
            text += f", ingress {self.ingress_gb_s:g}GB/s"
            if self.ingress_latency_ms:
                text += f"+{self.ingress_latency_ms:g}ms"
        return text

    # ------------------------------------------------------------------- parse
    @classmethod
    def parse(cls, spec: str) -> "LinkModel":
        """Parse a CLI spec like ``"bw=10,lat=0.05,ingress=2,ingress-lat=0.1"``.

        Unknown keys raise; every key is optional and falls back to the
        dataclass default.  An empty spec returns the default model.
        """
        kwargs: dict[str, float] = {}
        keys = {
            "bw": "bandwidth_gb_s",
            "lat": "latency_ms",
            "ingress": "ingress_gb_s",
            "ingress-lat": "ingress_latency_ms",
        }
        for entry in filter(None, (part.strip() for part in spec.split(","))):
            key, sep, value = entry.partition("=")
            if not sep or key.strip() not in keys:
                raise ValueError(
                    f"malformed link entry {entry!r} in {spec!r}; expected "
                    f"key=value with keys {sorted(keys)}"
                )
            field_name = keys[key.strip()]
            if field_name in kwargs:
                raise ValueError(f"link key {key.strip()!r} repeated in {spec!r}")
            try:
                kwargs[field_name] = float(value)
            except ValueError:
                raise ValueError(
                    f"link value in entry {entry!r} must be a number, "
                    f"in {spec!r}"
                ) from None
        return cls(**kwargs)
