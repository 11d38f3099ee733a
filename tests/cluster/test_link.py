"""Tests for the inter-host link-cost model."""

from __future__ import annotations

import pytest

from repro.cluster import LinkModel


class TestLinkModel:
    def test_transfer_cost_is_latency_plus_serialisation(self):
        link = LinkModel(bandwidth_gb_s=10.0, latency_ms=0.1)
        # 10 GB/s == 1e7 bytes/ms: 5 MB takes 0.5 ms on the wire.
        assert link.transfer_ms(5_000_000, 0, 1) == pytest.approx(0.6)

    def test_same_host_transfers_are_free(self):
        link = LinkModel()
        assert link.transfer_ms(1_000_000, 2, 2) == 0.0

    def test_pair_overrides_beat_the_default(self):
        link = LinkModel(
            bandwidth_gb_s=10.0,
            latency_ms=0.1,
            pair_overrides={(0, 1): (1.0, 1.0)},
        )
        assert link.transfer_ms(1_000_000, 0, 1) == pytest.approx(2.0)
        # The override is for the ordered pair; the reverse uses defaults.
        assert link.transfer_ms(1_000_000, 1, 0) == pytest.approx(0.2)

    def test_ingress_disabled_by_default(self):
        link = LinkModel()
        assert not link.models_ingress
        assert link.ingress_ms(1_000_000) == 0.0

    def test_ingress_cost_when_enabled(self):
        link = LinkModel(ingress_gb_s=1.0, ingress_latency_ms=0.5)
        assert link.models_ingress
        assert link.ingress_ms(1_000_000) == pytest.approx(1.5)

    @pytest.mark.parametrize(
        "bad",
        [
            dict(bandwidth_gb_s=0.0),
            dict(bandwidth_gb_s=-1.0),
            dict(latency_ms=-0.1),
            dict(ingress_gb_s=0.0),
            dict(ingress_latency_ms=-1.0),
        ],
    )
    def test_invalid_parameters_rejected(self, bad):
        with pytest.raises(ValueError):
            LinkModel(**bad)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize(
        "field", ["bandwidth_gb_s", "latency_ms", "ingress_gb_s", "ingress_latency_ms"]
    )
    def test_non_finite_parameters_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=field):
            LinkModel(**{field: value})

    @pytest.mark.parametrize(
        "override, part",
        [
            ((float("nan"), 0.1), "bandwidth"),
            ((float("inf"), 0.1), "bandwidth"),
            ((0.0, 0.1), "bandwidth"),
            ((1.0, float("nan")), "latency"),
            ((1.0, float("inf")), "latency"),
            ((1.0, -0.1), "latency"),
        ],
    )
    def test_bad_pair_overrides_rejected_by_name(self, override, part):
        with pytest.raises(ValueError, match=rf"pair_overrides\[\(0, 1\)\] {part}"):
            LinkModel(pair_overrides={(0, 1): override})

    @pytest.mark.parametrize(
        "spec, field",
        [
            ("bw=nan", "bandwidth_gb_s"),
            ("bw=inf", "bandwidth_gb_s"),
            ("lat=inf", "latency_ms"),
            ("lat=nan", "latency_ms"),
            ("ingress=nan", "ingress_gb_s"),
            ("ingress-lat=inf", "ingress_latency_ms"),
        ],
    )
    def test_parse_rejects_non_finite_values(self, spec, field):
        with pytest.raises(ValueError, match=field):
            LinkModel.parse(spec)

    @pytest.mark.parametrize(
        "spec, key", [("bw=12.5,bw=3", "bw"), ("lat=0.1,bw=1,lat=0.1", "lat")]
    )
    def test_parse_rejects_a_repeated_key(self, spec, key):
        with pytest.raises(ValueError, match=f"link key '{key}' repeated"):
            LinkModel.parse(spec)

    def test_parse_round_trips_the_cli_spelling(self):
        link = LinkModel.parse("bw=10,lat=0.2,ingress=2,ingress-lat=0.1")
        assert link == LinkModel(
            bandwidth_gb_s=10.0,
            latency_ms=0.2,
            ingress_gb_s=2.0,
            ingress_latency_ms=0.1,
        )

    def test_parse_empty_spec_is_the_default(self):
        assert LinkModel.parse("") == LinkModel()

    @pytest.mark.parametrize("bad", ["bw", "speed=10", "bw=fast", "=1"])
    def test_parse_rejects_malformed_entries(self, bad):
        with pytest.raises(ValueError, match=repr(bad)):
            LinkModel.parse(bad)

    def test_describe_mentions_ingress_only_when_modeled(self):
        assert LinkModel().describe() == "12.5GB/s+0.05ms"
        assert "ingress 2GB/s" in LinkModel(ingress_gb_s=2.0).describe()
