"""Tests for variant-name normalization (the anti-drift satellite)."""

from __future__ import annotations

import pytest

from repro.checks import UnknownNameError
from repro.core import (
    SchedulerConfig,
    VALID_VARIANTS,
    normalize_variant,
    variant_label,
)


class TestNormalizeVariant:
    @pytest.mark.parametrize("spelling,expected", [
        ("ios-both", "ios-both"),
        ("ios-parallel", "ios-parallel"),
        ("ios-merge", "ios-merge"),
        ("IOS-Both", "ios-both"),
        ("ios_merge", "ios-merge"),
        ("IOS_PARALLEL", "ios-parallel"),
        ("both", "ios-both"),
        ("merge", "ios-merge"),
        ("parallel", "ios-parallel"),
        ("  ios-both  ", "ios-both"),
    ])
    def test_accepted_spellings(self, spelling, expected):
        assert normalize_variant(spelling) == expected

    @pytest.mark.parametrize("bad", ["ios-quantum", "", "bothh", None, 3])
    def test_bad_input_raises_value_error_listing_variants(self, bad):
        with pytest.raises(ValueError) as excinfo:
            normalize_variant(bad)
        for name in VALID_VARIANTS:
            assert name in str(excinfo.value)

    def test_error_is_also_a_key_error(self):
        # SchedulerConfig.variant historically raised KeyError; both
        # exception idioms must keep working.
        with pytest.raises(KeyError):
            normalize_variant("ios-quantum")
        assert issubclass(UnknownNameError, ValueError)
        assert issubclass(UnknownNameError, KeyError)


class TestDriftedConsumersAgree:
    def test_scheduler_config_accepts_drifted_spellings(self):
        assert (
            SchedulerConfig.variant("IOS_Both").strategies
            == SchedulerConfig.variant("ios-both").strategies
        )
        assert variant_label(SchedulerConfig.variant("merge")) == "ios-merge"

    def test_serving_config_normalizes(self):
        from repro.serve import ServingConfig

        config = ServingConfig(model="toy", variant="Both")
        assert config.variant == "ios-both"
        with pytest.raises(ValueError):
            ServingConfig(model="toy", variant="ios-quantum")

    def test_engine_normalizes(self, v100):
        from repro.engine import Engine

        assert Engine(v100, variant="MERGE").variant == "ios-merge"
        with pytest.raises(ValueError):
            Engine(v100, variant="nope")

    def test_cli_rejects_bad_variant_with_a_clean_error(self, capsys):
        from repro.experiments.cli import serve_main

        with pytest.raises(SystemExit):
            serve_main(["--variant", "ios-quantum", "--requests", "1"])
        err = capsys.readouterr().err
        assert "registered IOS variant names" in err

    def test_cli_accepts_drifted_variant(self, tmp_path, capsys):
        from repro.experiments.cli import serve_main

        assert serve_main([
            "--model", "squeezenet", "--variant", "Both", "--requests", "5",
            "--batch-sizes", "1,2", "--num-workers", "1",
            "--registry-dir", str(tmp_path),
        ]) == 0
        # The persisted key uses the canonical name.
        assert list((tmp_path / "squeezenet").glob("v100__cudnn__ios-both__*.json"))
