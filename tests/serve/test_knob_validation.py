"""Serving knobs reject NaN, infinities and malformed batch-size ladders.

NaN compares false against every bound, so a plain ``< 0`` check lets it
through: a NaN ``max_wait_ms`` silently halves the batches and multiplies the
p99, an infinite one makes the makespan infinite.  Each knob fails at
construction with a ``ValueError`` that names it.
"""

from __future__ import annotations

import math

import pytest

from repro.experiments.cli import main
from repro.obs import TimeSeriesRegistry
from repro.serve import AutoscaleConfig, BatchPolicy, ServingConfig, TrafficConfig

NON_FINITE = (math.nan, math.inf, -math.inf)

KNOBS = [
    ("max_wait_ms", lambda value: BatchPolicy(8, value)),
    ("rate_rps", lambda value: TrafficConfig(rate_rps=value)),
    ("burst_gap_ms", lambda value: TrafficConfig(pattern="bursty", burst_gap_ms=value)),
    ("slo_ms", lambda value: TrafficConfig(slo_ms=value)),
    ("interval_ms", lambda value: AutoscaleConfig(interval_ms=value)),
    ("scale_up_backlog_ms", lambda value: AutoscaleConfig(scale_up_backlog_ms=value)),
    ("cooldown_ms", lambda value: AutoscaleConfig(cooldown_ms=value)),
    ("window_ms", lambda value: TimeSeriesRegistry(window_ms=value)),
]


@pytest.mark.parametrize("field,build", KNOBS, ids=[field for field, _ in KNOBS])
@pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "inf", "-inf"])
def test_non_finite_knob_is_rejected_by_name(field, build, value):
    with pytest.raises(ValueError, match=field):
        build(value)


@pytest.mark.parametrize(
    "flag", ["--max-wait-ms", "--rate", "--burst-gap-ms", "--slo", "--window-ms"]
)
def test_cli_rejects_a_non_finite_flag_with_a_usage_error(flag, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["serve", "--model", "squeezenet", flag, "nan"])
    assert exit_info.value.code == 2
    assert f"{flag} must be a finite number" in capsys.readouterr().err


@pytest.mark.parametrize(
    "ladder", [(1.5, 2), (True, 2), (0, 1, 2), (-2, 4), ("2", 4), (1, 2, 2)],
    ids=["float", "bool", "zero", "negative", "string", "duplicate"],
)
def test_malformed_ladder_is_rejected_at_config_time(ladder):
    with pytest.raises(ValueError, match="batch_sizes"):
        ServingConfig(model="squeezenet", batch_sizes=ladder)
