"""Serving knobs reject NaN, infinities, non-integer counts and bad ladders.

NaN compares false against every bound, so a plain ``< 0`` check lets it
through: a NaN ``max_wait_ms`` silently halves the batches and multiplies the
p99, an infinite one makes the makespan infinite.  A count that is a bool or
a float passes a ``<= 0`` check too (``True`` silently means 1).  Each knob
fails at construction with a ``ValueError`` that names it.
"""

from __future__ import annotations

import math

import pytest

from repro.checks import UnknownNameError
from repro.cluster import ClusterConfig
from repro.experiments.cli import main
from repro.frameworks import get_framework
from repro.models import resolve_zoo_builder
from repro.obs import TimeSeriesRegistry
from repro.serve import (
    AutoscaleConfig,
    BatchPolicy,
    BatchSizeSelector,
    ServingConfig,
    TrafficConfig,
    TrafficGenerator,
)

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


#: Each flag is checked where its knob is declared; the message names the field.
FIELDS = {
    "--max-wait-ms": "max_wait_ms", "--rate": "rate_rps", "--burst-gap-ms": "burst_gap_ms",
    "--slo": "slo_ms", "--window-ms": "window_ms",
}


@pytest.mark.parametrize("flag", list(FIELDS))
def test_cli_rejects_a_non_finite_flag_with_a_usage_error(flag, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["serve", "--model", "squeezenet", flag, "nan"])
    assert exit_info.value.code == 2
    assert f"{FIELDS[flag]} must be a finite number" in capsys.readouterr().err


@pytest.mark.parametrize(
    "ladder", [(1.5, 2), (True, 2), (0, 1, 2), (-2, 4), ("2", 4), (1, 2, 2)],
    ids=["float", "bool", "zero", "negative", "string", "duplicate"],
)
def test_malformed_ladder_is_rejected_at_config_time(ladder):
    with pytest.raises(ValueError, match="batch_sizes"):
        ServingConfig(model="squeezenet", batch_sizes=ladder)


NOT_COUNTS = (True, False, 2.0, 2.5, "2", None, 0, -1)


@pytest.mark.parametrize(
    "field,build",
    [
        ("max_batch_size", lambda value: BatchPolicy(value, 2.0)),
        ("min_workers", lambda value: AutoscaleConfig(min_workers=value, max_workers=4)),
        ("max_workers", lambda value: AutoscaleConfig(min_workers=1, max_workers=value)),
    ],
    ids=["max_batch_size", "min_workers", "max_workers"],
)
@pytest.mark.parametrize("value", NOT_COUNTS, ids=repr)
def test_a_count_that_is_not_a_positive_int_is_rejected_by_name(field, build, value):
    with pytest.raises(ValueError, match=field):
        build(value)


def test_bool_batch_size_no_longer_means_one():
    with pytest.raises(ValueError, match="max_batch_size"):
        BatchPolicy(True, 2.0)
    assert BatchPolicy(1, 2.0).max_batch_size == 1


@pytest.mark.parametrize(
    "field,overrides",
    [
        ("sample_sizes", dict(sample_sizes=(0, 1), sample_weights=(0.5, 0.5))),
        ("sample_sizes", dict(sample_sizes=(1.5,), sample_weights=(1.0,))),
        ("sample_sizes", dict(sample_sizes=(True, 2), sample_weights=(0.5, 0.5))),
        ("sample_sizes", dict(sample_sizes=(-4,), sample_weights=(1.0,))),
        ("burst_size", dict(pattern="bursty", burst_size=0)),
        ("burst_size", dict(burst_size=-3)),
        ("sample_weights", dict(sample_weights=(-0.1, 0.6, 0.5))),
        ("sample_weights", dict(sample_weights=(math.nan, 0.5, 0.5))),
        ("sample_weights", dict(sample_weights=(math.inf, 0.5, 0.5))),
        ("sample_weights", dict(sample_weights=(0.0, 0.0, 0.0))),
        ("priority_weights", dict(priorities=(0, 1), priority_weights=(-1.0, 2.0))),
        ("priority_weights", dict(priorities=(0, 1), priority_weights=(math.nan, 1.0))),
        ("priority_weights", dict(priorities=(0, 1), priority_weights=(1.0, -math.inf))),
        ("priority_weights", dict(priorities=(0,), priority_weights=(0.0,))),
    ],
    ids=[
        "zero-size", "float-size", "bool-size", "negative-size", "zero-burst",
        "negative-burst", "negative-weight", "nan-weight", "inf-weight",
        "zero-sum-weights", "negative-priority-weight", "nan-priority-weight",
        "inf-priority-weight", "zero-sum-priority-weights",
    ],
)
def test_malformed_traffic_is_rejected_at_construction(field, overrides):
    with pytest.raises(ValueError, match=field):
        TrafficConfig(**overrides)


def test_valid_traffic_still_generates():
    config = TrafficConfig(
        pattern="bursty", num_requests=40, burst_size=1, sample_sizes=(1, 3),
        sample_weights=(0.0, 2.0), priorities=(0, 2), priority_weights=(1, 0),
        seed=4,
    )
    requests = TrafficGenerator(config).generate()
    assert {request.num_samples for request in requests} == {3}
    assert {request.priority for request in requests} == {0}


@pytest.mark.parametrize(
    "ladder", [(1.5, 2), (True, 2), (0, 1, 2), (-2, 4), (1, 2, 2), ()],
    ids=["float", "bool", "zero", "negative", "duplicate", "empty"],
)
def test_the_selector_shares_the_config_ladder_check(ladder):
    with pytest.raises(ValueError, match="batch_sizes"):
        BatchSizeSelector(registry=None, batch_sizes=ladder)


@pytest.mark.parametrize("ladder", ["0,1", "1,2,2", "-2,4", ","])
def test_cli_reports_a_malformed_ladder_from_the_config(ladder, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["serve", "--model", "squeezenet", f"--batch-sizes={ladder}"])
    assert exit_info.value.code == 2
    assert "batch_sizes" in capsys.readouterr().err


def test_device_names_resolve_when_the_config_is_built():
    assert ServingConfig(model="squeezenet", devices=("Tesla V100", "k80")).devices == (
        "v100", "k80",
    )
    with pytest.raises(UnknownNameError, match="registered device names"):
        ServingConfig(model="squeezenet", devices=("v100", "bogus"))


@pytest.mark.parametrize(
    "kind,build",
    [
        ("router", lambda: ServingConfig(model="squeezenet", router=3)),
        ("admission policy", lambda: ServingConfig(model="squeezenet", admission=None)),
        ("cluster router", lambda: ClusterConfig(ServingConfig(model="squeezenet"), router=1.5)),
        ("framework", lambda: get_framework(None)),
        ("model", lambda: resolve_zoo_builder(7)),
    ],
    ids=["router-int", "admission-none", "cluster-router-float", "framework-none", "model-int"],
)
def test_a_name_that_is_not_a_string_raises_the_typed_error(kind, build):
    with pytest.raises(UnknownNameError, match=f"unknown {kind} .*registered {kind} names"):
        build()


def test_a_device_string_is_not_read_as_a_tuple_of_names():
    with pytest.raises(ValueError, match=r"devices takes a tuple of device names.*'v100'"):
        ServingConfig(model="squeezenet", devices="v100")
