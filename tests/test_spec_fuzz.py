"""Fuzz the spec parsers the serve CLI feeds with its flag strings.

Every text either parses or raises a ``ValueError`` naming what is wrong —
never a ``KeyError``, ``IndexError``, ``TypeError`` or ``ZeroDivisionError``
from deep in the stack.  What parses carries only finite knobs.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import LinkModel
from repro.obs import parse_alert_rules, parse_sampling_spec
from repro.serve import AutoscaleConfig, FleetSpec

#: Tokens that spell valid and nearly valid specs, plus characters that break them.
TOKENS = [
    "v100", "k80", "2080ti", "tpu", "bw", "lat", "ingress", "ingress-lat", "budget",
    "head", "track", "burn-rate", "queue", "p99", "default", "nan", "inf", "-inf",
    "1e400", "0", "1", "2", "-3", "0.5", "99999999999999999999", "0x10", "1_0", "٣",
    ":", ",", "=", " ", ".", "-", "_", "e", "x",
]

SPECS = st.one_of(st.lists(st.sampled_from(TOKENS), max_size=12).map("".join), st.text(max_size=24))

PARSERS = {
    "fleet": FleetSpec.parse,
    "link": LinkModel.parse,
    "autoscale": AutoscaleConfig.parse,
    "sampling": parse_sampling_spec,
    "alerts": parse_alert_rules,
}


@pytest.mark.parametrize("name", list(PARSERS))
@settings(max_examples=300, deadline=None)
@given(spec=SPECS)
def test_a_spec_parses_or_raises_a_value_error(name, spec):
    try:
        PARSERS[name](spec)
    except ValueError as error:
        assert str(error)


@settings(max_examples=200, deadline=None)
@given(spec=SPECS)
def test_parsed_link_and_alert_knobs_are_finite(spec):
    try:
        link = LinkModel.parse(spec)
    except ValueError:
        pass
    else:
        assert math.isfinite(link.bandwidth_gb_s) and math.isfinite(link.latency_ms)
    try:
        rules = parse_alert_rules(spec)
    except ValueError:
        pass
    else:
        assert all(math.isfinite(rule.threshold) for rule in rules)


@pytest.mark.parametrize(
    "name,spec",
    [("fleet", "tpu:4"), ("fleet", "k80:1,v100:0"), ("link", "bw=inf"), ("link", "lat"),
     ("autoscale", "1:2:3"), ("sampling", "budget=x"), ("alerts", "p99=nan"),
     ("alerts", "queue=-1")],
)
def test_known_bad_specs_raise_a_value_error(name, spec):
    with pytest.raises(ValueError):
        PARSERS[name](spec)
