"""Unit tests for the deterministic failpoint registry."""

from __future__ import annotations

import re
import time
from pathlib import Path

import pytest

import repro
from repro.api.config import ServingConfig
from repro.reliability import faults
from repro.reliability.faults import (
    DEFAULT_SLEEP_SECONDS,
    SITES,
    FailpointRegistry,
    FailpointRule,
    InjectedFault,
    parse_rule,
)


class TestParseRule:
    def test_bare_site_fires_once_by_default(self):
        rule = parse_rule("worker.crash")
        assert rule.site == "worker.crash"
        assert (rule.mode, rule.times, rule.after, rule.every) == ("raise", 1, 0, 1)
        assert rule.sleep == DEFAULT_SLEEP_SECONDS
        assert rule.probability == 1.0

    def test_all_options_parse(self):
        rule = parse_rule("x:mode=sleep,sleep=0.25,times=0,after=2,every=3,p=0.5,seed=9")
        assert rule.mode == "sleep"
        assert rule.sleep == 0.25
        assert (rule.times, rule.after, rule.every) == (0, 2, 3)
        assert rule.probability == 0.5
        assert rule.seed == 9

    @pytest.mark.parametrize(
        "spec",
        [
            ":times=1",  # no site
            "x:times",  # not key=value
            "x:frobnicate=1",  # unknown key
            "x:times=abc",  # unparseable int
            "x:mode=explode",  # unknown mode
            "x:times=-1",  # negative
            "x:every=0",  # every must be >= 1
            "x:p=1.5",  # probability out of range
        ],
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            parse_rule(spec)


class TestRuleSchedule:
    def fire_pattern(self, rule: FailpointRule, hits: int) -> list[int]:
        """1-based hit indexes on which the rule fires."""
        return [hit for hit in range(1, hits + 1) if rule.decide()]

    def test_after_every_times_schedule(self):
        # Skip 2 hits, then every 3rd eligible hit, at most twice:
        # eligible hits are 3, 6, 9, ... and `times` caps at two fires.
        rule = FailpointRule(site="s", times=2, after=2, every=3)
        assert self.fire_pattern(rule, 12) == [3, 6]

    def test_times_zero_is_unlimited(self):
        rule = FailpointRule(site="s", times=0)
        assert self.fire_pattern(rule, 5) == [1, 2, 3, 4, 5]

    def test_probability_is_seed_deterministic(self):
        pattern = lambda seed: self.fire_pattern(  # noqa: E731
            FailpointRule(site="s", times=0, probability=0.5, seed=seed), 64
        )
        assert pattern(7) == pattern(7)
        # Statistically certain for 64 draws at p=0.5.
        assert 0 < len(pattern(7)) < 64

    def test_sites_draw_independent_sequences_from_one_seed(self):
        a = FailpointRule(site="a", times=0, probability=0.5, seed=7)
        b = FailpointRule(site="b", times=0, probability=0.5, seed=7)
        fires = lambda rule: [rule.decide() for _ in range(64)]  # noqa: E731
        assert fires(a) != fires(b)


class TestRegistry:
    def test_unconfigured_sites_never_fire(self):
        registry = FailpointRegistry()
        assert registry.trigger("worker.crash") is None
        assert not registry.fires("worker.crash")
        assert not registry.inject("worker.crash")
        assert registry.specs == ()

    def test_duplicate_site_rejected(self):
        registry = FailpointRegistry()
        with pytest.raises(ValueError, match="duplicate"):
            registry.configure(["x:times=1", "x:times=2"])

    def test_inject_raise_mode_raises_injected_fault(self):
        registry = FailpointRegistry()
        registry.configure(["x"])
        with pytest.raises(InjectedFault) as excinfo:
            registry.inject("x")
        assert excinfo.value.site == "x"
        assert registry.report() == {"x": {"hits": 1, "fired": 1}}
        # The single allotted fire is spent; later hits pass through.
        assert not registry.inject("x")

    def test_inject_sleep_mode_sleeps(self):
        registry = FailpointRegistry()
        registry.configure(["x:mode=sleep,sleep=0.05"])
        start = time.perf_counter()
        assert registry.inject("x")
        assert time.perf_counter() - start >= 0.04

    def test_ensure_preserves_counters_configure_resets(self):
        registry = FailpointRegistry()
        registry.configure(["x:times=0"], seed=3)
        registry.fires("x")
        registry.ensure(["x:times=0"], seed=3)  # same config: no reset
        assert registry.report()["x"]["hits"] == 1
        registry.configure(["x:times=0"], seed=3)  # explicit: reset
        assert registry.report()["x"]["hits"] == 0

    def test_active_context_clears_on_exit(self):
        registry = FailpointRegistry()
        with registry.active(["x"]):
            assert registry.specs == ("x",)
        assert registry.specs == ()

    def test_active_context_clears_on_error(self):
        registry = FailpointRegistry()
        with pytest.raises(RuntimeError):
            with registry.active(["x"]):
                raise RuntimeError("test body failed")
        assert registry.specs == ()


def fired_sites() -> set[str]:
    """The site names that modules other than ``faults`` itself refer to."""
    names: set[str] = set()
    for path in Path(repro.__file__).parent.rglob("*.py"):
        if path.name != "faults.py":
            names.update(re.findall(r"\bfaults\.([A-Z][A-Z_]*)\b", path.read_text()))
    return {value for name in names if isinstance(value := getattr(faults, name), str)}


class TestSites:
    """``SITES`` is what ``ServingConfig`` accepts, so it must match the wiring."""

    @pytest.mark.parametrize("site", sorted(SITES))
    def test_each_known_site_is_wired_and_accepted(self, site):
        assert site in fired_sites()
        assert ServingConfig(failpoints=[site]).failpoints == (site,)

    def test_every_wired_site_is_known(self):
        assert fired_sites() <= SITES
