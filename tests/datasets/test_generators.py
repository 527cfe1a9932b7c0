"""Unit tests for the synthetic dataset generators."""

import pytest

from repro.core.model import Scope
from repro.datasets.acs import AGE_GROUPS, BOROUGHS, generate_acs
from repro.datasets.flights import generate_flights
from repro.datasets.primaries import generate_primaries
from repro.datasets.stackoverflow import generate_stackoverflow


class TestAcs:
    def test_schema(self):
        dataset = generate_acs(num_rows=300, seed=1)
        assert dataset.num_rows == 300
        assert dataset.spec.dimensions == ("borough", "age_group", "sex")
        assert len(dataset.spec.targets) == 6
        assert set(dataset.table.column("borough").distinct_values()) <= set(BOROUGHS)
        assert set(dataset.table.column("age_group").distinct_values()) <= set(AGE_GROUPS)

    def test_age_effect_dominates(self):
        """The planted effect (Table II): elders have far higher visual
        impairment prevalence than teenagers."""
        dataset = generate_acs(num_rows=600, seed=2)
        relation = dataset.relation("visual_impairment")
        elders, _ = relation.average_target(Scope({"age_group": "Elders"}))
        teens, _ = relation.average_target(Scope({"age_group": "Teenagers"}))
        assert elders > 5 * teens

    def test_values_are_nonnegative(self):
        dataset = generate_acs(num_rows=200, seed=3)
        for target in dataset.spec.targets:
            assert min(dataset.table.column(target).values) >= 0.0

    def test_deterministic_given_seed(self):
        a = generate_acs(num_rows=100, seed=7)
        b = generate_acs(num_rows=100, seed=7)
        assert a.table == b.table

    def test_different_seeds_differ(self):
        a = generate_acs(num_rows=100, seed=7)
        b = generate_acs(num_rows=100, seed=8)
        assert a.table != b.table


class TestFlights:
    def test_schema(self):
        dataset = generate_flights(num_rows=500, seed=1)
        assert dataset.num_rows == 500
        assert len(dataset.spec.dimensions) == 6
        assert set(dataset.spec.targets) == {"cancellation", "delay_minutes"}

    def test_cancellation_is_binary(self):
        dataset = generate_flights(num_rows=400, seed=2)
        assert set(dataset.table.column("cancellation").values) <= {0.0, 1.0}

    def test_winter_has_more_cancellations_than_fall(self):
        from repro.core.model import Scope

        dataset = generate_flights(num_rows=3000, seed=3)
        relation = dataset.relation("cancellation")
        winter, _ = relation.average_target(Scope({"season": "Winter"}))
        fall, _ = relation.average_target(Scope({"season": "Fall"}))
        assert winter > fall

    def test_month_consistent_with_season(self):
        from repro.datasets.flights import MONTHS_BY_SEASON

        dataset = generate_flights(num_rows=300, seed=4)
        for row in dataset.table.iter_rows():
            assert row["month"] in MONTHS_BY_SEASON[row["season"]]

    def test_relation_selection(self):
        dataset = generate_flights(num_rows=200, seed=5)
        relation = dataset.relation("delay_minutes")
        assert relation.target == "delay_minutes"
        with pytest.raises(ValueError):
            dataset.relation("profit")


class TestStackOverflow:
    def test_schema(self):
        dataset = generate_stackoverflow(num_rows=500, seed=1)
        assert len(dataset.spec.dimensions) == 7
        assert len(dataset.spec.targets) == 6

    def test_ratings_within_scale(self):
        dataset = generate_stackoverflow(num_rows=400, seed=2)
        for target in ("competence", "optimism", "job_satisfaction"):
            values = dataset.table.column(target).values
            assert min(values) >= 1.0
            assert max(values) <= 10.0

    def test_experience_raises_competence(self):
        from repro.core.model import Scope

        dataset = generate_stackoverflow(num_rows=3000, seed=3)
        relation = dataset.relation("competence")
        senior, _ = relation.average_target(Scope({"experience": "20+ years"}))
        junior, _ = relation.average_target(Scope({"experience": "0-2 years"}))
        assert senior > junior

    def test_every_dimension_has_values(self):
        dataset = generate_stackoverflow(num_rows=300, seed=4)
        domains = {
            dim: dataset.table.column(dim).distinct_values() for dim in dataset.spec.dimensions
        }
        assert set(domains) == set(dataset.spec.dimensions)
        assert all(domains.values())


class TestPrimaries:
    def test_schema(self):
        dataset = generate_primaries(num_rows=400, seed=1)
        assert len(dataset.spec.dimensions) == 5
        assert dataset.spec.targets == ("support_percentage",)

    def test_support_bounded(self):
        dataset = generate_primaries(num_rows=400, seed=2)
        values = dataset.table.column("support_percentage").values
        assert min(values) > 0.0
        assert max(values) <= 70.0

    def test_candidate_effect(self):
        from repro.core.model import Scope

        dataset = generate_primaries(num_rows=2000, seed=3)
        relation = dataset.relation()
        biden, _ = relation.average_target(Scope({"candidate": "Biden"}))
        klobuchar, _ = relation.average_target(Scope({"candidate": "Klobuchar"}))
        assert biden > klobuchar
