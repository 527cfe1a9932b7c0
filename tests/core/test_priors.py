"""Unit tests for repro.core.priors."""

import numpy as np

from repro.core.priors import ConstantPrior, GlobalAveragePrior, ZeroPrior


class TestZeroPrior:
    def test_values(self, example_relation):
        values = ZeroPrior().values(example_relation)
        assert values.shape == (16,)
        assert np.all(values == 0.0)

    def test_describe(self):
        assert "zero" in ZeroPrior().describe()


class TestConstantPrior:
    def test_values(self, example_relation):
        values = ConstantPrior(7.5).values(example_relation)
        assert np.all(values == 7.5)
        assert ConstantPrior(7.5).value == 7.5

    def test_describe_includes_value(self):
        assert "7.5" in ConstantPrior(7.5).describe()


class TestGlobalAveragePrior:
    def test_values_equal_target_mean(self, example_relation):
        expected = float(example_relation.target_values.mean())
        values = GlobalAveragePrior().values(example_relation)
        assert np.allclose(values, expected)
