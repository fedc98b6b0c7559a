"""Metrics: NMSE of a compressed aggregate."""

from __future__ import annotations

import numpy as np
import pytest

from repro.metrics import nmse


class TestNMSE:
    def test_zero_for_exact(self, rng):
        x = rng.standard_normal(100)
        assert nmse(x, x.copy()) == 0.0

    def test_value_matches_definition(self, rng):
        x = rng.standard_normal(50)
        y = x + 0.1
        expected = np.sum((x - y) ** 2) / np.sum(x ** 2)
        assert nmse(x, y) == pytest.approx(expected)

    def test_zero_reference(self):
        assert nmse(np.zeros(4), np.zeros(4)) == 0.0
        assert nmse(np.zeros(4), np.ones(4)) == float("inf")

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            nmse(np.zeros(3), np.zeros(4))
