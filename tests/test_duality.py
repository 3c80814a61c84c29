"""The 1-D Brenier map check, and the input checks of the dual helpers."""

import numpy as np
import pytest

from otkit.duality import (DualPotentials, c_bar_transform, c_transform,
                           dual_objective, semi_dual_energy,
                           w2_brenier_check)
from otkit.errors import ValidationError
from otkit.measures import DiscreteMeasure, GridDensity1D

GRID = np.linspace(0.0, 1.0, 21)
MIDS = 0.5 * (GRID[:-1] + GRID[1:])


def uniform():
    return GridDensity1D(GRID, np.ones_like(GRID))


def triangle():
    """Density 2x on [0, 1]; the trapezoid rule integrates it exactly."""
    return GridDensity1D(GRID, 2.0 * GRID)


class TestW2BrenierCheck:
    def test_identity_passes_with_zero_w1(self):
        report = w2_brenier_check(triangle(), triangle(), lambda x: x)
        assert report.monotone and report.violation is None
        assert report.pushforward_w1 == 0.0
        assert report.threshold == pytest.approx(0.05, rel=1e-12)
        assert report.passed

    @pytest.mark.parametrize("transport_map, first", [
        (lambda x: 1.0 - x, 0),
        (lambda x: np.where(x < 0.5, x, 1.5 - x), 10),
    ], ids=["reversed", "folded"])
    def test_decreasing_map_reports_the_first_violation(self, transport_map,
                                                        first):
        # Both maps take the uniform density onto itself, so only the
        # monotonicity test can fail them.
        report = w2_brenier_check(uniform(), uniform(), transport_map)
        assert not report.monotone
        assert report.violation == (MIDS[first], MIDS[first + 1])
        assert report.pushforward_w1 <= 1e-12
        assert not report.passed

    @pytest.mark.parametrize("as_atoms", [False, True],
                             ids=["grid-target", "discrete-target"])
    def test_affine_map_onto_the_matching_density(self, as_atoms):
        # y = 2x + 3 pushes the density 2x on [0, 1] to (y - 3) / 2 on
        # [3, 5]; the grid image carries the same trapezoid cell masses.
        target = GridDensity1D(2.0 * GRID + 3.0, GRID)
        if as_atoms:
            target = DiscreteMeasure(2.0 * MIDS + 3.0,
                                     triangle().cell_masses)
        report = w2_brenier_check(triangle(), target, lambda x: 2.0 * x + 3.0)
        assert report.monotone
        assert report.pushforward_w1 <= 1e-12
        assert report.passed
        shifted = w2_brenier_check(triangle(), target,
                                   lambda x: 2.0 * x + 4.0)
        assert shifted.monotone
        assert shifted.pushforward_w1 == pytest.approx(1.0, rel=1e-12)
        assert not shifted.passed

    def test_unsupported_target_type_is_refused(self):
        with pytest.raises(ValidationError, match="unsupported target"):
            w2_brenier_check(uniform(), [0.25, 0.75], lambda x: x)

    def test_source_must_be_a_probability_density(self):
        heavy = GridDensity1D(GRID, 2.0 * np.ones_like(GRID))
        with pytest.raises(ValidationError, match="probability"):
            w2_brenier_check(heavy, uniform(), lambda x: x)


NAN_COST = np.full((3, 2), np.nan)


class TestDualHelpersCheckInputs:
    """Non-finite costs and weights raise instead of returning NaN."""

    @pytest.mark.parametrize("call", [
        lambda: c_transform([0.0, 0.0], NAN_COST),
        lambda: c_bar_transform([0.0, 0.0, 0.0], NAN_COST),
        lambda: semi_dual_energy([0.0, 0.0, 0.0], [0.5, 0.25, 0.25],
                                 [0.5, 0.5], NAN_COST),
        lambda: semi_dual_energy([0.0, 0.0], [0.5, 0.5], [np.nan, 1.0],
                                 np.eye(2)),
        lambda: dual_objective([np.nan, 1.0, 0.0], [0.5, 0.5],
                               DualPotentials([0, 0, 0], [0, 0])),
        lambda: dual_objective([0.5, 0.5, 0.0], [0.5, 0.5],
                               DualPotentials([0, 0], [0, 0])),
    ], ids=["c_transform", "c_bar_transform", "semi_dual_nan_cost",
            "semi_dual_nan_weight", "dual_objective_nan",
            "dual_objective_length"])
    def test_rejected(self, call):
        with pytest.raises(ValidationError):
            call()

    def test_finite_inputs_keep_their_values(self):
        C = np.array([[0.0, 2.0], [1.0, 0.5], [3.0, 1.0]])
        assert c_transform([1.0, 0.5], C).tolist() == [-1.0, 0.0, 0.5]
        assert c_bar_transform([0.0, 1.0, 0.5], C).tolist() == [0.0, -0.5]
        assert semi_dual_energy([0.0, 1.0, 0.5], [0.5, 0.25, 0.25],
                                [0.5, 0.5], C) == 0.125
        assert dual_objective([0.5, 0.5, 0.0], [0.5, 0.5],
                              DualPotentials([1, 2, 3], [4, 6])) == 6.5
