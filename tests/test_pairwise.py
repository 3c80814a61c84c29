"""Cost and kernel matrices built in numpy carry cdist's exact bytes.

`measures._pairwise` accumulates the coordinate terms in cdist's order, so
`build_cost_matrix` and `divergences.kernel_matrix` are compared here with
`scipy.spatial.distance.cdist` byte for byte, not within a tolerance.
"""

from unittest import mock

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from otkit import measures
from otkit.divergences import KernelSpec, kernel_matrix
from otkit.errors import ValidationError
from otkit.measures import EQUALITY_TOL, CostSpec, build_cost_matrix

DIMS = (1, 2, 3, 8, 9, 17)


@st.composite
def point_pairs(draw):
    """Two point sets in R^d at a scale from 1e-8 to 1e8, sharing points."""
    d = draw(st.sampled_from(DIMS))
    n, m = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    unit = st.floats(-1.0, 1.0, allow_nan=False)
    x = draw(hnp.arrays(float, (n, d), elements=unit))
    y = draw(hnp.arrays(float, (m, d), elements=unit))
    scale = 10.0 ** draw(st.integers(-8, 8))
    x, y = x * scale, y * scale
    shared = draw(st.integers(0, min(n, m)))
    y[:shared] = x[:shared]
    if draw(st.booleans()):
        x[-1] = x[0]
    return x, y


def same_bytes(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


# Small row blocks split even these tiny matrices into several blocks.
block_cells = st.sampled_from((1, 2, 5, 8192))


class TestCostMatrix:
    @settings(max_examples=150, deadline=None)
    @given(point_pairs(), st.floats(1.0, 4.0), block_cells)
    def test_every_metric_kind(self, pair, p, cells):
        x, y = pair
        with mock.patch.object(measures, "_BLOCK_CELLS", cells):
            same_bytes(build_cost_matrix(x, y, CostSpec.sq_euclidean()),
                       cdist(x, y, "sqeuclidean"))
            same_bytes(build_cost_matrix(x, y, CostSpec.euclidean()),
                       cdist(x, y, "euclidean"))
            same_bytes(build_cost_matrix(x, y, CostSpec.p_power(p)),
                       cdist(x, y, "euclidean") ** p)
            same_bytes(build_cost_matrix(x, y, CostSpec.zero_one()),
                       (cdist(x, y, "chebyshev") > EQUALITY_TOL).astype(float))

    @settings(max_examples=100, deadline=None)
    @given(point_pairs(), st.sampled_from((0.5, 1.0, 2.0)), block_cells)
    def test_zero_one_at_the_equality_tolerance(self, pair, factor, cells):
        # y moves x by about the tolerance in one coordinate, so the
        # sup-norm distance lands on either side of it or on it.
        x, _ = pair
        y = x.copy()
        y[:, -1] += factor * EQUALITY_TOL
        y = np.vstack([x, y])
        with mock.patch.object(measures, "_BLOCK_CELLS", cells):
            C = build_cost_matrix(x, y, CostSpec.zero_one())
        same_bytes(C, (cdist(x, y, "chebyshev") > EQUALITY_TOL).astype(float))

    def test_explicit_matrix_is_copied(self):
        M = np.arange(6.0).reshape(2, 3)
        C = build_cost_matrix(np.zeros((2, 1)), np.zeros((3, 1)),
                              CostSpec.explicit(M))
        same_bytes(C, M)
        assert C is not M

    @pytest.mark.parametrize("n", [1, 256])
    def test_default_blocks_at_benchmark_size(self, n):
        rng = np.random.default_rng(n)
        x, y = rng.random((n, 2)), rng.random((256, 2))
        for metric in ("sqeuclidean", "euclidean", "chebyshev"):
            same_bytes(measures._pairwise(x, y, metric), cdist(x, y, metric))


class TestKernelMatrix:
    @settings(max_examples=100, deadline=None)
    @given(point_pairs(), st.floats(0.1, 10.0), st.floats(0.1, 1.9),
           block_cells)
    def test_gaussian_and_energy(self, pair, sigma, p, cells):
        x, y = pair
        with mock.patch.object(measures, "_BLOCK_CELLS", cells):
            gauss = kernel_matrix(x, y, KernelSpec.gaussian(sigma))
            energy = kernel_matrix(x, y, KernelSpec.energy(p))
        same_bytes(gauss,
                   np.exp(-cdist(x, y, "sqeuclidean") / (2.0 * sigma**2)))
        same_bytes(energy, -cdist(x, y, "euclidean") ** p)

    def test_one_dimensional_input_is_points_on_the_line(self):
        x, y = np.array([0.0, 1.0]), np.array([2.0, 3.0, 5.0])
        K = kernel_matrix(x, y, KernelSpec.gaussian(1.0))
        same_bytes(K, np.exp(-cdist(x[:, None], y[:, None], "sqeuclidean")
                             / 2.0))

    @pytest.mark.parametrize("side", ["x", "y"])
    def test_non_finite_points_rejected(self, side):
        pts = {"x": [[0.0], [1.0]], "y": [[2.0]]}
        pts[side] = [[np.nan]] + pts[side]
        with pytest.raises(ValidationError, match=f"{side} has non-finite"):
            kernel_matrix(pts["x"], pts["y"], KernelSpec.energy(1.0))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="dimensions differ"):
            kernel_matrix(np.zeros((2, 1)), np.zeros((2, 2)),
                          KernelSpec.gaussian(1.0))
