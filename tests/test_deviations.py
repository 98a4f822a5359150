"""Set distances on coordinate arrays against the per-pair oracles.

1-D distances are |x - y| on both routes, so they must agree bit for bit;
in D >= 2 the library's vectorised sum of squares may round differently
from math.dist, by at most one ulp.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmspace import (
    InvalidArgumentError,
    cluster_deviation,
    hausdorff_distance,
    one_sided_center_deviation,
)

from helpers import center_deviation_oracle, cluster_deviation_oracle, hausdorff_oracle

# Coordinates whose squared differences stay far from underflow and overflow.
COORD = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False).map(
    lambda v: 0.0 if abs(v) < 1e-100 else v
)

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@st.composite
def families(draw):
    """Two families of point sets in a shared dimension D in 1..3.

    Sets draw points with repetition from one small pool, so duplicates
    within a set and shared points across sets are common; sets and
    families have ragged sizes down to singletons.
    """
    dim = draw(st.integers(1, 3))
    pool = draw(st.lists(st.tuples(*[COORD] * dim), min_size=1, max_size=6))
    point_set = st.lists(st.sampled_from(pool), min_size=1, max_size=6)
    family = st.lists(point_set, min_size=1, max_size=4)
    return dim, draw(family), draw(family)


def as_arrays(family, flat):
    # a 1-D set may be passed flat: m points on a line
    return [np.asarray(s)[:, 0] if flat else np.asarray(s) for s in family]


def assert_agrees(got, want, dim):
    assert isinstance(got, float)
    if dim == 1:
        assert got == want
    else:
        assert abs(got - want) <= math.ulp(max(got, want))


@SETTINGS
@given(families(), st.booleans())
def test_hausdorff_matches_oracle(fams, flat):
    dim, fam_a, fam_b = fams
    flat = flat and dim == 1
    a, b = as_arrays(fam_a, flat)[0], as_arrays(fam_b, flat)[0]
    assert_agrees(hausdorff_distance(a, b), hausdorff_oracle(fam_a[0], fam_b[0]), dim)


@SETTINGS
@given(families(), st.booleans())
def test_center_deviation_matches_oracle(fams, flat):
    dim, fam_n, fam_lim = fams
    flat = flat and dim == 1
    got = one_sided_center_deviation(as_arrays(fam_n, flat), as_arrays(fam_lim, flat))
    assert_agrees(got, center_deviation_oracle(fam_n, fam_lim), dim)


@SETTINGS
@given(families(), st.booleans())
def test_cluster_deviation_matches_oracle(fams, flat):
    dim, cells_n, cells_lim = fams
    flat = flat and dim == 1
    got = cluster_deviation(as_arrays(cells_n, flat), as_arrays(cells_lim, flat))
    assert_agrees(got, cluster_deviation_oracle(cells_n, cells_lim), dim)


def test_mismatched_dimension_rejected():
    plane, line = [[0.0, 1.0]], [[0.0], [1.0]]
    with pytest.raises(InvalidArgumentError):
        hausdorff_distance(plane, line)
    with pytest.raises(InvalidArgumentError):
        one_sided_center_deviation([plane], [line])
    with pytest.raises(InvalidArgumentError):
        cluster_deviation([line], [plane])


# cdist squares each coordinate gap, which overflows past 2^512 and loses
# bits or reads 0 below 2^-511; every distance here is a normal float
@pytest.mark.parametrize("e", [-1000, -600, -100, 0, 100, 500, 1000])
def test_deviations_scale_with_their_inputs(e):
    rng = np.random.default_rng(11)
    a, b = rng.uniform(-1, 1, size=(5, 3)), rng.uniform(-1, 1, size=(4, 3))
    fam_n = [rng.uniform(-1, 1, size=(2, 3)) for _ in range(3)]
    fam_lim = [rng.uniform(-1, 1, size=(2, 3)) for _ in range(2)]
    cases = [
        (hausdorff_distance, a, b),
        (one_sided_center_deviation, fam_n, fam_lim),
        (cluster_deviation, [a, b], [b, a[:2]]),
    ]
    s = 2.0**e
    for f, x, y in cases:
        scaled = f(*[[m * s for m in arg] if isinstance(arg, list) else arg * s for arg in (x, y)])
        want = f(x, y) * s
        assert want > 0 and abs(scaled - want) <= 1e-15 * want


@pytest.mark.parametrize("scale", [1e160, 1e-170])
def test_unit_square_pair_at_extreme_scales(scale):
    # cdist read these as inf and 0.0
    square = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    shifted = square + [1.0, 0.0]
    assert hausdorff_distance(square * scale, shifted * scale) == pytest.approx(scale, rel=1e-15, abs=0)
    assert one_sided_center_deviation([square * scale], [shifted * scale]) == pytest.approx(scale, rel=1e-15, abs=0)
    assert cluster_deviation([square * scale], [shifted * scale]) == pytest.approx(scale, rel=1e-15, abs=0)
