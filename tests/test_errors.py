import math
import pickle

import numpy as np
import pytest

import mmspace  # noqa: F401  (imports every module that may define an error type)
from mmspace import (
    ExperimentConfig,
    PointCloud,
    circle_arc_metric,
    cluster_deviation,
    curvature_condition_check,
    epsilon_net_graph,
    euclidean_matrix,
    hausdorff_distance,
    learned_wasserstein_kmeans,
    learned_wasserstein_space,
    one_sided_center_deviation,
    quantize,
    sample,
)
from mmspace.errors import DisconnectedGraphError, InvalidArgumentError, MmError


def error_types(root=MmError):
    found = [root]
    for sub in root.__subclasses__():
        found += error_types(sub)
    return found


def example(cls):
    if issubclass(cls, DisconnectedGraphError):
        return cls("graph is disconnected", [[3, 1], [2], [0]])
    return cls("something went wrong")


@pytest.mark.parametrize("cls", error_types(), ids=lambda cls: cls.__name__)
def test_round_trips_through_pickle(cls):
    # errors raised in experiment worker processes reach the caller pickled
    exc = example(cls)
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc) and back.args == exc.args
    assert back.exit_code == exc.exit_code
    assert getattr(back, "components", None) == getattr(exc, "components", None)


def test_every_error_type_is_covered():
    names = {cls.__name__ for cls in error_types()}
    assert {"InvalidArgumentError", "BudgetExceededError", "DisconnectedGraphError", "SolverError"} <= names



# ----------------------------------------------------------------------------
# every public function that takes coordinates reads them by one rule
# ----------------------------------------------------------------------------

GOOD = [[0.0, 0.0], [1.0, 1.0]]
BAD_POINTS = {
    "nan": [[math.nan, 0.0], [1.0, 1.0]],
    "inf": [[0.0, 0.0], [math.inf, 1.0]],
    "empty": [],
    "ragged": [[0.0, 1.0], [2.0]],
    "zero-columns": np.empty((3, 0)),
}
# (id, the argument's name in the message, call with the bad point set)
TAKES_POINTS = [
    ("PointCloud", "points", lambda x: PointCloud(x)),
    ("euclidean_matrix", "cloud", lambda x: euclidean_matrix(x)),
    ("hausdorff-a", "a_points", lambda x: hausdorff_distance(x, GOOD)),
    ("hausdorff-b", "b_points", lambda x: hausdorff_distance(GOOD, x)),
    ("center-deviation-n", "family_n", lambda x: one_sided_center_deviation([x], [GOOD])),
    ("center-deviation-lim", "family_lim", lambda x: one_sided_center_deviation([GOOD], [x])),
    ("cluster-deviation-n", "cells_n", lambda x: cluster_deviation([x], [GOOD])),
    ("cluster-deviation-lim", "cells_lim", lambda x: cluster_deviation([GOOD], [x])),
    ("quantize", "samples", lambda x: quantize(x, 1)),
    ("wasserstein-space", "sample_groups", lambda x: learned_wasserstein_space([GOOD, x])),
    ("wasserstein-kmeans", "sample_groups", lambda x: learned_wasserstein_kmeans([x, GOOD], 1)),
    ("reference", "reference_centers", lambda x: ExperimentConfig(reference="explicit", reference_centers=x)),
    ("mixture", "mixture centers", lambda x: sample("mixture", 5, 0, centers=x)),
    ("curvature", "points", lambda x: curvature_condition_check(
        lambda p: 1.0, lambda p: np.zeros(2), lambda p: np.zeros((2, 2)), 2.0, 2, 0.0, x, np.zeros((2, 2, 2)))),
    ("net-euclidean", "net_points", lambda x: epsilon_net_graph(x, "euclidean", 1.0, 1.0)),
    ("net-circle", "net_points", lambda x: epsilon_net_graph(x, "circle", 1.0, 1.0)),
    ("circle-arc", "points", lambda x: circle_arc_metric(x)),
]


@pytest.mark.parametrize("bad", BAD_POINTS.values(), ids=BAD_POINTS.keys())
@pytest.mark.parametrize("name, call", [c[1:] for c in TAKES_POINTS], ids=[c[0] for c in TAKES_POINTS])
def test_bad_coordinates_raise_a_typed_error_naming_the_argument(name, call, bad):
    with pytest.raises(InvalidArgumentError, match=f"^{name} must be (finite|a nonempty \\(n, D\\) array)$"):
        call(bad)
