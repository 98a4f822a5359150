import contextlib
import io
import json
import math
import os
import pickle

import numpy as np
import pytest

import mmspace  # noqa: F401  (imports every module that may define an error type)
from mmspace import (
    DiscreteMeasure,
    ExperimentConfig,
    FiniteMetricMeasureSpace,
    PointCloud,
    circle_arc_metric,
    cluster_deviation,
    curvature_condition_check,
    epsilon_net_graph,
    euclidean_matrix,
    grid_measure_1d,
    hausdorff_distance,
    learned_wasserstein_kmeans,
    learned_wasserstein_space,
    metric_validate,
    normalized_laplacian,
    one_sided_center_deviation,
    quantize,
    sample,
    spectral_decomposition,
    wasserstein_distance,
    wasserstein_space,
    write_matrix_bin,
    write_matrix_csv,
)
from mmspace.cli import main
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


# ----------------------------------------------------------------------------
# every square matrix is read by one shape rule; each caller checks its entries
# ----------------------------------------------------------------------------

DIRAC = DiscreteMeasure.dirac(0)
BAD_SQUARES = {
    "non-square": np.zeros((2, 3)),
    "vector": np.zeros(2),
    "empty": np.zeros((0, 0)),
    "ragged": [[0.0, 1.0], [1.0]],
    "non-numeric": [["a", 1.0], [1.0, 0.0]],
}
# (id, the argument's name in the message, call with the bad matrix)
TAKES_SQUARES = [
    ("metric_validate", "matrix", lambda m: metric_validate(m)),
    ("space", "space", lambda m: FiniteMetricMeasureSpace(["a", "b"], m, [0.5, 0.5])),
    ("wasserstein-distance", "ground metric", lambda m: wasserstein_distance(m, DIRAC, DIRAC)),
    ("wasserstein-space", "ground metric", lambda m: wasserstein_space([DIRAC], m)),
    ("normalized-laplacian", "eta", lambda m: normalized_laplacian(m)),
    ("spectral-decomposition", "laplacian", lambda m: spectral_decomposition(m, 1)),
    ("net-matrix", "ambient metric matrix", lambda m: epsilon_net_graph(None, m, 1.0, 1.0)),
    # a writer refuses before it opens its file, so nothing reaches os.devnull
    ("write-matrix-bin", "matrix", lambda m: write_matrix_bin(os.devnull, m)),
    ("write-matrix-csv", "matrix", lambda m: write_matrix_csv(os.devnull, ["a", "b"], m)),
]


@pytest.mark.parametrize("bad", BAD_SQUARES.values(), ids=BAD_SQUARES.keys())
@pytest.mark.parametrize("name, call", [c[1:] for c in TAKES_SQUARES], ids=[c[0] for c in TAKES_SQUARES])
def test_bad_matrix_shape_raises_a_typed_error_naming_the_argument(name, call, bad):
    with pytest.raises(InvalidArgumentError, match=f"^{name} (must be square|needs at least one point)$"):
        call(bad)


NAN_MATRIX = [[0.0, math.nan], [math.nan, 0.0]]
NEGATIVE_MATRIX = [[0.0, -1.0], [-1.0, 0.0]]
# (id, call, bad matrix, the one error line it gives)
BAD_ENTRIES = [
    ("metric_validate", lambda m: metric_validate(m), NAN_MATRIX, "matrix must be finite"),
    ("space", lambda m: FiniteMetricMeasureSpace(["a", "b"], m, [0.5, 0.5]), NAN_MATRIX, "dist must be finite"),
    ("ground-nan", lambda m: wasserstein_distance(m, DIRAC, DIRAC), NAN_MATRIX,
     "ground metric entries must be finite and nonnegative"),
    ("ground-negative", lambda m: wasserstein_distance(m, DIRAC, DIRAC), NEGATIVE_MATRIX,
     "ground metric entries must be finite and nonnegative"),
    ("normalized-laplacian", lambda m: normalized_laplacian(m), NAN_MATRIX, "eta must be finite"),
    # used to reach eigh, whose ValueError named no argument
    ("spectral-decomposition", lambda m: spectral_decomposition(m, 1), NAN_MATRIX, "laplacian must be finite"),
    # used to read as a graph of 2 components, and a negative cycle as scipy's NegativeCycleError
    ("net-nan", lambda m: epsilon_net_graph(None, m, 1.0, 1.0), NAN_MATRIX,
     "ambient metric matrix entries must be finite and nonnegative"),
    ("net-negative", lambda m: epsilon_net_graph(None, m, 1.0, 1.0), NEGATIVE_MATRIX,
     "ambient metric matrix entries must be finite and nonnegative"),
]


@pytest.mark.parametrize("call, bad, message", [c[1:] for c in BAD_ENTRIES], ids=[c[0] for c in BAD_ENTRIES])
def test_bad_matrix_entries_raise_a_typed_error_naming_the_argument(call, bad, message):
    with pytest.raises(InvalidArgumentError, match=f"^{message}$"):
        call(bad)


# an explicit distance matrix is exactly symmetric, by one rule
# (id, the argument's name in the message, call, bad matrix)
ASYMMETRIC = [
    ("space", "dist", lambda m: FiniteMetricMeasureSpace(["a", "b"], m, [0.5, 0.5]), [[0.0, 2.0], [3.0, 0.0]]),
    # used to give W(d0, d1) = 1.0 and W(d1, d0) = 3.0, so wasserstein_space
    # depended on the order of its measures
    ("ground-distance", "ground metric", lambda m: wasserstein_distance(m, DIRAC, DiscreteMeasure.dirac(1)),
     [[0.0, 1.0], [3.0, 0.0]]),
    ("ground-space", "ground metric", lambda m: wasserstein_space([DIRAC, DiscreteMeasure.dirac(1)], m),
     [[0.0, 1.0], [3.0, 0.0]]),
    # used to return [[0, 0.5], [0.5, 0]], the lower entry silently dropped
    ("net-matrix", "ambient metric matrix", lambda m: epsilon_net_graph(None, m, 1.0, 1.0), [[0.0, 0.5], [2.0, 0.0]]),
]


@pytest.mark.parametrize("name, call, bad", [c[1:] for c in ASYMMETRIC], ids=[c[0] for c in ASYMMETRIC])
def test_asymmetric_matrix_raises_a_typed_error_naming_the_argument(name, call, bad):
    with pytest.raises(InvalidArgumentError, match=f"^{name} must be exactly symmetric$"):
        call(bad)
    # the rule is exact: signed zeros match, and the mirrored matrix passes
    sym = np.array(bad)
    sym[1, 0] = sym[0, 1]
    sym[0, 0] = -0.0
    call(sym)


# ----------------------------------------------------------------------------
# every weight vector is read by one rule
# ----------------------------------------------------------------------------

BAD_WEIGHTS = {
    "nan": [math.nan, 1.0],
    "inf": [math.inf, 1.0],
    "negative": [-0.5, 1.5],
    "all-zero": [0.0, 0.0],
    "sum-overflows": [1e308, 1e308],
    "wrong-length": [0.5, 0.25, 0.25],
    "non-numeric": ["a", 1.0],
}


def density_on_two_points(w):
    # the grid is the two points 0 and 1; a density whose value at a point
    # is a vector stands for the wrong length
    return grid_measure_1d(lambda v: w[int(v)] if len(w) == 2 else w, 0.0, 1.0, 2)


def kmeans_on_space_json(w, d):
    # mm kmeans on a space JSON holding w; its exit code 2 and one error
    # line, raised again as the error they report
    (d / "m.csv").write_text("a,b\r\n0.0,1.0\r\n1.0,0.0\r\n")
    (d / "s.json").write_text(json.dumps({"labels": ["a", "b"], "weights": w, "dist_ref": "m.csv"}))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["kmeans", "--k", "1", "--space", str(d / "s.json")])
    assert code == InvalidArgumentError.exit_code and err.getvalue().count("\n") == 1
    raise InvalidArgumentError(err.getvalue().removeprefix("error: ").removesuffix("\n"))


# (id, the argument's name in the message, call with the bad vector and a directory)
TAKES_WEIGHTS = [
    ("space", "weights", lambda w, d: FiniteMetricMeasureSpace(["a", "b"], [[0.0, 1.0], [1.0, 0.0]], w)),
    ("measure", "masses", lambda w, d: DiscreteMeasure((0, 1), w)),
    ("from-points", "masses", lambda w, d: DiscreteMeasure.from_points([0, 1], w)),
    ("quantize", "weights", lambda w, d: quantize([0.0, 1.0], 1, weights=w)),
    ("grid-measure", "density values", lambda w, d: density_on_two_points(w)),
    ("mm-kmeans-space-json", "weights", kmeans_on_space_json),
]


@pytest.mark.parametrize("bad", BAD_WEIGHTS.values(), ids=BAD_WEIGHTS.keys())
@pytest.mark.parametrize("name, call", [c[1:] for c in TAKES_WEIGHTS], ids=[c[0] for c in TAKES_WEIGHTS])
def test_bad_weights_raise_a_typed_error_naming_the_argument(name, call, bad, tmp_path):
    rule = "must (be a length-2 vector|be finite and nonnegative|have a positive finite sum)"
    with pytest.raises(InvalidArgumentError, match=f"^{name} {rule}$"):
        call(bad, tmp_path)
