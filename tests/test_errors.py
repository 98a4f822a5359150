import contextlib
import io
import json
import math
import os
import pickle
import re

import numpy as np
import pytest

import mmspace  # noqa: F401  (imports every module that may define an error type)
from mmspace import (
    DiscreteMeasure,
    EdgeWeightLaw,
    ExperimentConfig,
    FermatParams,
    FiniteMetricMeasureSpace,
    FppInstance,
    PointCloud,
    build_ground_metric,
    circle_arc_metric,
    cluster_deviation,
    covering_radius,
    curvature_condition_check,
    density_compensation,
    diffusion_distance_matrix,
    embedding_from_decomposition,
    epsilon_net_graph,
    equispaced_circle_net,
    euclidean_matrix,
    fermat_distance_matrix,
    fermat_scaled,
    fpp_barycenter_track,
    gaussian_fermat_moment_estimate,
    grid_measure_1d,
    hausdorff_distance,
    isomap_distance_matrix,
    isometry_defect_bound,
    k_means_exact,
    k_means_pam,
    learned_wasserstein_kmeans,
    learned_wasserstein_space,
    metric_validate,
    normalized_laplacian,
    one_sided_center_deviation,
    quantize,
    sample,
    scaled_space,
    shape_defect,
    similarity_matrix,
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
    ("space", lambda m: FiniteMetricMeasureSpace(["a", "b"], m, [0.5, 0.5]), NAN_MATRIX,
     "dist entries must be finite and nonnegative"),
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


# ----------------------------------------------------------------------------
# every scalar argument is read by one rule: space._check_positive for
# positive reals, space._check_count for counts, space._check_tol for
# nonnegative reals, space._check_p for p
# ----------------------------------------------------------------------------

NAN, INF = math.nan, math.inf
LINE = PointCloud([[0.0], [1.0], [2.0]])
TWO_POINTS = FiniteMetricMeasureSpace.uniform(["a", "b"], [[0.0, 1.0], [1.0, 0.0]])
LAPLACIAN = normalized_laplacian(similarity_matrix(LINE, 1.0))
LAW = EdgeWeightLaw.exponential(1.0)
DET = FppInstance(2, EdgeWeightLaw.deterministic(1.0), 0, 10.0)


def flat_curvature(density=1.0, tol=1e-9):
    # one sample of the flat plane at constant density
    return curvature_condition_check(
        lambda x: density, lambda x: np.zeros(2), lambda x: np.zeros((2, 2)), 2.0, 2, 0.0,
        [[0.0, 0.0]], [[[1.0, 0.0], [0.0, 1.0]]], tol,
    )


def mm_fpp_shell(shell):
    # mm fpp with a bad --shell; its exit code 2 and one error line, raised
    # again as the error they report
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["fpp", "--dim", "2", "--law", "exp:1", "--t", "3", "--shell", repr(shell)])
    assert code == InvalidArgumentError.exit_code and err.getvalue().count("\n") == 1
    raise InvalidArgumentError(err.getvalue().removeprefix("error: ").removesuffix("\n"))


def positive(bad):
    return f"must be positive, got {bad!r}"


def nonnegative(bad):
    return f"must be a finite real number >= 0, got {float(bad)!r}"


def integer(bad):
    return f"must be an integer in the int64 range, got {bad!r}"


# (id, the argument's name in the message, call with the bad value, bad value, the rest of the message)
TAKES_SCALARS = [
    # positive reals
    ("isomap-eps", "eps", lambda v: isomap_distance_matrix(LINE, v), NAN, positive(NAN)),
    ("net-eps", "eps", lambda v: epsilon_net_graph(GOOD, "euclidean", v, 1.0), 0, positive(0)),
    ("net-diam", "diam", lambda v: epsilon_net_graph(GOOD, "euclidean", 2.0, v), INF, positive(INF)),
    ("sigma", "sigma", lambda v: similarity_matrix(LINE, v), -1, positive(-1)),
    ("deterministic-weight", "deterministic weight", lambda v: EdgeWeightLaw.deterministic(v), 0, positive(0)),
    ("rate", "rate", lambda v: EdgeWeightLaw.exponential(v), INF, positive(INF)),
    ("horizon", "horizon", lambda v: FppInstance(2, LAW, 0, v), NAN, positive(NAN)),
    ("grid-factor", "grid_factor", lambda v: shape_defect(DET, 3.0, grid_factor=v), 0, positive(0)),
    ("curvature-density", "density at sample 0", lambda v: flat_curvature(density=v), -1, positive(-1.0)),
    # nonnegative reals
    ("diffusion-t", "t", lambda v: embedding_from_decomposition(spectral_decomposition(LAPLACIAN, 2), v), -1,
     nonnegative(-1)),
    ("scaled-space-shell", "shell", lambda v: scaled_space(DET, 3.0, shell=v), NAN, nonnegative(NAN)),
    ("track-shell", "shell", lambda v: fpp_barycenter_track(DET, [3.0], shell=v), -1, nonnegative(-1)),
    ("mm-fpp-shell", "--shell", mm_fpp_shell, INF, nonnegative(INF)),
    # used to return nan
    ("defect-bound-eps", "eps", lambda v: isometry_defect_bound(v, 1.0), NAN, nonnegative(NAN)),
    ("defect-bound-diam", "diam", lambda v: isometry_defect_bound(1.0, v), -1, nonnegative(-1)),
    # used to merge no points
    ("merge-tol", "merge_tol", lambda v: diffusion_distance_matrix([[0.0], [1.0]], merge_tol=v), NAN, nonnegative(NAN)),
    ("merge-tol-negative", "merge_tol", lambda v: diffusion_distance_matrix([[0.0], [1.0]], merge_tol=v), -1,
     nonnegative(-1)),
    # used to report no gap warnings
    ("gap-tol", "gap_tol", lambda v: spectral_decomposition(LAPLACIAN, 3, gap_tol=v), NAN, nonnegative(NAN)),
    ("curvature-tol", "tol", lambda v: flat_curvature(tol=v), INF, nonnegative(INF)),
    # counts
    ("sample-n", "n", lambda v: sample("interval", v, 0), 0, "must be >= 1"),
    ("sample-dim", "dim", lambda v: sample("gaussian", 5, 0, dim=v), 2.5, integer(2.5)),
    ("config-sizes", "sizes", lambda v: ExperimentConfig(sizes=[v]), 0, "must be >= 1"),
    ("config-trials", "trials", lambda v: ExperimentConfig(trials=v), 0, "must be >= 1"),
    ("config-k", "k", lambda v: ExperimentConfig(k=v), -1, "must be >= 1"),
    ("config-restarts", "restarts", lambda v: ExperimentConfig(restarts=v), NAN, integer(NAN)),
    # used to be truncated to 2
    ("ground-embed-k", "embed_k", lambda v: build_ground_metric(LINE, "diffusion", {"embed_k": v}), 2.5, integer(2.5)),
    ("ground-embed-k-range", "embed_k", lambda v: build_ground_metric(LINE, "diffusion", {"embed_k": v}), 4,
     "must be in [1, 3], got 4"),
    # used to raise a bare TypeError
    ("exact-k", "k", lambda v: k_means_exact(TWO_POINTS, v), 2.5, integer(2.5)),
    ("exact-k-zero", "k", lambda v: k_means_exact(TWO_POINTS, v), 0, "must be >= 1"),
    ("pam-k", "k", lambda v: k_means_pam(TWO_POINTS, v), 0, "must be in [1, 2], got 0"),
    ("pam-restarts", "restarts", lambda v: k_means_pam(TWO_POINTS, 1, restarts=v), 0, "must be >= 1"),
    ("quantize-n-centers", "n_centers", lambda v: quantize(GOOD, v), 0, "must be >= 1"),
    ("quantize-restarts", "restarts", lambda v: quantize(GOOD, 1, restarts=v), -1, "must be >= 1"),
    # used to run
    ("quantize-max-iter", "max_iter", lambda v: quantize(GOOD, 1, max_iter=v), NAN, integer(NAN)),
    ("grid-size", "grid_size", lambda v: grid_measure_1d(lambda x: 1.0, 0.0, 1.0, v), 0, "must be >= 2"),
    # used to return 3 points spaced 2 pi / 2.5 apart
    ("circle-net-m", "m", lambda v: equispaced_circle_net(v), 2.5, integer(2.5)),
    ("fermat-intrinsic-dim", "intrinsic_dim", lambda v: FermatParams(2.0, v), 0, "must be >= 1"),
    ("compensation-intrinsic-dim", "intrinsic_dim", lambda v: density_compensation([1.0], 2.0, v), 2.5,
     integer(2.5)),
    # used to return a NaN matrix
    ("fermat-scaled-n", "n", lambda v: fermat_scaled(np.zeros((2, 2)), v, 2.0, 1), NAN, integer(NAN)),
    ("moment-n-samples", "n_samples", lambda v: gaussian_fermat_moment_estimate(2.0, v, 0), 0, "must be >= 1"),
    # used to pass the dimension check and fail in struct (at 2.0)
    ("fpp-dim", "dim", lambda v: FppInstance(v, LAW, 0, 1.0), 2.5, integer(2.5)),
    ("fpp-dim-range", "dim", lambda v: FppInstance(v, LAW, 0, 1.0), 0, "must be in [1, 3], got 0"),
    ("edge-weight-axis", "axis", lambda v: FppInstance(2, LAW, 0, 1.0).edge_weight((0, 0), v), 2.5, integer(2.5)),
    # used to raise numpy's ValueError
    ("covering-grid-size", "grid_size", lambda v: covering_radius("interval", LINE, v), 0, "must be >= 1"),
    ("spectral-k", "k", lambda v: spectral_decomposition(LAPLACIAN, v), 2.5, integer(2.5)),
    ("spectral-k-range", "k", lambda v: spectral_decomposition(LAPLACIAN, v), 0, "must be in [1, 3], got 0"),
    ("knn", "knn", lambda v: fermat_distance_matrix(LINE, 2.0, knn=v), 2.5, integer(2.5)),
    ("knn-range", "knn", lambda v: fermat_distance_matrix(LINE, 2.0, knn=v), 0, "must be in [1, 2], got 0"),
    # used to be accepted, and reach fermat_scaled
    ("cloud-intrinsic-dim", "intrinsic_dim", lambda v: PointCloud([[0.0, 0.0, 0.0]], v), 2.5, integer(2.5)),
    ("cloud-intrinsic-dim-range", "intrinsic_dim", lambda v: PointCloud([[0.0, 0.0, 0.0]], v), -1,
     "must be in [1, 3], got -1"),
    # p; used to return a space
    ("wasserstein-space-p", "p", lambda v: wasserstein_space([DIRAC], [[0.0]], p=v), NAN,
     "must be a real number >= 1, got nan"),
]


@pytest.mark.parametrize("name, call, bad, rule", [c[1:] for c in TAKES_SCALARS], ids=[c[0] for c in TAKES_SCALARS])
def test_bad_scalar_raises_a_typed_error_naming_the_argument(name, call, bad, rule):
    with pytest.raises(InvalidArgumentError, match=f"^{re.escape(name)} {re.escape(rule)}$"):
        call(bad)


def test_an_integral_float_is_a_count():
    # FppInstance stores its dim as an int, so the hash's struct format takes it
    assert FppInstance(2.0, LAW, 0, 1.0).edge_weight((0, 0), 1) == FppInstance(2, LAW, 0, 1.0).edge_weight((0, 0), 1)
    assert k_means_exact(TWO_POINTS, 2.0).objective == k_means_exact(TWO_POINTS, 2).objective == 0.0
    assert equispaced_circle_net(4.0).shape == (4, 2)
    cloud = sample("interval", 40, 3)
    two = build_ground_metric(cloud, "diffusion", {"embed_k": 2})
    assert build_ground_metric(cloud, "diffusion", {"embed_k": 2.0}).tobytes() == two.tobytes()
