"""End-to-end acceptance gates, one test per release criterion.

Every test here runs the public surface the way a user would and checks it
against an independent route: brute-force enumeration, closed forms, analytic
targets, or a second run under different threading.  Seeds and tolerances are
frozen; a failure means behaviour drifted, not that a bound needs loosening.

Kept flat (no classes) so `pytest -v` prints exactly one pass/fail line per
criterion.
"""
import json
import math

import numpy as np

from mmspace import (
    DiscreteMeasure,
    EdgeWeightLaw,
    FiniteMetricMeasureSpace,
    FppInstance,
    PointCloud,
    SpectralDecomposition,
    circle_arc_metric,
    embedding_from_decomposition,
    epsilon_net_graph,
    equispaced_circle_net,
    euclidean_matrix,
    fermat_distance_matrix,
    fpp_barycenter_track,
    gaussian_fermat_moment_estimate,
    isometry_defect_bound,
    k_means_exact,
    k_means_pam,
    metric_validate,
    normalized_laplacian,
    quantize_density_1d,
    sample,
    scaled_space,
    similarity_matrix,
    spectral_decomposition,
    wasserstein_distance,
    write_cloud_csv,
    write_matrix_csv,
)
from mmspace.cli import main as cli_main
from mmspace.diffusion import diffusion_distance_matrix

from helpers import (
    brute_kmeans,
    perturbed_containment_trial,
    random_space,
    wasserstein_1d_uniform,
)


def test_exact_solver_matches_brute_force_on_random_spaces():
    # 200 spaces, n <= 12, k <= 3, p in {1, 2}: same optimum, same tie family,
    # and the local-search solver never beats the enumerator.
    rng = np.random.default_rng(101)
    for trial in range(200):
        n = int(rng.integers(3, 13))
        k = int(rng.integers(1, 4))
        p = float(rng.choice([1.0, 2.0]))
        space, _ = random_space(rng, n, uniform=bool(rng.integers(0, 2)))
        best, tied = brute_kmeans(space, k, p)
        sol = k_means_exact(space, k, p)
        assert abs(sol.objective - best) <= 1e-12
        assert {m.indices for m in sol.minimizers} == tied
        pam = k_means_pam(space, k, p, restarts=3, seed=trial)
        assert pam.objective >= sol.objective - 1e-12


def test_learned_metrics_satisfy_metric_axioms():
    # 50 random clouds, n <= 100, dim <= 3, alpha in {1, 2, 3}.
    rng = np.random.default_rng(202)
    for trial in range(50):
        n = int(rng.integers(4, 101))
        dim = int(rng.integers(1, 4))
        alpha = float(rng.choice([1.0, 2.0, 3.0]))
        cloud = PointCloud(rng.uniform(-1.0, 1.0, size=(n, dim)), dim)
        m = fermat_distance_matrix(cloud, alpha)
        assert metric_validate(m, tol=1e-9).passes
        if alpha == 1.0:
            assert np.array_equal(m, euclidean_matrix(cloud))
    # equally spaced collinear points: two unit hops always beat the long edge
    line = PointCloud(np.array([[0.0], [1.0], [2.0]]), 1)
    for alpha in (1.0, 2.0, 3.0):
        assert fermat_distance_matrix(line, alpha)[0, 2] == 2.0


def test_interval_medoid_converges_to_midpoint():
    # n = 1000 uniform on [0, 1], density-weighted metric at alpha = 2: the
    # 1-medoid should sit near 0.5 (median deviation over 20 seeds).
    deviations = []
    for seed in range(20):
        cloud = sample("interval", 1000, seed)
        d = fermat_distance_matrix(cloud, 2.0)
        space = FiniteMetricMeasureSpace.uniform(
            [str(i) for i in range(1000)], d
        )
        sol = k_means_exact(space, 1, 2.0)
        medoid = sol.minimizers[0].indices[0]
        deviations.append(abs(float(cloud.points[medoid, 0]) - 0.5))
    assert float(np.median(deviations)) <= 0.05


def test_diffusion_spectra_and_distance_monotonicity():
    rng = np.random.default_rng(404)
    for trial in range(50):
        n = int(rng.integers(2, 30))
        dim = int(rng.integers(1, 4))
        cloud = PointCloud(rng.normal(size=(n, dim)), dim)
        sigma = float(rng.uniform(0.3, 2.0))
        k = int(rng.integers(2, min(n, 8) + 1))
        lap = normalized_laplacian(similarity_matrix(cloud, sigma))
        dec = spectral_decomposition(lap, k)
        assert dec.eigenvalues[0] <= 1e-10
        # full spectrum via an independent eigensolve
        full = np.linalg.eigvalsh(lap)
        assert full.min() >= -1e-10
        assert full.max() <= 1.0 + 1e-10
        # diffusion distances shrink as t grows, every pair at once
        prev = None
        for t in (0.0, 0.5, 1.0, 2.0):
            dt, _ = diffusion_distance_matrix(embedding_from_decomposition(dec, t))
            if prev is not None:
                assert np.all(dt <= prev + 1e-12)
            prev = dt
        # eigenvectors are only defined up to sign
        signs = np.where(rng.integers(0, 2, size=k) == 0, -1.0, 1.0)
        flipped = SpectralDecomposition(
            dec.eigenvalues, dec.eigenvectors * signs, dec.gap_warnings
        )
        d1, _ = diffusion_distance_matrix(embedding_from_decomposition(dec, 1.0))
        d2, _ = diffusion_distance_matrix(embedding_from_decomposition(flipped, 1.0))
        assert np.max(np.abs(d1 - d2)) <= 1e-12
    # two points at distance d: eigenvalues are exactly {0, 2a/(1+a)}
    for d, sigma in ((0.5, 1.0), (1.3, 0.8), (2.0, 1.5)):
        pts = PointCloud(np.array([[0.0], [d]]), 1)
        dec = spectral_decomposition(normalized_laplacian(similarity_matrix(pts, sigma)), 2)
        a = math.exp(-d * d / (2.0 * sigma * sigma))
        assert abs(dec.eigenvalues[0]) <= 1e-12
        assert abs(dec.eigenvalues[1] - 2.0 * a / (1.0 + a)) <= 1e-12


def test_wasserstein_closed_forms_axioms_and_stability():
    rng = np.random.default_rng(505)
    pts = rng.uniform(-2.0, 2.0, size=(12, 2))
    ground = euclidean_matrix(PointCloud(pts, 2))
    # Dirac pairs move exactly the ground distance
    for _ in range(10):
        i, j = (int(v) for v in rng.integers(0, 12, size=2))
        a = DiscreteMeasure((i,), np.array([1.0]))
        b = DiscreteMeasure((j,), np.array([1.0]))
        for p in (1.0, 2.0):
            assert abs(wasserstein_distance(ground, a, b, p) - ground[i, j]) <= 1e-10
    # Dirac against a spread measure: the p-mean of the ground distances
    w = rng.uniform(0.1, 1.0, size=12)
    w = w / w.sum()
    spread = DiscreteMeasure(tuple(range(12)), w)
    dirac = DiscreteMeasure((3,), np.array([1.0]))
    for p in (1.0, 2.0, 3.0):
        expect = float(np.sum(w * ground[3] ** p)) ** (1.0 / p)
        assert abs(wasserstein_distance(ground, dirac, spread, p) - expect) <= 1e-10
    # 1-d uniform empirical measures: monotone matching
    xs = np.sort(rng.uniform(0.0, 1.0, size=8))
    ys = np.sort(rng.uniform(0.0, 1.0, size=8))
    coords = np.concatenate([xs, ys])
    line = np.abs(coords[:, None] - coords[None, :])
    ua = DiscreteMeasure(tuple(range(8)), np.full(8, 1.0 / 8.0))
    ub = DiscreteMeasure(tuple(range(8, 16)), np.full(8, 1.0 / 8.0))
    for p in (1.0, 2.0):
        assert abs(
            wasserstein_distance(line, ua, ub, p) - wasserstein_1d_uniform(xs, ys, p)
        ) <= 1e-10
    # metric axioms on 100 random triples, supports <= 20
    for trial in range(100):
        m = int(rng.integers(6, 26))
        space, _ = random_space(rng, m)
        g = space.dist
        size = int(rng.integers(2, min(m, 20) + 1))
        measures = []
        for _ in range(3):
            support = tuple(int(v) for v in rng.choice(m, size=size, replace=False))
            measures.append(DiscreteMeasure(support, rng.dirichlet(np.ones(size))))
        a, b, c = measures
        p = float(rng.choice([1.0, 2.0]))
        wab = wasserstein_distance(g, a, b, p)
        assert abs(wab - wasserstein_distance(g, b, a, p)) <= 1e-8
        assert wasserstein_distance(g, a, a, p) <= 1e-8
        wac = wasserstein_distance(g, a, c, p)
        wbc = wasserstein_distance(g, b, c, p)
        assert wac <= wab + wbc + 1e-8
    # ground perturbations of size eps move the distance at most the bound
    for eps in (1e-3, 1e-2):
        for _ in range(50):
            space, _ = random_space(rng, 8)
            g = space.dist / max(1.0, space.dist.max())
            noise = rng.uniform(-eps, eps, size=g.shape)
            noise = (noise + noise.T) / 2.0
            np.fill_diagonal(noise, 0.0)
            g2 = np.clip(g + noise, 0.0, None)
            a = DiscreteMeasure(tuple(range(8)), rng.dirichlet(np.ones(8)))
            b = DiscreteMeasure(tuple(range(8)), rng.dirichlet(np.ones(8)))
            shift = abs(
                wasserstein_distance(g, a, b, 2.0) - wasserstein_distance(g2, a, b, 2.0)
            )
            assert shift <= isometry_defect_bound(eps, 1.0)


def test_center_perturbation_containment_never_fails():
    rng = np.random.default_rng(606)
    failures = sum(1 for _ in range(1000) if not perturbed_containment_trial(rng))
    assert failures == 0


def test_passage_time_geometry_and_barycenter_drift():
    # constant weights: passage times are exactly the scaled l1 metric and the
    # barycenter is the origin
    for c in (1.0, 2.0):
        for dim in (1, 2):
            inst = FppInstance(dim, EdgeWeightLaw.deterministic(c), seed=0, horizon=10.0)
            space = scaled_space(inst, 10.0, shell=0.0)
            coords = np.array(
                [[int(s) for s in lab.split(",")] for lab in space.labels]
            )
            manhattan = np.abs(coords[:, None, :] - coords[None, :, :]).sum(axis=2)
            assert np.array_equal(space.dist, c * manhattan / 10.0)
            track = fpp_barycenter_track(inst, [10.0], p=2.0, shell=0.0)
            assert np.array_equal(
                np.asarray(track[0].barycenters, dtype=float), np.zeros((1, dim))
            )
    # rate-1 exponential weights in the plane: the rescaled barycenter drifts
    # toward the origin as t grows (median over 10 seeds)
    norms = {5.0: [], 10.0: [], 20.0: []}
    for seed in range(10):
        # shell 0.2 routes paths through B(1.2 * t), so the horizon must cover it
        inst = FppInstance(2, EdgeWeightLaw.exponential(1.0), seed=seed, horizon=24.0)
        for entry in fpp_barycenter_track(inst, [5.0, 10.0, 20.0], p=2.0, budget=12000):
            b = np.asarray(entry.barycenters[0], dtype=float)
            norms[entry.t].append(float(np.hypot(b[0], b[1])))
    medians = [float(np.median(norms[t])) for t in (5.0, 10.0, 20.0)]
    assert medians[0] >= medians[1] >= medians[2]


def test_quantization_matches_grid_oracles_and_net_admissibility():
    xs = (np.arange(4001) + 0.5) / 4001.0
    # one center on the uniform interval: scan 1001 candidates
    cand = np.linspace(0.0, 1.0, 1001)
    costs = (np.abs(xs[None, :] - cand[:, None]) ** 2).mean(axis=1)
    oracle1 = float(cand[int(np.argmin(costs))])
    assert abs(oracle1 - 0.5) <= 1e-3
    res1 = quantize_density_1d(lambda x: 1.0, 0.0, 1.0, 1)
    assert abs(float(res1.centers[0, 0]) - 0.5) <= 1e-3
    assert abs(float(res1.centers[0, 0]) - oracle1) <= 1e-3
    # two centers: scan every pair on a 101-point grid
    cand = np.linspace(0.0, 1.0, 101)
    gaps = np.abs(xs[None, :] - cand[:, None])
    best = (np.inf, 0.0, 0.0)
    for i in range(101):
        for j in range(i, 101):
            cost = float((np.minimum(gaps[i], gaps[j]) ** 2).mean())
            if cost < best[0]:
                best = (cost, float(cand[i]), float(cand[j]))
    oracle2 = best[1:]
    res2 = quantize_density_1d(lambda x: 1.0, 0.0, 1.0, 2)
    for got, target, ref in zip(res2.centers[:, 0], (0.25, 0.75), oracle2):
        assert abs(ref - target) <= 1e-2
        assert abs(float(got) - target) <= 1e-2
        assert abs(float(got) - ref) <= 1e-2
    # circle nets: the graph metric tracks arc length iff the net is fine
    # enough for the chosen eps, and the admissibility rule matches the
    # threshold formula recomputed by hand
    net = equispaced_circle_net(200)
    arc = circle_arc_metric(net)
    radius = math.pi / 200.0
    for eps, expect in ((0.3, False), (0.5, True)):
        res = epsilon_net_graph(net, arc, eps, math.pi, net_radius=radius)
        assert res.admissible is expect
        assert res.admissible is bool(
            res.net_radius < eps * eps / (4.0 * math.pi)
        )
        if expect:
            assert float(np.max(np.abs(res.dist - arc))) <= eps


def test_moment_estimates_match_analytic_values():
    # alpha = 1: increments are folded normal, mean sqrt(2/pi)
    est = gaussian_fermat_moment_estimate(1.0, 100000, seed=0)
    target = math.sqrt(2.0 / math.pi)
    se = math.sqrt(1.0 - 2.0 / math.pi) / math.sqrt(100000.0)
    assert abs(est - target) <= 3.0 * se
    # alpha = 2: estimates at n = 1e4 and 1e5 agree to 10 percent
    e4 = gaussian_fermat_moment_estimate(2.0, 10000, seed=1)
    e5 = gaussian_fermat_moment_estimate(2.0, 100000, seed=2)
    assert abs(e4 - e5) <= 0.10 * abs(e5)
    # alpha = 3.5: the moment diverges, so the estimate must keep growing
    f3 = gaussian_fermat_moment_estimate(3.5, 1000, seed=2)
    f5 = gaussian_fermat_moment_estimate(3.5, 100000, seed=2)
    assert f5 > 2.0 * f3


def test_cli_outputs_are_byte_identical_across_runs_and_threads(
    tmp_path, capsys, monkeypatch
):
    # shared inputs, written once
    cloud = tmp_path / "s.csv"
    matrix = tmp_path / "m.csv"
    m = np.array(
        [[0.0, 0.1, 10.0, 10.1], [0.1, 0.0, 9.9, 10.0],
         [10.0, 9.9, 0.0, 0.1], [10.1, 10.0, 0.1, 0.0]]
    )
    write_matrix_csv(matrix, ["a", "b", "c", "d"], np.minimum(m, m.T))
    group_rng = np.random.default_rng(0)
    groups = []
    for i, center in enumerate((0.0, 5.0, 10.0)):
        path = tmp_path / f"g{i}.csv"
        write_cloud_csv(
            path, PointCloud(group_rng.normal(center, 0.1, size=(12, 1)), 1)
        )
        groups.append(str(path))
    config = tmp_path / "exp.ini"
    config.write_text(
        "[data]\ngenerator = interval\n"
        "[kmeans]\nk = 1\n"
        "[run]\nsizes = 10 20\ntrials = 2\nseed = 0\n"
    )
    dist_out = tmp_path / "d.csv"
    sol_out = tmp_path / "sol.json"
    exp_out = tmp_path / "results"
    commands = [
        (
            ("sample", "--generator", "interval", "--n", "25", "--seed", "3",
             "--out", str(cloud)),
            [cloud],
        ),
        (
            ("dist", "--method", "fermat", "--alpha", "2.0", "--intrinsic-dim", "1",
             "--in", str(cloud), "--out", str(dist_out)),
            [dist_out],
        ),
        (("validate", "--in", str(dist_out)), []),
        (
            ("kmeans", "--space", str(matrix), "--k", "2", "--out", str(sol_out)),
            [sol_out],
        ),
        (("voronoi", "--space", str(matrix), "--centers", "0,2", "--delta", "2.0"), []),
        (("wkmeans", "--groups", *groups, "--k", "1", "--seed", "0"), []),
        (("fpp", "--dim", "2", "--law", "exp:1", "--seed", "1", "--t", "2,3"), []),
        # balls of hundreds of vertices, where the track prunes candidates
        (("fpp", "--dim", "2", "--law", "exp:1", "--seed", "1", "--t", "5,8"), []),
        (("quantize", "--in", str(cloud), "--n", "2", "--restarts", "3",
          "--seed", "0"), []),
        (("net", "--points", "60", "--eps", "0.5"), []),
        (
            ("experiment", "--config", str(config), "--out", str(exp_out)),
            [exp_out / "results.csv", exp_out / "summary.json"],
        ),
    ]
    for argv, outs in commands:
        records = []
        for threads in ("1", "8"):
            monkeypatch.setenv("MM_THREADS", threads)
            for _ in range(2):
                code = cli_main(list(argv))
                stdout = capsys.readouterr().out
                assert code == 0, (argv, stdout)
                records.append((stdout, tuple(p.read_bytes() for p in outs)))
        assert all(r == records[0] for r in records[1:]), argv[0]
