"""Independent oracle implementations shared by the tests.

Everything here is deliberately written against the library's grain: plain
Python loops, itertools enumeration, relaxation instead of heaps.  Slow and
obviously correct beats fast; these exist so each nontrivial code path has a
second route to the same number.
"""
import itertools
import math

import numpy as np

from mmspace import CenterSet, FiniteMetricMeasureSpace, KMeansSolution, MetricReport, enlarged_cell, voronoi_cells
from mmspace.space import _BLOCK_ENTRIES, _enum_count, _weighted_row_sums
from mmspace.samplers import _circle_angles


def brute_cost(space, subset, p):
    """Pure-python clustering cost, no numpy broadcasting."""
    total = 0.0
    for i in range(space.n):
        best = min(space.dist[i][s] for s in subset)
        total += space.weights[i] * best**p
    return total


def brute_kmeans(space, k, p, tie_tol=1e-9):
    """Enumerate every subset of cardinality <= k; return (objective, tied sets)."""
    best = None
    costs = {}
    for size in range(1, min(k, space.n) + 1):
        for subset in itertools.combinations(range(space.n), size):
            c = brute_cost(space, subset, p)
            costs[subset] = c
            if best is None or c < best:
                best = c
    tied = {s for s, c in costs.items() if c <= best * (1.0 + tie_tol)}
    return best, tied


def random_space(rng, n, dim=2, uniform=False):
    pts = rng.uniform(-1.0, 1.0, size=(n, dim))
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    np.fill_diagonal(d, 0.0)
    d = np.minimum(d, d.T)
    labels = [f"p{i}" for i in range(n)]
    if uniform:
        return FiniteMetricMeasureSpace.uniform(labels, d), pts
    w = rng.uniform(0.1, 1.0, size=n)
    w = w / w.sum()
    w[-1] = 1.0 - w[:-1].sum()
    return FiniteMetricMeasureSpace(labels, d, w), pts


def relaxation_passage_times(instance, vertices):
    """All passage times from the origin within a fixed vertex set.

    Bellman-Ford style: relax every internal edge until nothing changes.  The
    vertex set must contain the origin; paths are restricted to the set, which
    matches the library's ball-restricted convention at shell = 0.
    """
    origin = (0,) * instance.dim
    vset = {tuple(v) for v in vertices}
    assert origin in vset
    dist = {v: float("inf") for v in vset}
    dist[origin] = 0.0
    changed = True
    while changed:
        changed = False
        for v in vset:
            for axis in range(instance.dim):
                for sign in (1, -1):
                    w = list(v)
                    w[axis] += sign
                    w = tuple(w)
                    if w not in vset:
                        continue
                    base = v if sign == 1 else w
                    weight = instance.edge_weight(base, axis)
                    if dist[v] + weight < dist[w] - 0.0:
                        dist[w] = dist[v] + weight
                        changed = True
    return dist


def relaxation_geodesics(points, weight):
    """All-pairs graph geodesics by repeated edge relaxation, in plain Python.

    points is a sequence of coordinate tuples; weight(length) gives the edge
    weight for a Euclidean length, or None when the pair is not an edge.  Zero
    and tiny weights are edges like any other.  Relaxes d[i][j] through every
    middle point until nothing changes, so no shortest-path library is
    involved.
    """
    pts = [tuple(float(c) for c in p) for p in points]
    n = len(pts)
    inf = float("inf")
    dist = [[inf] * n for _ in range(n)]
    for i in range(n):
        dist[i][i] = 0.0
        for j in range(n):
            if i != j:
                w = weight(math.dist(pts[i], pts[j]))
                if w is not None:
                    dist[i][j] = w
    changed = True
    while changed:
        changed = False
        for k in range(n):
            dk = dist[k]
            for i in range(n):
                dik = dist[i][k]
                if dik == inf:
                    continue
                di = dist[i]
                for j in range(n):
                    if dik + dk[j] < di[j]:
                        di[j] = dik + dk[j]
                        changed = True
    return np.array(dist)


def wasserstein_1d_uniform(xs, ys, p):
    """W_p between uniform empirical measures on the line.

    The optimal coupling in one dimension is the monotone (quantile) one.  On
    the common refinement of the two quantile grids, lcm(len(xs), len(ys))
    equal steps, both quantile functions are constant, so the distance is the
    p-mean of the stepwise differences; for equal sizes that is the p-mean of
    sorted coordinate differences.
    """
    xs = sorted(xs)
    ys = sorted(ys)
    steps = math.lcm(len(xs), len(ys))
    total = sum(
        abs(xs[k * len(xs) // steps] - ys[k * len(ys) // steps]) ** p for k in range(steps)
    ) / steps
    return total ** (1.0 / p)


def wasserstein_1d_weighted(xs, wx, ys, wy, p):
    """W_p between weighted measures on the line, by the quantile coupling.

    The quantile functions are constant between consecutive breakpoints of
    the two cumulative mass sequences, so the distance is a finite sum over
    those intervals.  Masses must each sum to 1.
    """
    xs, wx = zip(*sorted(zip(xs, wx)))
    ys, wy = zip(*sorted(zip(ys, wy)))
    total = 0.0
    i = j = 0
    ci, cj = wx[0], wy[0]  # cumulative mass through atom i and atom j
    u = 0.0
    while True:
        top = min(ci, cj)
        total += (top - u) * abs(xs[i] - ys[j]) ** p
        u = top
        if i == len(xs) - 1 and j == len(ys) - 1:
            break
        if j == len(ys) - 1 or (ci <= cj and i < len(xs) - 1):
            i += 1
            ci += wx[i]
        else:
            j += 1
            cj += wy[j]
    return total ** (1.0 / p)


def perturbed_containment_trial(rng, n_max=16):
    """One randomized check of cell containment under center perturbation.

    Draw centers A, move each center to one of its nearest neighbors (possibly
    itself), and set delta to twice the Hausdorff distance between A and the
    moved set B (the hypothesis is two-sided: every a near B, every b near A).
    Every original cell must then sit inside the enlarged cell of the matched
    moved center.  Returns True if the containment holds.
    """
    n = int(rng.integers(5, n_max))
    space, _ = random_space(rng, n)
    k = int(rng.integers(1, 5))
    a_centers = rng.choice(n, size=k, replace=False).tolist()
    b_centers = []
    for a in a_centers:
        hop = int(rng.integers(0, 3))
        b_centers.append(int(np.argsort(space.dist[a], kind="stable")[hop]))
    b_centers = sorted(set(b_centers))
    matched = {a: min(b_centers, key=lambda b: space.dist[a, b]) for a in a_centers}
    a_to_b = max(space.dist[a, matched[a]] for a in a_centers)
    b_to_a = max(min(space.dist[b, a] for a in a_centers) for b in b_centers)
    delta = 2.0 * max(a_to_b, b_to_a)
    part = voronoi_cells(space, a_centers)
    for a in a_centers:
        enlarged = set(enlarged_cell(space, b_centers, matched[a], delta))
        if not set(part.cells[a]) <= enlarged:
            return False
    return True


def transitive_classes(dist, tol):
    """Classes of the transitive closure of {(i, j) : dist[i][j] <= tol}.

    Warshall's closure on a boolean list-of-lists, each index related to
    itself; classes are sorted and listed by smallest member.
    """
    n = len(dist)
    reach = [[i == j or dist[i][j] <= tol for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                for j in range(n):
                    if reach[k][j]:
                        reach[i][j] = True
    classes, seen = [], set()
    for i in range(n):
        if i not in seen:
            members = [j for j in range(n) if reach[i][j]]
            seen.update(members)
            classes.append(members)
    return classes


def hausdorff_oracle(a, b):
    """Euclidean Hausdorff distance with one math.dist call per point pair."""
    ab = max(min(math.dist(x, y) for y in b) for x in a)
    ba = max(min(math.dist(x, y) for x in a) for y in b)
    return max(ab, ba)


def center_deviation_oracle(family_n, family_lim):
    """One-sided Hausdorff deviation of family_n from family_lim, per pair."""
    return max(min(hausdorff_oracle(sn, s) for s in family_lim) for sn in family_n)


def cluster_deviation_oracle(cells_n, cells_lim):
    """max over V of min over W of max over v in V of dist(v, W), per pair."""
    return max(
        min(max(min(math.dist(v, w) for w in w_cell) for v in v_cell) for w_cell in cells_lim)
        for v_cell in cells_n
    )


def metric_validate_oracle(matrix, tol=None):
    """metric_validate by whole-matrix passes: one n x n buffer for |d - d.T|
    and, for each l, fl(fl(d - d[:, l]) - d[l]) with its first flat argmax,
    taken when it beats the running maximum strictly."""
    d = np.asarray(matrix, dtype=np.float64)
    n = d.shape[0]
    if tol is None:
        tol = 1e-9 * (float(d.max()) if n > 0 else 0.0)
    buf = np.empty_like(d)
    np.abs(np.subtract(d, d.T, out=buf), out=buf)
    a_w = np.unravel_index(int(np.argmax(buf)), d.shape)
    a_mag = float(buf[a_w])

    diag = np.abs(np.diagonal(d))
    d_i = int(np.argmax(diag))
    d_mag = float(diag[d_i])

    n_w = np.unravel_index(int(np.argmin(d)), d.shape)
    n_mag = float(max(0.0, -d[n_w]))

    t_mag = -math.inf
    t_w = (0, 0, 0)
    for l in range(n):
        np.subtract(d, d[:, l][:, None], out=buf)
        np.subtract(buf, d[l, :][None, :], out=buf)
        flat = int(np.argmax(buf))
        if buf.flat[flat] > t_mag:
            i, j = np.unravel_index(flat, d.shape)
            t_mag = float(buf.flat[flat])
            t_w = (int(i), int(j), l)
    t_mag = max(t_mag, 0.0) if n > 0 else 0.0

    return MetricReport(
        tol=tol,
        asymmetry=a_mag,
        asymmetry_witness=(int(a_w[0]), int(a_w[1])) if a_mag > 0 else None,
        diagonal=d_mag,
        diagonal_witness=(d_i,) if d_mag > 0 else None,
        negativity=n_mag,
        negativity_witness=(int(n_w[0]), int(n_w[1])) if n_mag > 0 else None,
        triangle=t_mag,
        triangle_witness=t_w if t_mag > 0 else None,
        passes=bool(max(a_mag, d_mag, n_mag, t_mag) <= tol),
    )


def joined_costs_oracle(pw, w, served, first=0):
    """Kernel cost of every c >= first joining a set that serves `served`, every row costed."""
    n = pw.shape[0]
    step = max(1, _BLOCK_ENTRIES // n)
    return np.concatenate(
        [_weighted_row_sums(np.minimum(served, pw[s:s + step]), w) for s in range(first, n, step)]
    )


def k_means_exact_oracle(space, k, p=2.0, tie_tol=1e-9):
    """k_means_exact with no screen: the depth-first prefix search costing every set.

    Same kernel, same search order, same tie rule, so its objective and
    family are what the screened solver must give bit for bit.
    """
    n = space.n
    assert _enum_count(n, k) <= 2_000_000
    pw = space.dist**p
    w = space.weights
    depth = min(k, n)
    best = math.inf
    kept = []

    def collect(costs, q, first):
        nonlocal best
        low = float(costs.min())
        if low > best * (1.0 + tie_tol):
            return
        best = min(best, low)
        for i in np.flatnonzero(costs <= best * (1.0 + tie_tol)).tolist():
            kept.append((float(costs[i]), q + (first + i,)))

    def expand(q, block, first):
        collect(_weighted_row_sums(block, w), q, first)
        if len(q) + 1 == depth:
            return
        leaf = len(q) + 2 == depth
        for c in range(first, n - 1):
            if leaf:
                collect(joined_costs_oracle(pw, w, block[c - first], c + 1), q + (c,), c + 1)
            else:
                expand(q + (c,), np.minimum(block[c - first], pw[c + 1:]), c + 1)

    expand((), pw, 0)
    final_thresh = best * (1.0 + tie_tol)
    minimizers = sorted(combo for c, combo in kept if c <= final_thresh)
    return KMeansSolution([CenterSet.of(m) for m in minimizers], best, "exact", tie_tol)


def greedy_build_oracle(pw, w, k):
    """Greedy build costing every point at every step; ties to the lowest non-center."""
    n = pw.shape[0]
    centers = []
    served = np.full(n, np.inf)
    for _ in range(k):
        costs = joined_costs_oracle(pw, w, served)
        costs[centers] = np.inf
        best_x = int(np.argmin(costs))
        centers.append(best_x)
        np.minimum(served, pw[best_x], out=served)
    return centers


def swap_descent_oracle(pw, w, centers):
    """Swap descent costing every swap of every center: the first strict
    improvement on the carried best, in center-then-outside order."""
    n = pw.shape[0]
    centers = list(centers)
    carried = None
    while True:
        idx = np.asarray(centers, dtype=np.intp)
        sub = pw[idx]
        order = np.argsort(sub, axis=0, kind="stable")
        cols = np.arange(n)
        d1 = sub[order[0], cols]
        near = idx[order[0]]
        d2 = sub[order[1], cols] if len(centers) > 1 else np.full(n, np.inf)
        cost = float(_weighted_row_sums(d1[None, :], w)[0])
        if carried is None:
            carried = cost
        out_mask = np.ones(n, dtype=bool)
        out_mask[idx] = False
        outside = np.flatnonzero(out_mask)
        if outside.size == 0:
            return centers, cost
        best_cost = carried
        best_swap = None
        for ci, c in enumerate(centers):
            costs = joined_costs_oracle(pw, w, np.where(near == c, d2, d1))[outside]
            j = int(np.argmin(costs))
            if costs[j] < best_cost:
                best_cost = float(costs[j])
                best_swap = (ci, int(outside[j]))
        if best_swap is None:
            return centers, cost
        centers[best_swap[0]] = best_swap[1]
        carried = best_cost


def k_means_pam_oracle(space, k, p=2.0, restarts=10, seed=0, tie_tol=1e-9):
    """k_means_pam on greedy_build_oracle and swap_descent_oracle."""
    n = space.n
    pw = space.dist**p
    w = space.weights
    results = []
    for r in range(restarts):
        if r == 0:
            init = greedy_build_oracle(pw, w, k)
        else:
            rng = np.random.default_rng([seed & 0xFFFFFFFF, r])
            init = list(rng.choice(n, size=k, replace=False))
        centers, cost = swap_descent_oracle(pw, w, init)
        results.append((cost, tuple(sorted(centers))))
    best = min(c for c, _ in results)
    thresh = best * (1.0 + tie_tol)
    families = sorted(set(m for c, m in results if c <= thresh))
    return KMeansSolution([CenterSet.of(m) for m in families], best, "heuristic", tie_tol)


def networkx_ball_rows(instance, t, shell):
    """(core, rows): T/t between the vertices of B(t), paths inside
    B(t * (1 + shell)), by networkx Dijkstra on the induced lattice graph.

    The graph lists the origin first, then the rest of B(t) sorted, then the
    shell vertices sorted, and adds each edge from its lower end in that
    order, weighted by its hash.  core is B(t) in that order.
    """
    import networkx as nx

    from mmspace import passage_time_ball

    outer = passage_time_ball(instance, t * (1.0 + shell))
    inner = [v for v, d in outer.items() if d < t]
    core = inner[:1] + sorted(inner[1:])
    nodes = core + sorted(v for v, d in outer.items() if d >= t)
    graph = nx.Graph()
    graph.add_nodes_from(nodes)
    for u in nodes:
        for axis in range(instance.dim):
            v = u[:axis] + (u[axis] + 1,) + u[axis + 1:]
            if v in outer:
                graph.add_edge(u, v, weight=instance.edge_weight(u, axis))
    rows = [nx.single_source_dijkstra_path_length(graph, s) for s in core]
    return core, np.array([[dist[v] for v in core] for dist in rows]) / t


def circle_arc_oracle(points):
    """Arc lengths on the unit circle, folded both ways, the diagonal zeroed
    and the matrix symmetrised explicitly."""
    theta = _circle_angles(points)
    d = np.abs(theta[:, None] - theta[None, :])
    d = np.minimum(d, 2.0 * math.pi - d)
    np.fill_diagonal(d, 0.0)
    return np.minimum(d, d.T)


def torus_distance_oracle(points):
    """Product arc lengths on the flat torus from its 4-D embedding: both
    angle gaps folded with fresh temporaries, the diagonal zeroed and the
    matrix symmetrised explicitly."""
    ang = np.stack(
        [np.arctan2(points[:, 1], points[:, 0]), np.arctan2(points[:, 3], points[:, 2])], axis=1
    )
    gaps = []
    for a in ang.T:
        d = np.abs(a[:, None] - a[None, :])
        gaps.append(np.minimum(d, 2.0 * math.pi - d))
    d = np.sqrt(gaps[0] * gaps[0] + gaps[1] * gaps[1])
    np.fill_diagonal(d, 0.0)
    return np.minimum(d, d.T)
