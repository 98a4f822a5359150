"""Finite metric measure spaces and Frechet k-means over them.

A space is a finite point set with a symmetric distance matrix and a
probability weight vector.  The clustering cost of a center set S is the
weighted p-th power of the distance from each point to its nearest center;
k-means solutions collect every center set minimizing that cost, because
minimizers are generally not unique and downstream stability statements
quantify over the whole family.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from . import geodesic
from ._fork import fork_join
from .cloud import _as_points, _floats
from .errors import BudgetExceededError, InvalidArgumentError

DEFAULT_TIE_TOL = 1e-9
DEFAULT_ENUM_BUDGET = 2_000_000
# numpy's einsum sums a contiguous row in one inner loop only while the row
# fits its iterator buffer (8192 elements); longer rows are cut into column
# blocks of this width (see _weighted_row_sums)
_KERNEL_COLUMNS = 4096
# _survivor_costs mins and reduces its rows in blocks of about this many
# entries (512 KB, about an L2 cache), so a prefix with many children holds
# no n x n temporary
_BLOCK_ENTRIES = 1 << 16
# metric_validate's passes work on row blocks of about this many entries
_VALIDATE_ENTRIES = 1 << 16
# k_means_exact screens the children of a prefix in groups of this many rows
_SCREEN_ROWS = 32
# Work at which a loop is split across forked workers (_fork.fork_join):
# k_means_pam's restarts when restarts * k * n^2 reaches the first,
# metric_validate's bound pass when n^3 reaches the second
# (measured on a 2-vCPU x86 host, where a fork and join costs about 10 ms,
# with two workers: PAM broke even near 3M (n = 300, k = 4, 10 restarts: 71
# against 79 ms; n = 200: 43 against 44 ms), the bound pass near n = 400 (43
# against 38 ms; 25 against 19 ms at n = 300, 52 against 67 ms at n = 500))
_FORK_PAM_ENTRIES = 3 << 20
_FORK_TRIANGLE_ENTRIES = 1 << 26

# ----------------------------------------------------------------------------
# input rules
# ----------------------------------------------------------------------------


def _as_square(matrix, name: str) -> np.ndarray:
    """The one square-matrix rule: a float64 (n, n) array with n >= 1, else an
    InvalidArgumentError naming the argument.  Finiteness is each caller's, so
    metric_validate can refuse an oversized matrix before any n x n temporary."""
    m = _floats(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidArgumentError(f"{name} must be square")
    if m.shape[0] == 0:
        raise InvalidArgumentError(f"{name} needs at least one point")
    return m


def _check_symmetric(m: np.ndarray, name: str) -> None:
    """The one symmetry rule for an explicit matrix that _as_square has passed:
    m equals its transpose entry for entry (so -0.0 matches 0.0 and a NaN
    matches nothing), else an InvalidArgumentError naming the argument."""
    if not np.array_equal(m, m.T):
        raise InvalidArgumentError(f"{name} must be exactly symmetric")


def _as_metric_matrix(matrix, name: str) -> np.ndarray:
    """The one rule for an explicit metric matrix given as input: square
    (_as_square), finite and nonnegative entries, and exactly symmetric
    (_check_symmetric), else an InvalidArgumentError naming the argument."""
    m = _as_square(matrix, name)
    if not np.all((m >= 0.0) & (m < np.inf)):
        raise InvalidArgumentError(f"{name} entries must be finite and nonnegative")
    _check_symmetric(m, name)
    return m


def _as_weights(weights, n: int, name: str) -> np.ndarray:
    """The one weight rule: a finite, nonnegative float64 vector of length n with
    a positive finite sum, else an InvalidArgumentError naming the argument."""
    w = _floats(weights)
    if w.shape != (n,):
        raise InvalidArgumentError(f"{name} must be a length-{n} vector")
    if not np.all((w >= 0.0) & (w < math.inf)):
        raise InvalidArgumentError(f"{name} must be finite and nonnegative")
    with np.errstate(over="ignore"):
        total = float(w.sum())
    if not 0.0 < total < math.inf:
        raise InvalidArgumentError(f"{name} must have a positive finite sum")
    return w


# ----------------------------------------------------------------------------
# metric validation
# ----------------------------------------------------------------------------


@dataclass
class MetricReport:
    """Worst violation of each metric axiom on a square matrix.

    Witnesses are index tuples: (i, j) for symmetry and negativity, (i,) for
    the diagonal, (i, j, l) for the triangle inequality d(i,j) <= d(i,l)+d(l,j).
    A witness of None means no violation at all.
    """

    tol: float
    asymmetry: float
    asymmetry_witness: tuple | None
    diagonal: float
    diagonal_witness: tuple | None
    negativity: float
    negativity_witness: tuple | None
    triangle: float
    triangle_witness: tuple | None
    passes: bool

    def worst(self) -> float:
        return max(self.asymmetry, self.diagonal, self.negativity, self.triangle)


def metric_validate(matrix: np.ndarray, tol: float | None = None) -> MetricReport:
    """Check the metric axioms on a matrix; O(n^3) for the triangle pass.

    With tol=None the tolerance is 1e-9 scaled by the largest entry, which is
    the right yardstick for learned matrices carrying accumulated rounding;
    a given tol must be a finite real number >= 0 (_check_tol).
    Past geodesic.MAX_GRAPH_POINTS points it raises BudgetExceededError
    before any temporary is allocated.

    The triangle violation of (i, j, l) is fl(fl(d_ij - d_il) - d_lj), and
    the report gives the largest, at the first l that reaches it and the
    first (i, j) in row-major order for that l.  Both that pass and the
    asymmetry |d - d.T| find their witness by one rule (_first_max): the
    largest entry at its first row-major position, its value read from the
    entry itself, so signed zeros are the entry's.  Only an l that raises
    the running maximum strictly takes its witness.

    That exact pass runs only for an l whose bound ub[l] (_triangle_bounds,
    scipy's C Chebyshev loop over pairs of columns) exceeds the running
    maximum: ub[l] is at least every violation through l, so a skipped l
    could not have raised the maximum, and the report, witnesses and signed
    zeros included, is the one the pass over every l gives.  All passes work
    on blocks of about _VALIDATE_ENTRIES entries, with at least n / 32 rows
    or columns each so the loops over blocks stay O(32 n), and hold no n x n
    temporary.  The bound pass, nearly all of the time at n = 500, is split
    across forked workers when n^3 reaches _FORK_TRIANGLE_ENTRIES = 2^26 (n
    of 407 and up), at most MM_THREADS of them (see _fork.fork_join); its
    merge is an exact max, so the report does not depend on MM_THREADS.
    """
    if tol is not None:
        tol = _check_tol(tol, "tol")
    d = _as_square(matrix, "matrix")
    geodesic._check_graph_size(d.shape[0], "metric validation")
    if not np.all(np.isfinite(d)):
        raise InvalidArgumentError("matrix must be finite")
    n = d.shape[0]
    if tol is None:
        tol = 1e-9 * float(d.max())

    step = max(1, _VALIDATE_ENTRIES // n, -(-n // 32))
    blocks = [slice(s, min(s + step, n)) for s in range(0, n, step)]
    # before buf, so the two column blocks of the bound pass are the largest
    # arrays alive while it runs
    ub = _triangle_bounds(d, blocks)
    buf = np.empty((min(step, n), n))

    a_mag, a_w = _first_max(blocks, buf, lambda b, out: np.abs(np.subtract(d[b], d[:, b].T, out=out), out=out))

    diag = np.abs(np.diagonal(d))
    d_i = int(np.argmax(diag))
    d_mag = float(diag[d_i])

    neg_flat = int(np.argmin(d))
    n_w = np.unravel_index(neg_flat, d.shape)
    n_mag = float(max(0.0, -d[n_w]))

    t_mag = -math.inf
    t_w = (0, 0, 0)
    for l in range(n):
        if not ub[l] > t_mag:
            continue
        # entry (i, j) is the violation fl(fl(d_ij - d_il) - d_lj) through l
        top, (i, j) = _first_max(
            blocks, buf, lambda b, out: np.subtract(np.subtract(d[b], d[b, l][:, None], out=out), d[l], out=out)
        )
        if top > t_mag:
            t_mag, t_w = top, (i, j, l)
    t_mag = max(t_mag, 0.0)

    return MetricReport(
        tol=tol,
        asymmetry=a_mag,
        asymmetry_witness=a_w if a_mag > 0 else None,
        diagonal=d_mag,
        diagonal_witness=(d_i,) if d_mag > 0 else None,
        negativity=n_mag,
        negativity_witness=(int(n_w[0]), int(n_w[1])) if n_mag > 0 else None,
        triangle=t_mag,
        triangle_witness=t_w if t_mag > 0 else None,
        passes=bool(max(a_mag, d_mag, n_mag, t_mag) <= tol),
    )


def _first_max(blocks: list, buf: np.ndarray, fill) -> tuple:
    """(value, (i, j)) of the largest entry, at its first row-major position, of
    a matrix whose row block b fill(b, out) writes into out; the value is read
    from that entry, so a signed zero keeps its sign."""
    n = buf.shape[1]
    best, at = -math.inf, (0, 0)
    for b in blocks:
        block = buf[: b.stop - b.start]
        fill(b, block)
        flat = int(np.argmax(block))
        if block.flat[flat] > best:
            best = float(block.flat[flat])
            at = (b.start + flat // n, flat % n)
    return best, at


def _triangle_bounds(d: np.ndarray, blocks: list) -> np.ndarray:
    """ub[l] = max_j fl(cheb(l, j) - min(d_lj, d_jl)), at least every violation through l.

    cheb(l, j) = max_i |fl(d_il - d_ij)| is the Chebyshev distance between
    columns l and j, from scipy's C loop.  It is a rigorous bound with no
    slack: a max does not round, fl(d_ij - d_il) = -fl(d_il - d_ij), so
    fl(d_ij - d_il) <= cheb(l, j); and rounding is monotone, so
    fl(fl(d_ij - d_il) - d_lj) <= fl(cheb(l, j) - min(d_lj, d_jl)).  The
    bound of (l, j) is that of (j, l), so only column block pairs J >= I are
    computed, each updating the bounds of both blocks.  The pairs are dealt
    round-robin to _fork.fork_join's workers when n^3 reaches
    _FORK_TRIANGLE_ENTRIES; each worker keeps its own running max, and their
    elementwise max is exact, so ub is the same whatever the split.
    """
    pairs = [(rows, cols) for bi, rows in enumerate(blocks) for cols in blocks[bi:]]

    def share(j, workers):
        ub = np.full(d.shape[0], -math.inf)
        left_of = left = None
        for rows, cols in pairs[j::workers]:
            if rows != left_of:
                left_of, left = rows, np.ascontiguousarray(d[:, rows].T)
            # the right block is a temporary: at most two column blocks live
            pen = cdist(left, left if cols == rows else np.ascontiguousarray(d[:, cols].T), "chebyshev")
            pen -= np.minimum(d[rows, cols], d[cols, rows].T)
            np.maximum(ub[rows], pen.max(axis=1), out=ub[rows])
            np.maximum(ub[cols], pen.max(axis=0), out=ub[cols])
        return ub

    parts = fork_join(share, len(pairs), d.shape[0] ** 3 >= _FORK_TRIANGLE_ENTRIES)
    return np.maximum.reduce(parts)


# ----------------------------------------------------------------------------
# the space type
# ----------------------------------------------------------------------------


@dataclass
class FiniteMetricMeasureSpace:
    """Finite point set, symmetric distance matrix, probability weights.

    Construction checks the cheap invariants (shape, exact symmetry, zero
    diagonal, nonnegative entries, weights summing to one within 1e-12).
    The O(n^3) triangle pass is deliberately left to validate(), since large
    shortest-path matrices satisfy it by construction.
    """

    labels: list
    dist: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        d = np.array(_as_square(self.dist, "space"))  # a copy, as are the weights
        n = d.shape[0]
        try:
            labels = list(self.labels)
        except TypeError:
            raise InvalidArgumentError(f"labels must be a sequence, got {type(self.labels).__name__}") from None
        if len(labels) != n:
            raise InvalidArgumentError(f"{len(labels)} labels for {n} points")
        if not np.all(np.isfinite(d)):
            raise InvalidArgumentError("dist must be finite")
        _check_symmetric(d, "dist")
        if np.any(np.diagonal(d) != 0.0):
            raise InvalidArgumentError("dist diagonal must be exactly zero")
        if d.min() < 0.0:
            raise InvalidArgumentError("dist entries must be nonnegative")
        w = np.array(_as_weights(self.weights, n, "weights"))
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise InvalidArgumentError(
                f"weights must sum to 1 within 1e-12, got {float(w.sum())!r}"
            )
        self.labels = labels
        self.dist = d
        self.weights = w

    @property
    def n(self) -> int:
        return self.dist.shape[0]

    def diameter(self) -> float:
        return float(self.dist.max())

    def validate(self, tol: float | None = None) -> MetricReport:
        return metric_validate(self.dist, tol)

    @classmethod
    def uniform(cls, labels, dist) -> "FiniteMetricMeasureSpace":
        n = len(labels)
        # no labels: an empty weight vector, so construction names the fault
        return cls(labels, dist, np.full(n, 1.0 / n) if n else np.empty(0))


@dataclass(frozen=True)
class CenterSet:
    """A nonempty set of point indices, stored sorted for determinism."""

    indices: tuple

    @classmethod
    def of(cls, indices) -> "CenterSet":
        idx = tuple(sorted(set(int(i) for i in indices)))
        if not idx:
            raise InvalidArgumentError("center set must be nonempty")
        return cls(idx)

    def __len__(self):
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)


@dataclass
class KMeansSolution:
    """All minimizing center sets plus the shared objective value.

    method is "exact" when the family is provably complete at the stated tie
    tolerance and "heuristic" when it only collects what a local search found.
    """

    minimizers: list
    objective: float
    method: str
    tie_tolerance: float

    @property
    def best(self) -> CenterSet:
        return self.minimizers[0]


def _center_indices(space: FiniteMetricMeasureSpace, centers) -> np.ndarray:
    """The sorted indices of a center set (see CenterSet.of), checked against space."""
    if not isinstance(centers, CenterSet):
        centers = CenterSet.of(centers)
    idx = np.asarray(centers.indices, dtype=np.intp)
    if idx.min() < 0 or idx.max() >= space.n:
        raise InvalidArgumentError("center index out of range")
    return idx


def _check_p(p: float) -> float:
    p = float(p)
    if not (p >= 1.0 and math.isfinite(p)):
        raise InvalidArgumentError(f"p must be a real number >= 1, got {p!r}")
    return p


def _check_tol(tol: float, name: str) -> float:
    """The one tolerance rule, for the solvers' tie_tol and metric_validate's
    tol: a finite real number >= 0, else an InvalidArgumentError naming it."""
    tol = float(tol)
    if not (tol >= 0.0 and math.isfinite(tol)):
        raise InvalidArgumentError(f"{name} must be a finite real number >= 0, got {tol!r}")
    return tol


def _weighted_row_sums(rows: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_i w_i * rows[r, i] for every row r, each summed in one fixed order.

    The order depends on the row length alone.  No BLAS routine is called,
    so neither the BLAS library nor its thread count enters, and neither
    does the row's position in its block or the block's place in memory.
    Every solver reduces its costs here, so a center set costs the same bits
    whichever solver, batch or row computed it.  einsum keeps a C-contiguous
    row in one inner loop only while it fits the iterator buffer, so longer
    rows are summed in column blocks of _KERNEL_COLUMNS, added left to right.
    """
    rows = np.ascontiguousarray(rows)
    out = np.einsum("ij,j->i", rows[:, :_KERNEL_COLUMNS], w[:_KERNEL_COLUMNS])
    for s in range(_KERNEL_COLUMNS, rows.shape[1], _KERNEL_COLUMNS):
        out += np.einsum("ij,j->i", rows[:, s:s + _KERNEL_COLUMNS], w[s:s + _KERNEL_COLUMNS])
    return out


class _Extensions:
    """One solve's powered matrix pw = dist**p and weights w, with the screen's data.

    pww = pw * w holds w_i * pw[c, i] in row c, and rsum[c] its row sum, the
    weighted cost of c alone.  Both solvers build them once, before their
    search, when k > 1; at k = 1 no batch can screen (every served row is
    inf), so they are never built.  finite() is false, and _screen bounds
    nothing in the whole solve, when rsum is not finite with room to spare:
    dist**p overflowed to inf (then pww holds inf, or nan under a zero
    weight), or a row sum did.
    """

    def __init__(self, pw: np.ndarray, w: np.ndarray):
        self.pw = pw
        self.w = w
        self.pww = None
        self.rsum = None
        self._finite = None

    def finite(self) -> bool:
        """Whether the screen may run in this solve; builds pww and rsum on the first call."""
        if self._finite is None:
            with np.errstate(invalid="ignore", over="ignore"):
                pww = self.pw * self.w
                rsum = pww.sum(axis=1)
            self._finite = math.isfinite(4.0 * float(rsum.max()))
            if self._finite:
                self.pww, self.rsum = pww, rsum
        return self._finite


# The screen.  For w_i >= 0, w_i min(s_i, y_i) = (w_i s_i + w_i y_i - |w_i s_i - w_i y_i|) / 2,
# so the cost of c joining a set that serves s (y = pw[c]) is
#     T_c = (S + R_c - L_c) / 2,  S = sum_i w_i s_i,  R_c = rsum[c],  L_c = ||w * s - pww[c]||_1,
# and L_c for a whole batch is one cdist "cityblock" call on contiguous rows of
# pww.  Error bound, with u = 2^-53 and gamma_m = m u / (1 - m u), every term
# nonnegative, and S + R_c written B_c:
#   - the kernel sums n rounded products in some order, so its K_c is within
#     gamma_n T_c <= gamma_n B_c / 2 of T_c;
#   - S (summed from the rounded w_i s_i) and R_c are such sums as well: each
#     is within gamma_n of itself;
#   - each |x_i - y_i| cdist adds up comes from two rounded products and one
#     rounded difference, within (2u + u^2)(x_i + y_i) of the exact one, and
#     its n - 1 additions put the computed L_c within gamma_{n+2} B_c of L_c;
#   - (S + R_c - L_c) * 0.5 rounds an add and a subtract of values below
#     1.01 B_c, within 1.01 u B_c together after the exact halving.
# So the screen's approx_c is within (n + 2.1) u B_c of T_c, and within
# (1.5 n + 2.2) u B_c of K_c.  err_c = 4 (n + 3) u B_c is larger by
# (2.5 n + 9.8) u B_c, which absorbs the rounding of err_c itself and of
# approx_c -/+ err_c (under 0.6 u B_c each).  Products that underflow lose up
# to 2^-1075 apiece with no relative bound, about 3 n of them across screen
# and kernel; the term (n + 3) 2^-1070 covers them.  Hence, for every c,
#     fl(approx_c - err_c) < K_c < fl(approx_c + err_c).
def _screen(ext: _Extensions, served: np.ndarray, first: int, best: float, tol: float, drop: np.ndarray) -> np.ndarray:
    """Lower bounds on the costs of the one-center extensions of the sets served[r].

    Row r of served holds the powered distances a set serves; it takes the
    candidates first, ..., n - 1 where drop, a boolean mask broadcast to
    (rows, n - first), does not hold.  low[r, j] is fl(approx - err) for
    candidate first + j, below its kernel cost, or inf where drop holds or
    low > fl(min(best, least) * (1 + tol)), least being the smallest
    fl(approx + err) of the batch: least is above the batch's smallest kernel
    cost K*, so what is dropped costs more than fl(min(best, K*) * (1 + tol)).
    When a served entry or dist**p is not finite, and only here is that
    decided, nothing is bounded: low is -inf where drop does not hold, so a
    strict filter low < thresh keeps those candidates whatever thresh is.
    Everything is computed doubled, which rounds the same, to save a pass.
    """
    if not (math.isfinite(served.max()) and ext.finite()):
        return np.where(drop, math.inf, np.full((served.shape[0], ext.pw.shape[0] - first), -math.inf))
    n = ext.pw.shape[0]
    served_w = served * ext.w
    both = ext.rsum[first:] + served_w.sum(axis=1)[:, None]
    low = cdist(served_w, ext.pww[first:], "cityblock")
    np.subtract(both, low, out=low)
    np.copyto(low, math.inf, where=drop)
    err = both
    err *= (n + 3) * 2.0**-50
    err += (n + 3) * 2.0**-1069
    thresh = min(2.0 * best, float((low + err).min())) * (1.0 + tol)
    low -= err
    low[low > thresh] = math.inf
    low *= 0.5
    return low


def _survivor_costs(ext: _Extensions, served: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """Kernel cost of every c in cand joining a set that serves served, in blocks."""
    step = max(1, _BLOCK_ENTRIES // ext.pw.shape[0])
    costs = np.empty(cand.size)
    for s in range(0, cand.size, step):
        rows = ext.pw[cand[s:s + step]]
        costs[s:s + step] = _weighted_row_sums(np.minimum(served, rows, out=rows), ext.w)
    return costs


def _kept_costs(ext: _Extensions, served: np.ndarray, low: np.ndarray, thresh: float) -> np.ndarray:
    """Kernel cost of every point whose bound in the _screen row low is below thresh, inf elsewhere."""
    cand = np.flatnonzero(low < thresh)
    costs = np.full(low.size, math.inf)
    costs[cand] = _survivor_costs(ext, served, cand)
    return costs


def clustering_cost(space: FiniteMetricMeasureSpace, centers, p: float = 2.0) -> float:
    """Weighted p-th power cost of serving every point from its nearest center."""
    p = _check_p(p)
    idx = _center_indices(space, centers)
    served = (space.dist[idx] ** p).min(axis=0)
    return float(_weighted_row_sums(served[None, :], space.weights)[0])


def _enum_count(n: int, k: int) -> int:
    return sum(math.comb(n, j) for j in range(1, min(k, n) + 1))


def k_means_exact(
    space: FiniteMetricMeasureSpace,
    k: int,
    p: float = 2.0,
    tie_tol: float = DEFAULT_TIE_TOL,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> KMeansSolution:
    """Enumerate every center set of cardinality <= k and collect all minimizers.

    Ties are collected at relative tolerance tie_tol, so center sets whose
    costs differ only by accumulated rounding are reported together.  Raises
    BudgetExceededError when the candidate count exceeds the budget; use
    k_means_pam then.

    The powered matrix pw = dist**p is built once, and the sets are searched
    depth first over their sorted prefixes.  A prefix q costs every set
    q + (c,) with c > q[-1] in one step: dist is exactly symmetric, so those
    sets serve min(served_q, pw[c]), contiguous rows of pw.  Shorter
    prefixes keep their block, because its row i is what child i serves; at
    the root the block is pw itself.  The children of a prefix two centers
    short of k cost the leaves, the sets of size k, and go through _screen
    in groups of _SCREEN_ROWS with the running best and tie_tol; each child
    then has the kernel cost only the leaves whose bound is below
    best * (1 + tie_tol) at that moment.  best only falls, and a group's
    least is above its smallest cost, itself at least the final best, so a
    dropped leaf costs more than fl(final best * (1 + tie_tol)): it could
    neither lower best nor join the family.  Only when dist**p overflows
    (see _Extensions) does the kernel cost every leaf.  Every cost that is
    compared or reported comes from _weighted_row_sums, so a set costs the
    same bits here as in clustering_cost and PAM, whatever the search order,
    and the objective and family are those of costing every set.
    """
    p = _check_p(p)
    if k < 1:
        raise InvalidArgumentError("k must be >= 1")
    tie_tol = _check_tol(tie_tol, "tie_tol")
    n = space.n
    count = _enum_count(n, k)
    if count > budget:
        raise BudgetExceededError(
            f"exact enumeration needs {count} candidates (budget {budget}); "
            "use k_means_pam"
        )
    pw = space.dist**p
    w = space.weights
    ext = _Extensions(pw, w)
    if k > 1:
        ext.finite()  # pww and rsum, built once before the search
    depth = min(k, n)
    group = max(1, min(_SCREEN_ROWS, _BLOCK_ENTRIES // n))

    best = math.inf
    kept: list[tuple[float, tuple]] = []

    def collect(costs, q, cand):
        # costs[i] is the cost of q + (cand[i],); a batch whose minimum is
        # above the tie threshold can neither lower best nor tie it
        nonlocal best
        low = float(costs.min())
        if low > best * (1.0 + tie_tol):
            return
        best = min(best, low)
        for i in np.flatnonzero(costs <= best * (1.0 + tie_tol)).tolist():
            kept.append((float(costs[i]), q + (int(cand[i]),)))

    def leaves(q, block, first):
        # child q + (c,) serves block[c - first] and costs its sets
        # q + (c, c') for c' > c; the children are screened in groups of rows
        for g0 in range(first, n - 1, group):
            g1 = min(g0 + group, n - 1)
            served = block[g0 - first:g1 - first]
            low = _screen(ext, served, g0 + 1, best, tie_tol, np.tri(g1 - g0, n - g0 - 1, -1, dtype=bool))
            # the threshold only falls while the group is costed, so each
            # child keeps the candidates whose bound is below it then
            for r, floor in enumerate(low.min(axis=1).tolist()):
                thresh = best * (1.0 + tie_tol)
                if floor < thresh:
                    cand = g0 + 1 + np.flatnonzero(low[r] < thresh)
                    collect(_survivor_costs(ext, served[r], cand), q + (g0 + r,), cand)

    def expand(q, block, first):
        # block[i] holds the powered distances served by q + (first + i,);
        # the last child, q + (n - 1,), has no children
        collect(_weighted_row_sums(block, w), q, np.arange(first, n))
        if len(q) + 1 == depth:
            return
        if len(q) + 2 == depth:
            leaves(q, block, first)
            return
        for c in range(first, n - 1):
            expand(q + (c,), np.minimum(block[c - first], pw[c + 1:]), c + 1)

    expand((), pw, 0)
    # expand calls itself, so its closure is a reference cycle holding pw and
    # ext; emptying it frees them on return, not at the next collection
    del expand

    return _solution(kept, best, tie_tol, "exact")


def _greedy_build(ext: _Extensions, k: int) -> list:
    """Classic greedy build: repeatedly add the point lowering cost the most.

    Each step costs every point in one vectorised pass; ties go to the
    lowest index that is not yet a center.  A step is one _screen row with
    the centers dropped, best = inf and tol = 0: a point is dropped only
    when its kernel cost is provably above the smallest one among the
    points that are not centers, so the first argmin over the survivors is
    the first argmin over all.  The first step serves inf everywhere, so
    _screen bounds nothing and the kernel costs every point.
    """
    pw = ext.pw
    n = pw.shape[0]
    centers: list[int] = []
    served = np.full(n, np.inf)
    drop = np.zeros(n, dtype=bool)
    for _ in range(k):
        low = _screen(ext, served[None, :], 0, math.inf, 0.0, drop)
        best_x = int(np.argmin(_kept_costs(ext, served, low[0], math.inf)))
        drop[best_x] = True
        centers.append(best_x)
        np.minimum(served, pw[best_x], out=served)
    return centers


def _swap_descent(ext: _Extensions, centers: list) -> tuple:
    """Swap medoids until no single swap improves the cost.

    ext holds pw = dist**p.  Each pass costs, center by center, every swap of
    that center for an outside point, and takes the first strict improvement
    on the best so far: the first argmin in center-then-outside order.  The
    k served rows of a pass go through one _screen call (centers dropped,
    best = the carried cost, tol = 0), and row ci has the kernel cost only
    the points whose bound is below the best so far.  A swap attaining the
    pass minimum K* < carried has low < K* <= least and K* <= the best so
    far, so it survives both filters, and the first argmin is the one
    costing every swap gives.  With one center every served row is inf,
    _screen bounds nothing, and the kernel costs every point.  The
    acceptance baseline is carried over from the last accepted swap, not
    recomputed from the new centers.  Both routes reduce the same row with
    the same kernel and agree bit for bit, but the carried baseline alone
    guarantees that the cost strictly falls from pass to pass, so exactly
    tied center sets can never oscillate.
    """
    pw, w = ext.pw, ext.w
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

        drop = np.zeros(n, dtype=bool)
        drop[idx] = True
        served = np.where(near == idx[:, None], d2, d1)
        low = _screen(ext, served, 0, carried, 0.0, drop)
        best_cost = carried
        best_swap = None
        for ci in range(len(centers)):
            costs = _kept_costs(ext, served[ci], low[ci], best_cost)
            j = int(np.argmin(costs))
            if costs[j] < best_cost:
                best_cost = float(costs[j])
                best_swap = (ci, j)
        if best_swap is None:
            return centers, cost
        centers[best_swap[0]] = best_swap[1]
        carried = best_cost


def k_means_pam(
    space: FiniteMetricMeasureSpace,
    k: int,
    p: float = 2.0,
    restarts: int = 10,
    seed: int = 0,
    tie_tol: float = DEFAULT_TIE_TOL,
) -> KMeansSolution:
    """Greedy build plus swap descent, restarted; deterministic given seed.

    Restart 0 starts from the deterministic greedy build; later restarts start
    from random k-subsets drawn from a per-restart stream.  The returned
    objective can only be >= the exact one.

    dist**p and, for k > 1, the screen's arrays are built once; each greedy
    step and each swap pass makes one _screen call (see _swap_descent).  When
    restarts * k * n^2 reaches _FORK_PAM_ENTRIES = 3 * 2^20 the restarts
    are dealt round-robin to forked workers, at most MM_THREADS of them (see
    _fork.fork_join), so restart 0 and its greedy build run in this process.  Each restart is a
    pure function of its index and the results are merged in restart order,
    so the objective bits and the family do not depend on MM_THREADS.
    """
    p = _check_p(p)
    n = space.n
    if not 1 <= k <= n:
        raise InvalidArgumentError(f"k must be in [1, {n}], got {k}")
    if restarts < 1:
        raise InvalidArgumentError("restarts must be >= 1")
    tie_tol = _check_tol(tie_tol, "tie_tol")
    ext = _Extensions(space.dist**p, space.weights)
    if k > 1:
        ext.finite()  # pww and rsum, built once before any fork

    def share(j, workers):
        out = []
        for r in range(j, restarts, workers):
            if r == 0:
                init = _greedy_build(ext, k)
            else:
                rng = np.random.default_rng([seed & 0xFFFFFFFF, r])
                init = list(rng.choice(n, size=k, replace=False))
            centers, cost = _swap_descent(ext, init)
            out.append((cost, tuple(sorted(centers))))
        return out

    parts = fork_join(share, restarts, restarts * k * n * n >= _FORK_PAM_ENTRIES)
    results = [parts[r % len(parts)][r // len(parts)] for r in range(restarts)]
    return _solution(results, min(c for c, _ in results), tie_tol, "heuristic")


def _tie_family(scored, best: float, tol: float) -> list:
    """Every family's tie rule: the members of the (cost, member) pairs in
    scored whose cost is within best * (1 + tol), sorted, without duplicates."""
    thresh = best * (1.0 + tol)
    return sorted(set(m for c, m in scored if c <= thresh))


def _solution(scored, best: float, tie_tol: float, method: str) -> KMeansSolution:
    family = [CenterSet.of(m) for m in _tie_family(scored, best, tie_tol)]
    return KMeansSolution(minimizers=family, objective=best, method=method, tie_tolerance=tie_tol)


SOLVERS = ("exact", "pam")


def _k_means_check(solver: str) -> str:
    if solver not in SOLVERS:
        raise InvalidArgumentError(f"solver must be {' or '.join(map(repr, SOLVERS))}, got {solver!r}")
    return solver


def _k_means(
    space, solver: str, k: int, p: float, restarts: int, seed: int, budget: int = DEFAULT_ENUM_BUDGET
) -> KMeansSolution:
    """The solver named in SOLVERS: k_means_exact under budget, or k_means_pam with restarts and seed."""
    if _k_means_check(solver) == "exact":
        return k_means_exact(space, k, p, budget=budget)
    return k_means_pam(space, k, p, restarts=restarts, seed=seed)


# ----------------------------------------------------------------------------
# set distances
# ----------------------------------------------------------------------------


def _pairwise(a_points, b_points, a_name: str = "a_points", b_name: str = "b_points") -> np.ndarray:
    """Euclidean distance matrix between two point sets in R^D.

    Each set is read by the point-set rule (cloud._as_points), whose errors
    name it a_name or b_name.
    """
    a, b = _as_points(a_points, a_name), _as_points(b_points, b_name)
    if a.shape[1] != b.shape[1]:
        raise InvalidArgumentError(f"point sets differ in dimension: D={a.shape[1]} vs D={b.shape[1]}")
    return cdist(a, b)


def _hausdorff(d: np.ndarray) -> float:
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def hausdorff_distance(a_points, b_points) -> float:
    """Euclidean Hausdorff distance between two nonempty finite point sets."""
    return _hausdorff(_pairwise(a_points, b_points))


def one_sided_center_deviation(family_n, family_lim) -> float:
    """Worst Euclidean Hausdorff distance from a member of family_n to family_lim.

    Each family is a list of center sets given as coordinate arrays.  This is
    the one-sided deviation used to compare an empirical family of center
    sets against a limit family: every empirical set must be near SOME limit
    set, but not conversely.
    """
    fn = list(family_n)
    fl = list(family_lim)
    if not fn or not fl:
        raise InvalidArgumentError("deviation needs nonempty families")
    return max(min(_hausdorff(_pairwise(sn, s, "family_n", "family_lim")) for s in fl) for sn in fn)
