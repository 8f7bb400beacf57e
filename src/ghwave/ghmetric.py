"""Gromov-Hausdorff machinery for finite metric spaces and sampled flows.

A finite metric space is its distance matrix, and every function here takes
the matrices as given: the caller passes them symmetric with a zero
diagonal, and nothing checks that.  A map X -> Y is an index array m, with
m[a] the image of point a.

Convention: an eps-isometry is a (not necessarily injective) map whose metric
distortion sup |d_X(a,b) - d_Y(fa,fb)| and covering deficit
sup_y min_a d_Y(y, fa) are both strictly below eps, and the distance between
two spaces is the infimum of eps admitting such maps in BOTH directions.  No
factor 1/2 is applied, so values can be up to twice the textbook ones; the
two-point-versus-one-point example {0} vs {0,3} evaluates to 3 here.

A dynamical comparison reads three arrays: the flow cost c[x, y], the
worst distance between the two flows' trajectories from x and from y at
their shared flow times, and the two base metrics dx and dy.
`dgh_dynamical` compares the flows synchronously, at the same times;
"exact" there means optimal over all maps for that objective, whose value
bounds from above the objective over any class of time changes that
contains the identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

__all__ = [
    "GHEstimate",
    "DynamicalEstimate",
    "SizeCapError",
    "distortion",
    "coverage_deficit",
    "is_eps_isometry",
    "gh_exact",
    "gh_lower",
    "gh_upper",
    "dgh_dynamical",
    "EXACT_SIZE_CAP",
]

Array = npt.NDArray[np.float64]
IntArray = npt.NDArray[np.intp]

EXACT_SIZE_CAP = 7


class SizeCapError(ValueError):
    """Exhaustive search requested beyond the exponential-cost cap."""


def distortion(dx: Array, dy: Array, m: IntArray) -> float:
    """sup_{a,b} |d_X(a,b) - d_Y(m(a), m(b))|."""
    return float(np.abs(dx - dy[np.ix_(m, m)]).max(initial=0.0))


def coverage_deficit(dy: Array, m: IntArray) -> float:
    """sup_y min_a d_Y(y, m(a))."""
    return float(dy[:, m].min(axis=1).max(initial=0.0))


def is_eps_isometry(dx: Array, dy: Array, m: IntArray, eps: float) -> bool:
    """Strict check: distortion < eps and deficit < eps."""
    return distortion(dx, dy, m) < eps and coverage_deficit(dy, m) < eps


def _one_sided_exact(dx: Array, dy: Array) -> tuple[float, IntArray]:
    """min over all maps X -> Y of max(distortion, deficit), by enumeration.

    Enumerates the n_Y^n_X assignments in mixed-radix chunks so the working
    arrays stay modest even at the size cap.
    """
    nx, ny = dx.shape[0], dy.shape[0]
    total = ny**nx
    best_val = np.inf
    best_m = np.zeros(nx, dtype=np.intp)
    chunk = max(1, min(total, 200_000 // max(nx, 1)))
    radices = ny ** np.arange(nx, dtype=np.int64)
    for start in range(0, total, chunk):
        ids = np.arange(start, min(start + chunk, total), dtype=np.int64)
        maps = (ids[:, None] // radices[None, :]) % ny  # (c, nx)
        dis = np.abs(dx[None, :, :] - dy[maps[:, :, None], maps[:, None, :]]).max(axis=(1, 2))
        dfc = dy[:, maps].min(axis=2).max(axis=0)  # dy[:, maps]: (ny, c, nx)
        val = np.maximum(dis, dfc)
        k = int(np.argmin(val))
        if val[k] < best_val:
            best_val = float(val[k])
            best_m = maps[k].astype(np.intp)
    return best_val, best_m


def gh_exact(dx: Array, dy: Array) -> float:
    """Exhaustive two-sided objective between dx and dy; raises SizeCapError above the cap.

    The eps-isometry pair decouples: the smallest workable eps equals the
    larger of the two one-sided minima of max(distortion, deficit).
    """
    if max(len(dx), len(dy)) > EXACT_SIZE_CAP:
        raise SizeCapError(
            f"exact search capped at {EXACT_SIZE_CAP} points "
            f"(got {len(dx)} and {len(dy)}); use gh_upper"
        )
    fwd, _ = _one_sided_exact(dx, dy)
    bwd, _ = _one_sided_exact(dy, dx)
    return max(fwd, bwd)


def _row_hausdorff(da: Array, db: Array) -> Array:
    """H[i, j] = max_k min_l |da[i, k] - db[j, l]|: row i of da against row j of db, as sets.

    Every entry of da is a query, sorted once; for each row of db, one
    search of its sorted entries among the queries and a cumulative count
    give each query's two sorted neighbours in the row.  The nearest entry
    is one of them and rounding is monotone, so the float minimum is exact.
    """
    na, nb = da.shape[0], db.shape[0]
    order = np.argsort(da, axis=None)
    q = da.ravel()[order]
    near = np.empty(q.size)
    out = np.empty((na, nb))
    for j, row in enumerate(np.sort(db, axis=1)):
        # below[k]: how many entries of the row lie below q[k]
        below = np.bincount(np.searchsorted(q, row, side="right"), minlength=q.size + 1)[: q.size].cumsum()
        near[order] = np.minimum(np.abs(q - row[np.maximum(below - 1, 0)]), np.abs(q - row[np.minimum(below, nb - 1)]))
        out[:, j] = near.reshape(na, na).max(axis=1)
    return out


def _triangle_defect(d: Array) -> float:
    """max over i, j, k of d[i, j] - (d[i, k] + d[k, j]), at least 0.

    A metric's rounded distance matrix can miss the triangle inequality by a
    few ulps, and one from the Gram trick by far more at small distances.
    """
    return max([0.0, *(float((d - (d[:, k, None] + d[k])).max()) for k in range(d.shape[0]))])


def _direction_bounds(dx: Array, dy: Array) -> tuple[float, float]:
    """Lower bounds on the one-sided objectives X -> Y and Y -> X (see gh_lower)."""
    h_xy = _row_hausdorff(dx, dy)  # H(R_X(x) -> R_Y(y)) at [x, y]
    h_yx = _row_hausdorff(dy, dx).T  # H(R_Y(y) -> R_X(x)) at [x, y]
    slack = 4.0 * np.finfo(float).eps * max(float(dx.max()), float(dy.max()))
    fwd = np.maximum(h_xy, 0.5 * h_yx - (_triangle_defect(dy) + slack)).min(axis=1).max()
    bwd = np.maximum(h_yx, 0.5 * h_xy - (_triangle_defect(dx) + slack)).min(axis=0).max()
    return float(fwd), float(bwd)


def gh_lower(dx: Array, dy: Array) -> float:
    """Row-distribution lower bound on the two-sided objective (Memoli, FoCM 11, 2011).

    With R_X(x) row x of d_X as a set and H(A -> B) = max_a min_b |a - b|,
    the direction X -> Y is bounded by
        max_x min_y max(H(R_X(x) -> R_Y(y)), H(R_Y(y) -> R_X(x)) / 2),
    and the value is the larger of the two directions' bounds.
    Proof, for any map m and y = m(x): every |d_X(x, a) - d_Y(y, m(a))| is
    at most the distortion, so distortion >= H(R_X(x) -> R_Y(y)); each y' has
    an image point m(a) within the deficit, and the triangle inequality
    gives |d_Y(y, y') - d_X(x, a)| <= deficit + distortion, so twice the
    objective is >= H(R_Y(y) -> R_X(x)).
    In floats the first term reads the same |d_X - d_Y| subtractions as
    `distortion`, so it can meet a map's objective with equality; the second
    rests on the triangle inequality of the stored matrix and is lowered by
    that matrix's measured triangle defect plus 4 eps times the larger
    diameter, which covers the rounding of the halved sum.  The bound is at
    least the diameter gap |diam X - diam Y|.
    """
    return max(_direction_bounds(dx, dy))


def _greedy_init(dx: Array, dy: Array) -> IntArray:
    """Row-statistic matching: sort both sides by eccentricity profile."""
    nx = dx.shape[0]
    sx = np.lexsort((dx.mean(axis=1), dx.max(axis=1)))
    sy = np.lexsort((dy.mean(axis=1), dy.max(axis=1)))
    m = np.empty(nx, dtype=np.intp)
    ny = dy.shape[0]
    for rank, a in enumerate(sx):
        m[a] = sy[min(int(round(rank * (ny - 1) / max(nx - 1, 1))), ny - 1)]
    return m


def _start_map(dx: Array, dy: Array) -> IntArray:
    """Restart 0's start: the identity on index-matched samples (same size), else the greedy matching."""
    if dx.shape[0] == dy.shape[0]:
        return np.arange(dx.shape[0], dtype=np.intp)
    return _greedy_init(dx, dy)


def _pair_moves(dx: Array, dy: Array, cur: IntArray, b: IntArray, out: Array) -> None:
    """out[j, a, t] = |dx[a, b_j] - dy[t, cur[b_j]]|: pair (a, b_j) if a moved to t.

    Self-pairs (a == b_j) are 0, so with b = all of X, out.max(axis=0) is the
    worst pair involving a after its move.  `out` is (len(b), nx, ny).
    """
    np.subtract(dx[:, b].T[:, :, None], dy[:, cur[b]].T[:, None, :], out=out)
    np.abs(out, out=out)
    out[np.arange(b.size), b, :] = 0.0


def _descend(dx: Array, dy: Array, m: IntArray, rng: np.random.Generator, kicks: int) -> tuple[float, IntArray]:
    """Best-improvement coordinate descent on max(distortion, deficit).

    Each pass scores every single-coordinate move (a -> t) exactly and takes
    the best strict improvement; after convergence the map is kicked (a
    random fraction of coordinates reassigned) and descent repeats.

    Cost: the pair table T (nx * nx * ny floats, allocated once) is filled
    once per phase, O(nx^2 ny).  An accepted move a* -> t* changes only
    cur[a*]: it rewrites the slab T[a*], O(nx ny), and rescans only the
    (a, t) cells whose worst pair was (a, a*) and got better, reading T at
    most once; the rest of a pass is O(nx ny + nx^2).  Every score is a max,
    min or abs of the same floats a full rebuild takes, so moves and ties
    are those of the rebuild.
    """
    nx, ny = dx.shape[0], dy.shape[0]
    best = m.copy()
    best_val = max(distortion(dx, dy, best), coverage_deficit(dy, best))
    cur = best.copy()
    n_kick = max(1, -(-nx // 8))
    T = np.empty((nx, nx, ny))  # T[b, a, t], see _pair_moves
    for phase in range(kicks + 1):
        if phase > 0:
            cur = best.copy()
            coords = rng.choice(nx, size=min(n_kick, nx), replace=False)
            cur[coords] = rng.integers(0, ny, size=coords.size)
        _pair_moves(dx, dy, cur, np.arange(nx), T)
        dis_move = T.max(axis=0)  # (nx, ny): worst pair involving a after a -> t
        while True:
            base = np.abs(dx - dy[cur[:, None], cur])  # its max is the distortion
            cur_val = max(float(base.max(initial=0.0)), coverage_deficit(dy, cur))
            # worst pair NOT involving a: exclude row/col a from base matrix
            base_excl = _excl_max(base)
            dis_after = np.maximum(dis_move, base_excl[:, None])
            dfc_after = _deficit_after_move(dy, cur)
            val_after = np.maximum(dis_after, dfc_after)
            a_best, t_best = np.unravel_index(np.argmin(val_after), val_after.shape)
            if val_after[a_best, t_best] >= cur_val - 1e-15:
                break
            cur[a_best] = t_best
            old = T[a_best].copy()
            _pair_moves(dx, dy, cur, np.array([a_best]), T[a_best : a_best + 1])
            ia, it = np.nonzero((old == dis_move) & (T[a_best] < old))
            np.maximum(dis_move, T[a_best], out=dis_move)
            # rescan the cells whose worst pair was (a, a*) and got better; a
            # gathered float costs about ten streamed ones, so past 1/16 of the
            # cells one pass over T is cheaper and needs no large temporary
            if 16 * ia.size > dis_move.size:
                T.max(axis=0, out=dis_move)
            else:
                dis_move[ia, it] = T[:, ia, it].max(axis=0)
        cur_val = max(distortion(dx, dy, cur), coverage_deficit(dy, cur))
        if cur_val < best_val:
            best_val = cur_val
            best = cur.copy()
    return best_val, best


def _excl_max(base: Array) -> Array:
    """For each index a: max of base over pairs (i, j) with i != a and j != a.

    Row i loses its maximum only when a is its argmax; then its second largest
    value (the maximum again under a tie) stands in.
    """
    n = base.shape[0]
    if n <= 2:
        return np.zeros(n)
    top2 = np.partition(base, n - 2, axis=1)[:, n - 2 :]  # (second largest, largest) per row
    arg = np.argmax(base, axis=1)
    # rows[a, i]: max of row i over the columns j != a
    rows = np.where(arg[None, :] == np.arange(n)[:, None], top2[None, :, 0], top2[None, :, 1])
    np.fill_diagonal(rows, -np.inf)
    return np.maximum(rows.max(axis=1), 0.0)


def _deficit_after_move(dy: Array, cur: IntArray) -> Array:
    """(nx, ny) matrix of covering deficits after moving coordinate a to t.

    Two-smallest trick: for each y the min over the image is m0 (its nearest
    image distance, first attained at coordinate i0[y]) unless a == i0[y],
    when it is m1, the second smallest.  Moving a to t then leaves
    B = min(m0, dy[y, t]) or C = min(m1, dy[y, t]), so
    deficit[a, t] = max(max_{i0[y] != a} B[y, t], max_{i0[y] == a} C[y, t]).
    As C >= B, the first max may run over every y: one column max of B, plus
    the maxima of C over the groups of y sharing i0 (one scatter-max, cheaper
    than sorting by i0 on small spaces), in O(ny (nx + ny)).
    """
    nx, ny = cur.shape[0], dy.shape[0]
    D = dy[:, cur]  # (ny, nx) distances from every y to current image
    i0 = np.argmin(D, axis=1)
    m0 = D.min(axis=1)
    if nx >= 2:
        m1 = np.partition(D, 1, axis=1)[:, 1]  # the smallest again under a tie
    else:
        m1 = np.full(ny, np.inf)
    b_max = np.minimum(m0[:, None], dy).max(axis=0)  # deficit once t joins the image
    c_max = np.full((nx, ny), -np.inf)  # -inf: a is no point's nearest image
    np.maximum.at(c_max, i0, np.minimum(m1[:, None], dy))
    return np.maximum(b_max[None, :], c_max)


@dataclass
class GHEstimate:
    """Two-sided upper estimate with the certifying maps and its lower bound.

    `forward` (X -> Y) and `backward` (Y -> X) are the index maps with the
    best objective max(distortion, deficit) each direction found before it
    stopped, and `value` the larger of their objectives.  `lower` is
    `gh_lower` of the two spaces, or a direction's value where arc
    consistency proved it optimal, and `restarts_used` counts the descents
    run, both directions together; `exact` when the estimate meets the
    bound, so that it is the optimum over all map pairs.
    """

    value: float
    forward: IntArray
    backward: IntArray
    lower: float
    restarts_used: int

    @property
    def exact(self) -> bool:
        return self.value <= self.lower


def _check_budget(budget: int) -> None:
    """A search runs at least one restart: every estimate needs a map to return."""
    if budget < 1:
        raise ValueError("budget must be at least 1")


def _one_sided_search(
    dx: Array, dy: Array, restarts: int, seed: int, dirflag: int, bound: float | None = None
) -> tuple[list[tuple[float, IntArray]], int]:
    """Multistart descent X -> Y: the per-restart bests, best first, and the restarts run.

    Restart 0 starts at `_start_map`, restart 1 at the greedy matching, the
    rest at random maps; restart r draws from its own seeded stream.  Each
    best is an (objective, map) pair, the objective max(distortion,
    deficit) as `_descend` computed it; the pairs are sorted by objective,
    then restart, and a map that an earlier pair holds is dropped.

    With no `bound`, every restart runs.  Otherwise the search stops after
    the first restart that brings the best to at most `bound`.  When a
    restart improves the best, the best still lies above `bound` and
    restarts remain, `_none_below` tries to prove it optimal; a proof raises
    `bound` to it, so the search stops there.  A search that stops before
    its budget with its best above the `bound` it was given has therefore
    proved that best the optimum over all maps.  If `bound` is a lower bound
    on the objective of every map, no later restart can beat the best at
    the stop, or tie it with a smaller restart index, so the winner is that
    of the full budget; a proved best is such a bound.
    """
    nx, ny = dx.shape[0], dy.shape[0]
    results: list[tuple[float, int, IntArray]] = []
    best = np.inf
    for r in range(restarts):
        rng = np.random.default_rng(np.random.SeedSequence([seed, r, dirflag]))
        if r == 0:
            m0 = _start_map(dx, dy)
        elif r == 1:
            m0 = _greedy_init(dx, dy)
        else:
            m0 = rng.integers(0, ny, size=nx).astype(np.intp)
        val, m = _descend(dx, dy, m0, rng, kicks=2)
        results.append((val, r, m))
        if bound is None or val >= best:
            continue
        best = val
        if best > bound and r + 1 < restarts and _none_below(dx, dy, best):
            bound = best
        if best <= bound:
            break
    unique: dict[bytes, tuple[float, IntArray]] = {}
    for val, _r, m in sorted(results, key=lambda t: t[:2]):
        unique.setdefault(m.tobytes(), (val, m))
    return list(unique.values()), len(results)


def _none_below(dx: Array, dy: Array, v: float) -> bool:
    """True when arc consistency proves that no map X -> Y has max(distortion, deficit) < v.

    A map m with objective below v sends each x into its domain D[x], where
    D[x] holds the y with, for every x' != x, some y' in D[x'] such that
    |d_X(x, x') - d_Y(y, y')| < v (take y' = m(x')).  The domains start as
    {y : H(R_X(x) -> R_Y(y)) < v}, the first term of `gh_lower`'s row bound,
    and lose their unsupported points until none is left (AC-3: Mackworth,
    Artif. Intell. 8, 1977).  If a domain empties, no map has distortion
    below v; if some y of Y lies at v or more from every point of every
    domain, none has deficit below v.  Every comparison is a float
    |d_X - d_Y| < v or d_Y < v on the operands `distortion` and
    `coverage_deficit` read, so the proof holds for their float values and
    needs no rounding margin.  One x's (x', y, y') block is alive at a time,
    as floats and as booleans, in two buffers allocated once: the float one
    holds at most (nx - 1) ny^2 values, about the size of `_descend`'s pair
    table.
    """
    nx, ny = dx.shape[0], dy.shape[0]
    dom = _row_hausdorff(dx, dy) < v
    diff = np.empty((nx - 1) * ny * ny)  # |d_X(x, x') - d_Y(y, y')| over (x', y in D[x], y')
    fits = np.empty(diff.size, dtype=bool)
    changed = True
    while changed:
        changed = False
        for x in range(nx):
            ys = np.flatnonzero(dom[x])
            if ys.size == 0:
                return True
            others = np.arange(nx) != x
            shape = (nx - 1, ys.size, ny)
            d = diff[: (nx - 1) * ys.size * ny].reshape(shape)
            ok = fits[: d.size].reshape(shape)
            np.subtract(dx[x, others, None, None], dy[ys][None], out=d)
            np.less(np.abs(d, out=d), v, out=ok)
            ok &= dom[others, None, :]
            keep = ok.any(axis=2).all(axis=0)
            if not keep.all():
                dom[x, ys[~keep]] = False
                changed = True
    return not (dy[:, dom.any(axis=0)] < v).any(axis=1).all()


def gh_upper(dx: Array, dy: Array, budget: int = 32, seed: int = 0) -> GHEstimate:
    """Seeded multistart estimate of the two-sided objective, bracketed from below.

    Restart 0 starts at the identity when both spaces have the same size
    (index-matched samples) and at the deterministic greedy matching
    otherwise, restart 1 at the greedy matching, the rest at random maps.
    Each direction runs its restarts one by one (see `_one_sided_search`).
    The forward direction stops once its best is at most
    max(low_f, low_b), the larger of the two directions' `gh_lower` bounds;
    the backward one once its best is at most max(low_b, forward value).
    Either stop leaves `value` that of the full budget, bit for bit: a best
    at most its own bound is that direction's optimum, and one at most the
    other side's bound or value cannot be the larger of the two.  A
    direction that arc consistency proves optimal stops too, and its bound
    rises to its value, so `lower` can exceed `gh_lower`.  The stops change
    only `restarts_used` and the maps, which are then maps whose objective
    is at most `value` rather than the full budget's winners.  Increasing
    `budget` with the same seed never worsens the value.  `budget` below 1
    is a ValueError.
    """
    _check_budget(budget)
    low_f, low_b = _direction_bounds(dx, dy)
    lower = max(low_f, low_b)
    fwd, used_f = _one_sided_search(dx, dy, budget, seed, 1, lower)
    val_f, m_f = fwd[0]
    stop_b = max(low_b, val_f)
    bwd, used_b = _one_sided_search(dy, dx, budget, seed, 2, stop_b)
    val_b, m_b = bwd[0]
    # a direction that stopped early above its stop was proved optimal
    for val, stop, used in ((val_f, lower, used_f), (val_b, stop_b, used_b)):
        if used < budget and val > stop:
            lower = max(lower, val)
    return GHEstimate(max(val_f, val_b), m_f, m_b, lower, used_f + used_b)


# ---------------------------------------------------------------------------
# dynamical comparison


def _certified_start(c: Array, dx: Array, dy: Array) -> tuple[IntArray, float] | None:
    """The start map X -> Y with its flow epsilon v, if v is proven optimal; else None.

    Proof.  Let c be the flow cost, m the start map, v = max_x c[x, m(x)],
    and x* any point with c[x*, m(x*)] = v.  Every map m' has
    total(m') = max(static(m'), max_x c[x, m'(x)]) >= c[x*, m'(x*)] >= min_y c[x*, y].
    So if static(m) <= v, then total(m) = v, and if also min_y c[x*, y] >= v
    for one such x*, no map has a smaller total: v is the optimum of the
    direction's objective over all maps.  Every flow value compared is an
    entry of c, the floats the scoring reads, so the proof needs no
    rounding slack.
    """
    m = _start_map(dx, dy)
    own = c[np.arange(len(m)), m]
    v = float(own.max(initial=0.0))
    if max(distortion(dx, dy, m), coverage_deficit(dy, m)) > v:
        return None
    if not np.any(c[own == v].min(axis=1) >= v):
        return None
    return m, v


@dataclass
class DynamicalEstimate:
    """Certified dynamical estimate: value, per-direction data, witnesses.

    `forward` (X -> Y) and `backward` (Y -> X) are the witness index maps,
    each with its flow epsilon max_x c[x, m(x)].  `exact` is true when both
    directions' values were proven optimal over all maps (see
    `dgh_dynamical`).
    """

    value: float
    forward: IntArray
    backward: IntArray
    forward_flow_eps: float
    backward_flow_eps: float
    certified: bool
    exact: bool


def dgh_dynamical(cost: Array, dx: Array, dy: Array, budget: int = 32, seed: int = 0) -> DynamicalEstimate:
    """Dynamical distance upper estimate between two sampled flows X and Y.

    The two flows are compared synchronously: sending X's base point x to
    Y's base point y costs `cost[x, y]` = max_j d(Phi_j^X x, Phi_j^Y y), the
    worst mismatch of their trajectories at their shared flow times, in one
    metric common to both flows, and dx and dy are the base metrics of X
    and Y.  Each direction's objective for a map m is the larger of its
    static objective max(distortion, deficit) and its flow epsilon
    max_x c[x, m(x)].  Each direction first tries to certify its start map
    (restart 0's start of the static search): every map's total is at least
    min_y c[x, y] for every x, and when that bound meets the start map's
    total, the total is the optimum over all maps (proof in
    `_certified_start`) and no search runs.  Otherwise the direction
    searches static candidate maps (multistart descent on the base metrics)
    and scores its best 8 by that objective.  The backward direction is the
    forward one on (cost.T, dy, dx).  The returned value is the worse
    direction's best total; `exact` is true when both directions were
    certified, and then the value is the optimum of the synchronous
    objective over all maps.  A comparison that also lets time be
    reparametrized can only do better, so over any class of time changes
    that contains the identity the synchronous value is an upper bound.
    `certified` re-verifies both witnesses at value + 1e-12.  `cost` of a
    shape other than (len(dx), len(dy)) is a ValueError, and so is `budget`
    below 1, as for `gh_upper`, even where no search runs.
    """
    if cost.shape != (len(dx), len(dy)):
        raise ValueError(f"cost must have shape {(len(dx), len(dy))} for {len(dx)} and {len(dy)} base points")
    _check_budget(budget)

    def best_total(c: Array, da: Array, db: Array, dirflag: int) -> tuple[float, IntArray, float, bool]:
        proven = _certified_start(c, da, db)
        if proven is not None:
            m, fe = proven
            return fe, m, fe, True
        cands = _one_sided_search(da, db, budget, seed, dirflag)[0][:8]
        rows = np.arange(len(da))
        best_v, best_m, best_f = np.inf, cands[0][1], np.inf
        for obj, m in cands:
            fe = float(c[rows, m].max(initial=0.0))
            tot = max(obj, fe)
            if tot < best_v - 1e-15:
                best_v, best_m, best_f = tot, m, fe
        return best_v, best_m, best_f, False

    fv, fm, fe, f_exact = best_total(cost, dx, dy, 1)
    bv, bm, be, b_exact = best_total(cost.T, dy, dx, 2)
    value = max(fv, bv)
    eps = value + 1e-12
    cert = (
        is_eps_isometry(dx, dy, fm, eps)
        and is_eps_isometry(dy, dx, bm, eps)
        and fe < eps
        and be < eps
    )
    return DynamicalEstimate(value, fm, bm, fe, be, cert, f_exact and b_exact)
