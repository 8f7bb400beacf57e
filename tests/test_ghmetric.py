"""Distance estimators on finite metric spaces and sampled flows.

Frozen oracles (worked by hand from the eps-isometry definition, both maps'
distortion and covering deficit strictly below eps, no 1/2 factor):
  {0, 2} vs {0, 3}  -> 1   (match the endpoints; the gap mismatch is 1)
  {0}    vs {0, 3}  -> 3   (the single point leaves a covering deficit of 3)
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghwave.ghmetric import (
    EXACT_SIZE_CAP,
    SizeCapError,
    coverage_deficit,
    dgh_dynamical,
    distortion,
    gh_exact,
    gh_lower,
    gh_upper,
    is_eps_isometry,
    _deficit_after_move,
    _descend,
    _direction_bounds,
    _one_sided_search,
    _row_hausdorff,
    _excl_max,
)


def _line_space(*points):
    p = np.asarray(points, dtype=float)
    return np.abs(p[:, None] - p[None, :])


def _random_space(rng, n, scale=1.0):
    pts = rng.standard_normal((n, 3)) * scale
    d = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1))
    return d


def test_frozen_two_point_oracle():
    assert gh_exact(_line_space(0, 2), _line_space(0, 3)) == pytest.approx(1.0, abs=1e-12)


def test_frozen_point_vs_pair_oracle():
    assert gh_exact(_line_space(0), _line_space(0, 3)) == pytest.approx(3.0, abs=1e-12)


def test_exact_symmetric():
    rng = np.random.default_rng(0)
    X = _random_space(rng, 5)
    Y = _random_space(rng, 6)
    assert gh_exact(X, Y) == pytest.approx(gh_exact(Y, X), rel=1e-12)


def test_exact_zero_on_permuted_copy():
    rng = np.random.default_rng(1)
    X = _random_space(rng, 6)
    perm = rng.permutation(6)
    Y = X[np.ix_(perm, perm)]
    assert gh_exact(X, Y) <= 1e-12


def test_size_cap_raises():
    rng = np.random.default_rng(2)
    X = _random_space(rng, EXACT_SIZE_CAP + 1)
    with pytest.raises(SizeCapError):
        gh_exact(X, X)


def test_gh_lower_row_bound_hand_case():
    # X = {0, 1, 2} and Y = {0, 2} on a line have the same diameter.  The rows
    # of X as sets are {0, 1, 2}, {0, 1}, {0, 1, 2}; both rows of Y are {0, 2}.
    # Every row of X holds a 1, at distance 1 from {0, 2}, so
    # H(R_X(x) -> R_Y(y)) = 1 for every pair and the bound X -> Y is 1.
    # Y -> X: H({0, 2} -> R_X(x)) is 0 at the ends and 1 at the middle, and
    # H(R_X(x) -> {0, 2}) / 2 is 1/2, so y's best x is an end, at 1/2 less
    # the rounding margin.  The exact value is 1 (the middle point of X is
    # 1 from both ends of Y).
    X = _line_space(0, 1, 2)
    Y = _line_space(0, 2)
    fwd, bwd = _direction_bounds(X, Y)
    assert fwd == 1.0
    assert 0.5 - 1e-14 < bwd <= 0.5
    assert gh_lower(X, Y) == 1.0 == gh_exact(X, Y)


def test_row_hausdorff_matches_brute_force():
    # the sorted-neighbour search must give the bits of the full min-max
    # over every pair of row entries, integer ties and unequal sizes included
    rng = np.random.default_rng(19)
    for trial in range(40):
        na, nb = (int(k) for k in rng.integers(1, 12, size=2))
        if trial % 2:
            da = np.abs(np.subtract.outer(*2 * [rng.integers(0, 4, na)])).astype(float)
            db = np.abs(np.subtract.outer(*2 * [rng.integers(0, 4, nb)])).astype(float)
        else:
            da, db = _random_space(rng, na), _random_space(rng, nb)
        want = np.abs(da[:, None, :, None] - db[None, :, None, :]).min(axis=3).max(axis=2)
        assert np.array_equal(_row_hausdorff(da, db), want)


@st.composite
def _tied_metric(draw):
    """A metric on at most 6 points with many ties: integer shortest paths or an ultrametric."""
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        d = np.array(draw(st.lists(st.integers(1, 3), min_size=n * n, max_size=n * n)), dtype=float).reshape(n, n)
        d = np.minimum(d, d.T)
        np.fill_diagonal(d, 0.0)
        for k in range(n):
            d = np.minimum(d, d[:, k, None] + d[None, k, :])
    else:
        # merge clusters at nondecreasing integer heights
        d = np.zeros((n, n))
        clusters = [[i] for i in range(n)]
        height = 0
        while len(clusters) > 1:
            height += draw(st.integers(0, 2))
            i = draw(st.integers(0, len(clusters) - 1))
            a = clusters.pop(i)
            b = clusters[draw(st.integers(0, len(clusters) - 1))]
            d[np.ix_(a, b)] = d[np.ix_(b, a)] = max(height, 1)
            b += a
    return d


@given(_tied_metric(), _tied_metric())
@settings(max_examples=150, deadline=None)
def test_row_bound_between_diameter_gap_and_exact(X, Y):
    low = gh_lower(X, Y)
    assert low <= gh_exact(X, Y)
    assert low >= abs(float(X.max()) - float(Y.max()))


@given(_tied_metric(), _tied_metric(), st.integers(0, 1000))
@settings(max_examples=60, deadline=None)
def test_search_with_bound_keeps_best_map(X, Y, seed):
    # stopping at the bound must leave the full budget's winner and value;
    # either way each returned objective is its map's max(distortion,
    # deficit) to the bit, the maps are distinct and the objectives nondecreasing
    for (da, db), bound, flag in zip(((X, Y), (Y, X)), _direction_bounds(X, Y), (1, 2)):
        stopped, used = _one_sided_search(da, db, 12, seed, flag, bound)
        full, all_used = _one_sided_search(da, db, 12, seed, flag)
        assert all_used == 12 and 1 <= used <= 12
        assert stopped[0][0] == full[0][0]
        assert np.array_equal(stopped[0][1], full[0][1])
        for found in (stopped, full):
            for obj, m in found:
                assert obj == max(distortion(da, db, m), coverage_deficit(db, m))
            assert not any(np.array_equal(a, b) for (_, a), (_, b) in itertools.combinations(found, 2))
            assert all(a <= b for (a, _), (b, _) in zip(found, found[1:]))


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_lower_never_exceeds_exact(seed):
    rng = np.random.default_rng(seed)
    X = _random_space(rng, int(rng.integers(1, 6)))
    Y = _random_space(rng, int(rng.integers(1, 6)))
    assert gh_lower(X, Y) <= gh_exact(X, Y) + 1e-12


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_upper_never_below_exact(seed):
    rng = np.random.default_rng(seed)
    X = _random_space(rng, int(rng.integers(2, 7)))
    Y = _random_space(rng, int(rng.integers(2, 7)))
    est = gh_upper(X, Y, budget=24, seed=seed)
    assert est.value >= gh_exact(X, Y) - 1e-12


@given(st.floats(0.1, 10.0), st.integers(0, 1000))
@settings(max_examples=30, deadline=None)
def test_exact_scales_with_the_metric(sigma, seed):
    rng = np.random.default_rng(seed)
    X = _random_space(rng, 4)
    Y = _random_space(rng, 5)
    Xs = X * sigma
    Ys = Y * sigma
    assert gh_exact(Xs, Ys) == pytest.approx(sigma * gh_exact(X, Y), rel=1e-9, abs=1e-12)


def test_upper_budget_monotone():
    rng = np.random.default_rng(3)
    X = _random_space(rng, 12)
    Y = _random_space(rng, 12)
    vals = [gh_upper(X, Y, budget=b, seed=5).value for b in (2, 8, 32)]
    assert vals[0] >= vals[1] >= vals[2]


def test_upper_stops_at_certified_scaled_copy():
    # an index-matched copy scaled by 1 + 1e-3: restart 0 starts at the
    # identity, whose distortion the row bound meets in both directions, so
    # each direction stops after that one restart and the estimate is exact
    rng = np.random.default_rng(17)
    X = _random_space(rng, 16)
    Y = X * (1.0 + 1e-3)
    est = gh_upper(X, Y, budget=32, seed=3)
    assert est.exact
    assert est.value == est.lower == distortion(X, Y, np.arange(16))
    assert est.restarts_used == 2
    full_f = _one_sided_search(X, Y, 32, 3, 1)[0][0]
    full_b = _one_sided_search(Y, X, 32, 3, 2)[0][0]
    assert np.array_equal(est.forward, full_f[1])
    assert np.array_equal(est.backward, full_b[1])


def test_upper_witnesses_verify():
    rng = np.random.default_rng(6)
    X = _random_space(rng, 9)
    Y = _random_space(rng, 9)
    est = gh_upper(X, Y, budget=16, seed=2)
    eps = est.value + 1e-12
    assert is_eps_isometry(X, Y, est.forward, eps)
    assert is_eps_isometry(Y, X, est.backward, eps)


def test_excl_max_matches_masked_max():
    # pair-distortion matrices are symmetric with a zero diagonal; small
    # integer entries make ties, including ties at a row maximum
    rng = np.random.default_rng(11)
    for trial in range(200):
        n = int(rng.integers(1, 30))
        b = rng.integers(0, 4, size=(n, n)).astype(float) if trial % 2 else rng.random((n, n))
        b = b + b.T
        np.fill_diagonal(b, 0.0)
        want = np.zeros(n)
        for a in range(n):
            keep = np.arange(n) != a
            want[a] = b[np.ix_(keep, keep)].max(initial=0.0)
        assert np.array_equal(_excl_max(b), want)


def test_deficit_after_move_matches_moved_maps():
    # every single-coordinate move scored by the grouped two-smallest trick
    # equals the deficit of the moved map: ties, one-point images, and
    # coordinates that are no point's nearest image (an empty group: maps
    # onto a few targets with repeats) included
    rng = np.random.default_rng(12)
    for trial in range(90):
        ny, nx = (int(k) for k in rng.integers(1, 21, size=2))
        d = rng.integers(0, 3, size=(ny, ny)).astype(float) if trial % 2 else rng.random((ny, ny))
        d = d + d.T
        np.fill_diagonal(d, 0.0)
        targets = ny if trial % 3 else min(ny, 3)
        cur = rng.integers(0, targets, size=nx).astype(np.intp)
        got = _deficit_after_move(d, cur)
        for a in range(nx):
            for t in range(ny):
                moved = cur.copy()
                moved[a] = t
                assert got[a, t] == coverage_deficit(d, moved)


def _descend_rebuilt(dx, dy, m, rng, kicks):
    """The descent with every move table rebuilt on every pass: the reference
    the incremental tables in `_descend` must reproduce bit for bit."""
    nx, ny = dx.shape[0], dy.shape[0]
    best = m.copy()
    best_val = max(distortion(dx, dy, best), coverage_deficit(dy, best))
    cur = best.copy()
    n_kick = max(1, -(-nx // 8))
    for phase in range(kicks + 1):
        if phase > 0:
            cur = best.copy()
            coords = rng.choice(nx, size=min(n_kick, nx), replace=False)
            cur[coords] = rng.integers(0, ny, size=coords.size)
        while True:
            cur_val = max(distortion(dx, dy, cur), coverage_deficit(dy, cur))
            T = np.abs(dx[:, None, :] - dy[:, cur][None, :, :])  # T[a, t, b]
            T[np.arange(nx), :, np.arange(nx)] = 0.0
            dis_move = T.max(axis=2)
            base = np.abs(dx - dy[np.ix_(cur, cur)])
            base_excl = np.zeros(nx)
            for a in range(nx):
                keep = np.arange(nx) != a
                base_excl[a] = base[np.ix_(keep, keep)].max(initial=0.0)
            D = dy[:, cur]
            dfc_after = np.empty((nx, ny))
            for a in range(nx):
                rest = np.delete(D, a, axis=1).min(axis=1, initial=np.inf)
                dfc_after[a] = np.minimum(rest[:, None], dy).max(axis=0)
            val_after = np.maximum(np.maximum(dis_move, base_excl[:, None]), dfc_after)
            a_best, t_best = np.unravel_index(np.argmin(val_after), val_after.shape)
            if val_after[a_best, t_best] < cur_val - 1e-15:
                cur[a_best] = t_best
            else:
                break
        cur_val = max(distortion(dx, dy, cur), coverage_deficit(dy, cur))
        if cur_val < best_val:
            best_val = cur_val
            best = cur.copy()
    return best_val, best


def test_descend_matches_rebuilt_tables():
    # the incremental pair table and grouped deficit must take exactly the
    # moves of a descent that rebuilds everything each pass, so the same
    # (value, map) comes out: unequal sizes, one-point spaces and integer
    # distances (ties at a row maximum and at the nearest image) included
    rng = np.random.default_rng(13)
    for trial in range(60):
        nx, ny = (int(k) for k in rng.integers(1, 16, size=2))
        if trial % 2:
            X = np.abs(np.subtract.outer(*2 * [rng.integers(0, 5, nx)])).astype(float)
            Y = np.abs(np.subtract.outer(*2 * [rng.integers(0, 5, ny)])).astype(float)
        else:
            X, Y = _random_space(rng, nx), _random_space(rng, ny)
        m0 = rng.integers(0, ny, size=nx).astype(np.intp)
        seed = int(rng.integers(2**32))
        got = _descend(X, Y, m0, np.random.default_rng(seed), kicks=2)
        want = _descend_rebuilt(X, Y, m0, np.random.default_rng(seed), kicks=2)
        assert got[0] == want[0]
        assert np.array_equal(got[1], want[1])


def test_distortion_and_deficit_hand_values():
    dx = _line_space(0, 2)
    dy = _line_space(0, 3)
    m = np.array([0, 1], dtype=np.intp)
    assert distortion(dx, dy, m) == 1.0
    assert coverage_deficit(dy, m) == 0.0
    m_const = np.array([0, 0], dtype=np.intp)
    assert distortion(dx, dy, m_const) == 2.0
    assert coverage_deficit(dy, m_const) == 3.0


# --- flow pairs ------------------------------------------------------------------

def _coords(traj):
    """A trajectory table as (n, q, dim): (n, q) is read as points on a line."""
    t = np.asarray(traj, dtype=float)
    return t.reshape(t.shape[0], t.shape[1], -1)


def _sq(a, b):
    """Squared Euclidean distances between the rows of a (n, dim) and of b (m, dim)."""
    return ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)


def _flow_pair(x_traj, y_traj):
    """The (cost, dx, dy) of two flows in one Euclidean space, read at the same
    q times; trajectories are (n, q) or (n, q, dim).  The cost is the square
    root of the largest squared distance over the flow times."""
    x, y = _coords(x_traj), _coords(y_traj)
    worst = np.max([_sq(x[:, j], y[:, j]) for j in range(x.shape[1])], axis=0)
    return np.sqrt(worst), np.sqrt(_sq(x[:, 0], x[:, 0])), np.sqrt(_sq(y[:, 0], y[:, 0]))


def _reversed(pair):
    """The same pair with Y first."""
    cost, dx, dy = pair
    return cost.T, dy, dx


def _flow_cost(x_traj, y_traj):
    """c[a, b] = max_j |x_a(t_j) - y_b(t_j)|, straight from the coordinates."""
    x, y = _coords(x_traj), _coords(y_traj)
    return np.sqrt(((x[:, None] - y[None]) ** 2).sum(axis=3)).max(axis=2)


def test_flow_pair_checks_its_tables():
    # the cost has one row per point of X and one column per point of Y
    dx, dy = np.zeros((1, 1)), np.zeros((2, 2))
    for cost in (np.zeros((2, 1)), np.zeros((2,)), np.zeros((3, 1, 2)), np.zeros((1, 3))):
        with pytest.raises(ValueError, match=r"cost must have shape \(1, 2\) for 1 and 2 base points"):
            dgh_dynamical(cost, dx, dy, budget=1)
    assert dgh_dynamical(np.zeros((1, 2)), dx, dy, budget=1).value == 0.0


def test_flow_pair_reversed_shares_the_universe():
    # Y first is the transposed cost, a view of the same array, with the base metrics swapped
    x = [[0.0, 0.1], [1.0, 1.2]]
    y = [[0.0, 0.2], [1.5, 1.4], [3.0, 3.1]]
    cost, dx, dy = _flow_pair(x, y)
    rcost, rdx, rdy = _reversed((cost, dx, dy))
    assert rcost.base is cost and rcost.shape == (3, 2)
    np.testing.assert_array_equal(rcost, _flow_pair(y, x)[0])
    np.testing.assert_array_equal(cost, _flow_cost(x, y))
    assert rdx is dy and rdy is dx
    np.testing.assert_allclose(dy, [[0.0, 1.5, 3.0], [1.5, 0.0, 1.5], [3.0, 1.5, 0.0]], rtol=1e-15)
    fwd, bwd = dgh_dynamical(cost, dx, dy, budget=4), dgh_dynamical(rcost, rdx, rdy, budget=4)
    assert fwd.value == bwd.value


def test_dgh_identical_flows_is_zero():
    x = [[0.0, 0.1], [1.0, 1.1], [2.5, 2.4]]
    est = dgh_dynamical(*_flow_pair(x, x), budget=8, seed=0)
    assert est.value <= 1e-9
    assert est.certified


def test_dgh_detects_metric_dilation():
    # same flow pattern, second copy dilated by sigma: no assignment can push
    # the distortion (hence the certified eps) below the diameter gap
    sigma = 1.3
    x = np.column_stack([[0.0, 1.0, 2.0], [0.05, 1.0, 1.95]])
    y = np.column_stack([[0.0, sigma * 1.0, sigma * 2.0], [0.05, sigma, sigma * 1.9]])
    est = dgh_dynamical(*_flow_pair(x, y), budget=16, seed=1)
    assert est.certified
    assert est.value >= (sigma - 1.0) * 2.0 - 1e-9


def test_dgh_time_shift_costs_its_synchronous_mismatch():
    # X drifts at unit speed and Y is X read at alpha_s(t) = t + s min(t, 1 - t) rho:
    # compared at the same times, each trajectory lags its copy by at most
    # |s| rho / 2 (at t = 1/2), and no other point comes closer
    rho = 1.0
    t = np.array([0.0, 0.5, 1.0])
    x0 = np.array([0.0, 4.0, 8.0])
    for s in (0.19, 0.38, -0.57):
        alpha = t + s * np.minimum(t, 1.0 - t) * rho
        est = dgh_dynamical(*_flow_pair(x0[:, None] + t, x0[:, None] + alpha), budget=8, seed=0)
        assert est.certified and est.exact
        assert est.value == pytest.approx(abs(s) * rho / 2.0, abs=1e-12)


def test_dgh_dominates_static_distance_and_certifies_both_orders():
    # flow agreement can only add constraints on top of the base metrics, so
    # the certified value never undercuts the exact static distance; the
    # candidate pools are direction-seeded, so the two call orders may return
    # different upper estimates but both must certify
    rng = np.random.default_rng(8)
    a0 = rng.uniform(0, 3, 4)
    b0 = rng.uniform(0, 3, 4)
    pair = _flow_pair(np.column_stack([a0, a0 * 0.9]), np.column_stack([b0, b0 * 0.95]))
    static = gh_exact(*pair[1:])
    e1 = dgh_dynamical(*pair, budget=16, seed=3)
    e2 = dgh_dynamical(*_reversed(pair), budget=16, seed=3)
    assert e1.certified and e2.certified
    assert min(e1.value, e2.value) >= static - 1e-12


def _brute_direction(x_traj, y_traj):
    """min over all n_y^n_x maps X -> Y of max(objective, flow eps), and the row bound max_x min_y c[x, y].

    Everything comes from the coordinates: the base metrics, and the flow
    cost c[x, y] = max_j |x_j - y_j| (see `_flow_cost`).
    """
    x, y = _coords(x_traj), _coords(y_traj)
    dx, dy = np.sqrt(_sq(x[:, 0], x[:, 0])), np.sqrt(_sq(y[:, 0], y[:, 0]))
    nx, ny = dx.shape[0], dy.shape[0]
    c = _flow_cost(x, y)
    best = np.inf
    for m in itertools.product(range(ny), repeat=nx):
        m = np.array(m, dtype=np.intp)
        fe = c[np.arange(nx), m].max()
        best = min(best, max(distortion(dx, dy, m), coverage_deficit(dy, m), fe))
    return best, float(c.min(axis=1).max())


def test_flow_certificate_against_brute_force():
    # random tiny flow pairs, some near copies (the flow term binds and the
    # start map is certified), some not (the search runs)
    rng = np.random.default_rng(2026)
    times = np.linspace(0.0, 1.0, 3)
    n_exact = n_search = 0
    for k in range(24):
        nx, ny = rng.integers(2, 5, size=2)
        if k % 2:  # index-matched near copy
            ny = nx
        x0 = rng.uniform(-1.0, 1.0, (nx, 2))
        vx = rng.uniform(-1.0, 1.0, (nx, 2))
        if k % 2:
            y0 = x0 + rng.uniform(0.0, 0.05) * rng.standard_normal((ny, 2))
            vy = vx + rng.uniform(0.0, 0.5) * rng.standard_normal((ny, 2))
        else:
            y0 = rng.uniform(-1.0, 1.0, (ny, 2))
            vy = rng.uniform(-1.0, 1.0, (ny, 2))
        x = x0[:, None] + times[None, :, None] * vx[:, None]
        y = y0[:, None] + times[None, :, None] * vy[:, None]
        fwd, fwd_bound = _brute_direction(x, y)
        bwd, bwd_bound = _brute_direction(y, x)
        assert fwd_bound <= fwd and bwd_bound <= bwd
        est = dgh_dynamical(*_flow_pair(x, y), budget=2, seed=0)
        assert est.certified
        assert est.value >= max(fwd, bwd)
        if est.exact:
            assert est.value == max(fwd, bwd)
            n_exact += 1
        else:
            n_search += 1
    assert n_exact >= 3 and n_search >= 3


def _dilated_flows():
    # a dilated copy: the static distortion binds above every flow term, so
    # neither start map is certified and both directions run the multistart search
    rng = np.random.default_rng(12)
    times = np.linspace(0.0, 1.0, 3)
    x0 = rng.uniform(-1.5, 1.5, (12, 1))
    x = x0[:, None] + times[None, :, None] * 0.2 * rng.standard_normal((12, 1))[:, None]
    return x, 1.3 * x


def test_dgh_search_fallback():
    x, y = _dilated_flows()
    pair = _flow_pair(x, y)
    est = dgh_dynamical(*pair, budget=8, seed=5)
    assert not est.exact and est.certified
    # each witness is one of its direction's 8 best static maps, scored by its own flow epsilon
    sides = (
        (pair, _flow_cost(x, y), est.forward, est.forward_flow_eps, 1),
        (_reversed(pair), _flow_cost(y, x), est.backward, est.backward_flow_eps, 2),
    )
    objectives = []
    for (_cost, da, db), c, m, fe, flag in sides:
        cands = _one_sided_search(da, db, 8, 5, flag)[0][:8]
        assert any(np.array_equal(m, k) for _obj, k in cands)
        assert fe == c[np.arange(len(m)), m].max()
        objectives.append(max(distortion(da, db, m), coverage_deficit(db, m)))
    assert est.value == max(*objectives, est.forward_flow_eps, est.backward_flow_eps)


@pytest.mark.parametrize("budget", [0, -1])
def test_searches_refuse_a_budget_below_one(budget):
    # a certified pair, which needs no search, is refused all the same
    rng = np.random.default_rng(17)
    X = _random_space(rng, 6)
    x = [[0.0, 0.1], [1.0, 1.1], [2.5, 2.4]]
    certified = _flow_pair(x, x)
    assert dgh_dynamical(*certified, budget=1).exact
    for call in (
        lambda: gh_upper(X, X * (1.0 + 1e-3), budget=budget),
        lambda: dgh_dynamical(*_flow_pair(*_dilated_flows()), budget=budget),
        lambda: dgh_dynamical(*certified, budget=budget),
    ):
        with pytest.raises(ValueError, match="budget must be at least 1"):
            call()
