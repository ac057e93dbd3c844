import math
import time
from fractions import Fraction

import numpy as np
import pytest

import proxinv.h1
from proxinv import (
    DEFAULT_TOLERANCES,
    L_eval,
    ProxSet,
    Tolerances,
    brute_prox,
    classify_r2,
    effective_tie_tol,
    curves_intersection_kappa,
    objective_G_h1,
    pgd_wstep,
    project_ball_cone,
    prox_h1,
    prox_h1_axis,
    prox_h1_r2,
    prox_h1_uniform,
    r2_geometry,
    sphere_qp_lambda,
    trim_zeros,
    wstep_h1,
    wstep_h1_r2,
)
from proxinv.core import _dot, _objective_G_h1
from proxinv.h1 import (
    _NEWTON_CAP,
    _ROOT_TOL,
    _bisect,
    _descend,
    _factor,
    _offset,
    _piece,
    _wstep_h1,
)
from proxinv.wrd import WStepSolution
from helpers import assert_sets_close, best_f, candidates, f_value, sorted_desc

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0

#: the floor of N^2 in the scan's earlier prefix-sum form, which the parent
#: reference ``bracketed_roots`` keeps
_N2_FLOOR = 1e-200


def angle_objective(theta, x, rho):
    w = np.array([np.cos(theta), np.sin(theta)])
    return objective_G_h1(w, x, rho)


class TestUniformAndAxis:
    def test_uniform_below(self):
        ps = prox_h1_uniform(0.9, 4, 1.0)  # threshold sqrt(2/2) = 1
        assert ps.contains_zero and ps.points == []

    def test_uniform_tie(self):
        ps = prox_h1_uniform(1.0, 4, 1.0)
        assert ps.contains_zero and np.allclose(ps.points[0], np.ones(4))

    def test_uniform_above(self):
        ps = prox_h1_uniform(1.2, 4, 1.0)
        assert not ps.contains_zero and np.allclose(ps.points[0], np.full(4, 1.2))

    def test_scalar_matches_counting_prox(self):
        ps = prox_h1_uniform(1.5, 1, 2.0)  # threshold 1 in one dimension
        assert not ps.contains_zero
        assert np.allclose(ps.points[0], [1.5])

    def test_axis_cases(self):
        assert prox_h1_axis(0.9, 2.0).contains_zero
        tie = prox_h1_axis(1.0, 2.0)
        assert tie.contains_zero and np.allclose(tie.points[0], [1.0, 0.0])
        kept = prox_h1_axis(1.5, 2.0)
        assert not kept.contains_zero and np.allclose(kept.points[0], [1.5, 0.0])
        # one nonzero entry: prox_h1 is the axis prox restricted to that entry,
        # below, at (the tie) and above the threshold sqrt(2/rho)
        rho = 2.0
        for scale in (0.9, 1.0, 1.5):
            t = scale * np.sqrt(2.0 / rho)
            ps, ax = prox_h1(np.array([0.0, -t, 0.0]), rho), prox_h1_axis(t, rho)
            for field in ("contains_zero", "family", "g_value", "tie_truncated"):
                assert getattr(ps, field) == getattr(ax, field)
            assert len(ps.points) == len(ax.points)
            for p, q in zip(ps.points, ax.points):
                assert np.array_equal(p, [0.0, -q[0], 0.0])

    @pytest.mark.parametrize("tie_tol", [0.5, 0.9])
    @pytest.mark.parametrize("head", [np.full(2, math.sqrt(0.1)), np.full(100, math.sqrt(0.06))])
    def test_uniform_head_matches_a_near_uniform_one(self, head, tie_tol):
        # the first axis's gap (0.95 and 0.97 here) is the least, and it ties
        # at both tolerances on the long head and at 0.9 on the pair; the
        # uniform closed form must find it, as the direction step does once
        # one entry is 1e-9 lower
        tol = Tolerances(tie_tol)
        lower = head.copy()
        lower[-1] -= 1e-9
        ps, near = prox_h1(head, 1.0, tol), prox_h1(lower, 1.0, tol)
        assert_sets_close(ps, near)
        assert ps.g_value == pytest.approx(near.g_value, abs=1e-8)

    def test_default_tolerance_matches_diagonal_rule(self):
        # the rule this form replaced: decide on the diagonal's gap, and
        # report the lesser of the two gaps when the origin alone is kept
        def diagonal_rule(alpha, n, rho):
            f_zero = 0.5 * rho * alpha * alpha * n
            g_diag = math.sqrt(n) - f_zero
            g_axis = 1.0 - 0.5 * rho * alpha * alpha
            if abs(g_diag) <= DEFAULT_TOLERANCES.tie_tol * (1.0 + abs(f_zero)):
                return ProxSet(True, [np.full(n, alpha)], g_value=g_diag)
            if g_diag < 0.0:
                return ProxSet(False, [np.full(n, alpha)], g_value=g_diag)
            return ProxSet(True, [], g_value=min(g_diag, g_axis))

        rng = np.random.default_rng(81)
        for i in range(4000):
            n = int(rng.integers(1, 201))
            rho = 10.0 ** rng.uniform(-3.0, 3.0)
            threshold = math.sqrt(2.0 / (rho * math.sqrt(n)))
            # half of the draws within 1e-9 of the threshold, some exactly on it
            spread = 1e-9 if i % 2 else 1.0
            alpha = threshold * math.exp(rng.uniform(-spread, spread)) if i % 50 else threshold
            got, want = prox_h1_uniform(alpha, n, rho), diagonal_rule(alpha, n, rho)
            assert (got.contains_zero, got.family, repr(got.g_value)) == (
                want.contains_zero,
                want.family,
                repr(want.g_value),
            ), (alpha, n, rho)
            assert [p.tobytes() for p in got.points] == [p.tobytes() for p in want.points]

    @pytest.mark.parametrize("alpha", [np.nan, np.inf])
    def test_non_finite_level_rejected(self, alpha):
        with pytest.raises(ValueError, match="out of range"):
            prox_h1_uniform(alpha, 3, 1.0)
        with pytest.raises(ValueError, match="out of range"):
            prox_h1_axis(alpha, 1.0)


class TestConvexFactor:
    def test_endpoint_values(self):
        x = np.array([2.0, 1.0])
        rho = 1.0
        geom = r2_geometry(x)
        s2 = float(x @ x)
        left = 2.0 * np.sqrt(2.0) / (rho * s2) * (1.0 - rho * x[0] * x[1])
        assert L_eval(0.0, geom, rho, s2) == pytest.approx(left)
        right = 2.0 * np.sqrt(2.0) / (rho * s2)
        assert L_eval(0.5 * geom.alpha_angle, geom, rho, s2) == pytest.approx(right)

    def test_factorizes_angle_derivative(self):
        # d/dtheta of the angular objective equals the positive prefactor
        # times the convex factor, checked against central differences
        rng = np.random.default_rng(61)
        for _ in range(50):
            x = sorted_desc(rng, 0.2, 2.5, 2)
            if x[0] - x[1] < 1e-3:
                continue
            rho = rng.uniform(0.3, 5.0)
            geom = r2_geometry(x)
            s2 = float(x @ x)
            half = 0.5 * geom.alpha_angle
            for frac in (0.2, 0.5, 0.8):
                th = frac * half
                h = 1e-6
                fd = (angle_objective(th + h, x, rho) - angle_objective(th - h, x, rho)) / (2 * h)
                predicted = (
                    0.5 * rho * s2 * np.cos(th + 0.25 * np.pi) * L_eval(th, geom, rho, s2)
                )
                assert fd == pytest.approx(predicted, abs=1e-5 * (1 + abs(predicted)))

    def test_convexity_and_sign_changes(self):
        rng = np.random.default_rng(62)
        for _ in range(100):
            x = sorted_desc(rng, 0.2, 2.5, 2)
            if x[0] - x[1] < 1e-2:
                continue
            rho = rng.uniform(0.3, 5.0)
            geom = r2_geometry(x)
            s2 = float(x @ x)
            half = 0.5 * geom.alpha_angle
            ts = np.arange(0.0, half, 1e-4)
            if ts.size < 5:
                continue
            vals = np.array([L_eval(t, geom, rho, s2) for t in ts])
            second = vals[2:] - 2 * vals[1:-1] + vals[:-2]
            assert np.all(second > -1e-12)
            signs = np.sign(vals[np.abs(vals) > 1e-14])
            changes = int(np.count_nonzero(signs[1:] != signs[:-1]))
            assert changes <= 2

    def test_slope_sign_at_zero_tracks_kappa(self):
        for kappa in (0.1, 0.4, GOLDEN - 1e-9):
            x = np.array([1.0, kappa])
            assert _factor(0.0, r2_geometry(x).alpha_angle, 0.0)[1] >= -1e-9
        for kappa in (GOLDEN + 1e-6, 0.8, 0.95):
            x = np.array([1.0, kappa])
            assert _factor(0.0, r2_geometry(x).alpha_angle, 0.0)[1] < 0.0

    def test_domain_guard(self):
        geom = r2_geometry(np.array([2.0, 1.0]))
        with pytest.raises(ValueError):
            L_eval(geom.alpha_angle, geom, 1.0, 5.0)


class TestPlanarDirection:
    def test_small_kappa_first_axis(self):
        sol = wstep_h1_r2(np.array([1.0, 0.3]), 0.5)  # cross 0.15 < 1, kappa small
        assert np.array_equal(sol.w_star, [1.0, 0.0])

    def test_interior_root_case(self):
        x = np.array([2.0, 1.0])
        rho = 1.0
        sol = wstep_h1_r2(x, rho)
        assert 0.0 < sol.w_star[1] < sol.w_star[0]
        ths = np.linspace(0.0, np.pi / 4, 100001)
        grid = np.array([angle_objective(t, x, rho) for t in ths[:: len(ths) // 2000]])
        assert sol.g_value <= grid.min() + 1e-9

    def test_two_critical_point_case(self):
        # large kappa, weak coupling: compare the axis against the interior root
        x = np.array([1.0, 0.9])
        rho = 0.5
        sol = wstep_h1_r2(x, rho)
        ths = np.linspace(0.0, np.pi / 4, 200001)
        vals = np.array([angle_objective(t, x, rho) for t in ths[::100]])
        assert sol.g_value <= vals.min() + 1e-8

    def test_dense_grid_sweep(self):
        rng = np.random.default_rng(63)
        ths = np.linspace(0.0, np.pi / 4, 20001)
        W = np.column_stack([np.cos(ths), np.sin(ths)])
        for _ in range(100):
            x = sorted_desc(rng, 0.1, 2.5, 2)
            if x[0] - x[1] < 1e-6:
                continue
            rho = rng.uniform(0.2, 8.0)
            sol = wstep_h1_r2(x, rho)
            grid = -0.5 * rho * (W @ x) ** 2 + W.sum(axis=1)
            assert sol.g_value <= grid.min() + 1e-7


def bisection_wstep_h1_r2(x, rho):
    """The planar kernel as bisections of L and L' to a width of 1e-12, the
    solver that the Newton descent replaced: (w_star, g_value)."""
    x1, x2 = float(x[0]), float(x[1])
    geom = r2_geometry(x)
    s2 = plane_s2(x)
    half = 0.5 * geom.alpha_angle

    def L(theta):
        return _factor(theta, geom.alpha_angle, _offset(rho, s2))[0]

    if rho * x1 * x2 > 1.0:
        theta = _bisect(L, 0.0, half, 1e-12)
    elif geom.kappa <= GOLDEN:
        theta = 0.0
    else:
        theta0 = _bisect(lambda t: _factor(t, geom.alpha_angle, 0.0)[1], 0.0, half, 1e-12)
        theta = 0.0
        if L(theta0) < 0.0:
            theta1 = _bisect(L, theta0, half, 1e-12)
            w0, w1 = np.array([1.0, 0.0]), np.array([math.cos(theta1), math.sin(theta1)])
            if _objective_G_h1(w0, x, rho) > _objective_G_h1(w1, x, rho):
                theta = theta1
    w = np.array([math.cos(theta), math.sin(theta)])
    return w, _objective_G_h1(w, x, rho)


def planar_cases(seed, count):
    """Plane inputs (x1 > x2 > 0, rho) in four kinds: random; rho*x1*x2
    within 1e-16..1e-1 relative of 1; kappa = x2/x1 as near the golden ratio
    conjugate, half of them also with rho*x1*x2 near 1; and random inputs
    scaled by 10^[-150, 150] with rho scaled back."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        x1 = rng.uniform(0.05, 2.5)
        kappa = rng.uniform(0.01, 0.999)
        rho = 10.0 ** rng.uniform(-1.0, 1.5)
        near = 1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-16.0, -1.0)
        kind = i % 4
        if kind == 2:
            kappa = GOLDEN * (1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-16.0, -1.0))
        x2 = x1 * kappa
        if kind == 1 or (kind == 2 and i % 8 == 2):
            rho = near / (x1 * x2)
        if kind == 3:
            s = 10.0 ** rng.uniform(-150.0, 150.0)
            x1, x2, rho = x1 * s, x2 * s, rho / (s * s)
        out.append((np.array([x1, x2]), float(rho)))
    return out


def plane_s2(x):
    """||x||^2 as the planar kernel rounds it (``x @ x`` may fuse)."""
    return float(x[0] * x[0] + x[1] * x[1])


def grid_cells(rho=2.0, grid=40, xmax=2.0):
    """Cell centres of the region map with x1 > x2."""
    h = xmax / grid
    return [(np.array([(i + 0.5) * h, (j + 0.5) * h]), rho) for i in range(grid) for j in range(i)]


def interior_angles(monkeypatch, cases):
    """(x, rho, theta) for every positive angle that the descent on L returns."""
    found = []
    descend = proxinv.h1._descend

    def recording(fd, t, stop, u, v):
        theta = descend(fd, t, stop, u, v)
        if fd is proxinv.h1._factor:
            found.append(theta)
        return theta

    monkeypatch.setattr(proxinv.h1, "_descend", recording)
    out = []
    for x, rho in cases:
        found.clear()
        wstep_h1_r2(x, rho)
        out += [(x, rho, t) for t in found if t > 0.0]
    return out


def rounding_width(theta, x, rho):
    """4 ulps of theta plus 4 rounding errors of L at theta over its slope.

    L = sin(v)/cos(u) + c rounds c and the arguments u = theta + pi/4 and
    v = 2 theta - alpha (each to within ulp(pi/2)); so where the root is
    ill-conditioned (L' small, or cos(u) small as kappa nears 1) no float
    angle is nearer to L's float sign change than this width.
    """
    geom = r2_geometry(x)
    c = 2.0 * math.sqrt(2.0) / (rho * plane_s2(x))
    u, v = theta + 0.25 * math.pi, 2.0 * theta - geom.alpha_angle
    cu = math.cos(u)
    # |dL/du| ulp(u) + |dL/dv| ulp(v), with both ulps at most ulp(pi/2)
    slopes = abs(math.sin(v) * math.sin(u)) / (cu * cu) + 2.0 * abs(math.cos(v)) / cu
    eta = math.ulp(c) + slopes * math.ulp(0.5 * math.pi)
    return 4.0 * math.ulp(theta) + 4.0 * eta / _factor(theta, geom.alpha_angle, c)[1]


def assert_float_root(x, rho, theta):
    """L_eval changes sign on [theta - d, theta + d], d = rounding_width,
    clipped to the arc."""
    geom = r2_geometry(x)
    d = rounding_width(theta, x, rho)
    ends = (max(theta - d, 0.0), theta, min(theta + d, 0.5 * geom.alpha_angle))
    vals = [L_eval(t, geom, rho, plane_s2(x)) for t in ends]
    assert min(vals) <= 0.0 <= max(vals), (x.tolist(), rho, theta)


class TestPlanarNewton:
    """The planar kernel's Newton descent on L from the arc's end."""

    def test_interior_angle_is_float_root(self, monkeypatch):
        cases = grid_cells() + planar_cases(71, 2000)
        found = interior_angles(monkeypatch, cases)
        assert len(found) > 1000
        for x, rho, theta in found:
            assert_float_root(x, rho, theta)

    def test_branch_and_gap_match_bisection(self, monkeypatch):
        # where the branches differ, either both score the same G up to
        # rounding, or rho*x1*x2 rounds above 1 while L(0) rounds to >= 0:
        # there the bisection returned the first axis, whose G is higher
        cases = planar_cases(72, 5000)
        ties = mended = 0
        for x, rho in cases:
            w, g = bisection_wstep_h1_r2(x, rho)
            sol = wstep_h1_r2(x, rho)
            tol = 1e-14 * (1.0 + abs(g))
            assert sol.g_value <= g + tol, (x.tolist(), rho)
            if (w[1] == 0.0) != (sol.w_star[1] == 0.0):
                if abs(sol.g_value - g) <= tol:
                    ties += 1
                else:
                    assert w[1] == 0.0 and rho * x[0] * x[1] > 1.0, (x.tolist(), rho)
                    mended += 1
        assert ties + mended <= 0.01 * len(cases)
        for x, rho, theta in interior_angles(monkeypatch, cases):
            assert_float_root(x, rho, theta)

    def test_descent_ends_at_fixed_point_below_cap(self, monkeypatch):
        # each interior angle is one where L <= 0 or the Newton point does not
        # move below it; the bracket fallback past the cap is never reached
        calls = []
        factor = proxinv.h1._factor

        def counting(t, a, c):
            calls.append(t)
            return factor(t, a, c)

        def unreachable(*args):
            raise AssertionError("bracket fallback reached")

        monkeypatch.setattr(proxinv.h1, "_factor", counting)
        monkeypatch.setattr(proxinv.h1, "_bisect", unreachable)
        cases = grid_cells() + planar_cases(73, 2000)
        most = 0
        for x, rho in cases:
            calls.clear()
            wstep_h1_r2(x, rho)
            most = max(most, len(calls))
        assert 0 < most < _NEWTON_CAP
        for x, rho, theta in interior_angles(monkeypatch, cases):
            kappa = x[1] / x[0]
            a = math.atan2(2.0 * kappa, 1.0 - kappa * kappa)
            f, d = factor(theta, a, 2.0 * math.sqrt(2.0) / (rho * plane_s2(x)))
            assert f <= 0.0 or theta - f / d >= theta, (x.tolist(), rho)

    def test_bracket_fallback_past_cap(self, monkeypatch):
        # with the cap at 2 steps the bisections on [0, t] decide, and G
        # matches the bisection kernel's to within its width
        monkeypatch.setattr(proxinv.h1, "_NEWTON_CAP", 2)
        for x, rho in grid_cells() + planar_cases(74, 400):
            w, g = bisection_wstep_h1_r2(x, rho)
            sol = wstep_h1_r2(x, rho)
            assert abs(sol.g_value - g) <= 1e-10 * (1.0 + abs(g)), (x.tolist(), rho)

    def test_mends_axis_where_cross_rounds_above_one(self):
        # rho*x1*x2 = 1 + 2.6e-16: L(0) rounds to 0 and the bisection returned
        # the first axis, with G = 0.369; the interior angle 0.3933151162535379
        # has G = 0.35665440063365687 (50-digit reference values)
        x, rho = np.array([0.7305719035707977, 0.5792119453623578]), 2.363194809096597
        sol = wstep_h1_r2(x, rho)
        theta = math.atan2(sol.w_star[1], sol.w_star[0])
        assert theta == pytest.approx(0.39331511625353788565, rel=1e-12)
        assert sol.g_value == pytest.approx(0.35665440063365687217, rel=1e-14)
        assert bisection_wstep_h1_r2(x, rho)[1] == pytest.approx(0.36933974737542004207, rel=1e-14)


class TestClassification:
    def test_first_axis_region(self):
        r = classify_r2(np.array([1.5, 0.2]), 2.0)  # cross 0.6 < 1, x1 > 1
        assert r.label == "I11" and r.in_s1

    def test_single_boundary_point(self):
        rho = 1.7
        x = np.array([np.sqrt(2.0 / rho), np.sqrt(1.0 / (2.0 * rho))])
        assert classify_r2(x, rho).label == "I22"

    def test_s2_flag(self):
        rho = 2.0
        kappa = 0.8
        x1 = np.sqrt(2.0 * (1.0 + kappa) / (rho * (1.0 + kappa**2) ** 1.5)) * 1.01
        r = classify_r2(np.array([x1, kappa * x1]), rho)
        assert r.in_s2 and not r.in_s1

    def test_uniform_and_axis_labels(self):
        assert classify_r2(np.array([1.0, 1.0]), 2.0).label == "uniform"
        assert classify_r2(np.array([1.0, 0.0]), 2.0).label == "axis"

    @pytest.mark.parametrize(
        "x, label",
        [
            ([1.0, 0.3], "I12"),  # cross 0.6 < 1, x1 on the threshold 1
            ([1.5, 1.0 / 3.0], "I21"),  # cross 1, x1 above the threshold
            ([0.95, 1.0 / 1.9], "I23"),  # cross 1, below, kappa under the golden ratio
            ([0.8, 0.625], "I24"),  # cross 1, below, kappa above it
        ],
    )
    def test_boundary_labels(self, x, label):
        assert classify_r2(np.array(x), 2.0).label == label

    def test_labels_partition(self):
        rng = np.random.default_rng(64)
        for _ in range(300):
            x = sorted_desc(rng, 0.05, 2.5, 2)
            if x[0] - x[1] < 1e-9:
                continue
            rho = rng.uniform(0.3, 6.0)
            r = classify_r2(x, rho)
            cross = rho * x[0] * x[1]
            if r.label == "I3":
                assert cross > 1.0
            elif r.label.startswith("I1"):
                assert cross < 1.0
            if r.label in ("I14", "I24"):
                assert x[1] / x[0] > GOLDEN


class TestPlanarProx:
    def test_zero_region_row(self):
        # kappa below the golden ratio with x1 under the threshold
        ps = prox_h1_r2(np.array([0.8, 0.2]), 2.0)
        assert ps.contains_zero and ps.points == []

    def test_tie_row(self):
        rho = 2.0
        x = np.array([np.sqrt(2.0 / rho), 0.3])
        ps = prox_h1_r2(x, rho)
        assert ps.contains_zero and len(ps.points) == 1
        assert np.allclose(ps.points[0], [np.sqrt(2.0 / rho), 0.0], atol=1e-9)

    def test_keep_axis_row(self):
        ps = prox_h1_r2(np.array([1.5, 0.2]), 2.0)
        assert not ps.contains_zero
        assert np.allclose(ps.points[0], [1.5, 0.0], atol=1e-12)

    @pytest.mark.parametrize(
        "x, rho, g",
        [([1.0, 0.5], 2.00000002, -9.99999993922529e-09), ([3.0, 1.0], 0.3333333337, -0.5000000016500001)],
    )
    def test_tying_first_axis_is_listed(self, x, rho, g):
        # rho*x1*x2 just above 1: the interior root wins, and the first axis
        # ties with it at the default tie_tol, so it is listed second
        ps = prox_h1(x, rho)
        assert not ps.contains_zero and repr(ps.g_value) == repr(g)
        root, axis = ps.points
        assert root[1] > 0.0 and np.array_equal(axis, [x[0], 0.0])

    def test_oracle_agreement(self):
        rng = np.random.default_rng(65)
        for _ in range(50):
            x = sorted_desc(rng, 0.05, 2.2, 2)
            if x[0] - x[1] < 1e-9:
                continue
            rho = rng.uniform(0.3, 6.0)
            ps = prox_h1_r2(x, rho)
            u_o, f_o = brute_prox(x, rho, "h1", 0.0, 2e-4, method="sphere")
            assert best_f("h1", ps, x, rho) <= f_o + max(1e-5, 10 * (2e-4) ** 2 * rho * (x @ x))

    def test_box_oracle_spot_check(self):
        x = np.array([2.0, 1.0])
        rho = 1.0
        ps = prox_h1_r2(x, rho)
        u_o, f_o = brute_prox(x, rho, "h1", x[0] + 1.0, 1e-3, method="box")
        assert best_f("h1", ps, x, rho) <= f_o + 1e-5
        d = min(np.linalg.norm(u_o - u) for u in candidates(ps, 2))
        assert d <= 2e-3


class TestTrimAndProjection:
    def test_trim_examples(self):
        head, k = trim_zeros(np.array([3.0, 2.0, 0.0, 0.0]))
        assert np.array_equal(head, [3.0, 2.0]) and k == 2
        head, k = trim_zeros(np.ones(3))
        assert np.array_equal(head, np.ones(3)) and k == 0
        head, k = trim_zeros(np.zeros(2))
        assert head.size == 0 and k == 2

    def test_trailing_zeros_preserved_by_prox(self):
        ps = prox_h1(np.array([3.0, 2.0, 0.0, 0.0]), 1.0)
        for p in ps.points:
            assert p[2] == 0.0 and p[3] == 0.0

    def test_projection_fixed_points(self):
        v = np.array([0.8, 0.5, 0.1])
        assert np.array_equal(project_ball_cone(v), v)

    def test_projection_pooling(self):
        assert np.allclose(project_ball_cone([0.5, 0.9]), [0.7, 0.7])

    def test_projection_radial_scaling(self):
        assert np.allclose(project_ball_cone([2.0, 1.0]), np.array([2.0, 1.0]) / np.sqrt(5.0))

    def test_projection_negative_block_clamped(self):
        p = project_ball_cone([1.0, -3.0, 2.0])
        assert np.allclose(p, [1.0, 0.0, 0.0])

    def test_variational_inequality(self):
        rng = np.random.default_rng(66)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            v = rng.normal(0.0, 1.5, n)
            p = project_ball_cone(v)
            assert np.all(p[:-1] >= p[1:] - 1e-15) and p[-1] >= 0.0
            assert np.linalg.norm(p) <= 1.0 + 1e-12
            for _ in range(100):
                z = np.sort(np.abs(rng.normal(size=n)))[::-1]
                z *= rng.uniform(0.0, 1.0) / max(np.linalg.norm(z), 1e-12)
                assert float((v - p) @ (z - p)) <= 1e-9


class TestProjectedGradient:
    def test_uniform_limit(self):
        n = 4
        x = np.full(n, 1.3)
        rho = 2.0  # rho*alpha^2*sqrt(n) = 6.76 > 2
        sol = pgd_wstep(x, rho, project_ball_cone(0.5 * x / np.linalg.norm(x)))
        assert not sol.origin
        assert np.allclose(sol.w_star, np.full(n, 1.0 / np.sqrt(n)), atol=1e-8)

    def test_matches_planar_closed_form(self):
        rng = np.random.default_rng(67)
        compared = 0
        for _ in range(100):
            x = sorted_desc(rng, 0.1, 2.0, 2)
            if x[0] - x[1] < 1e-6:
                continue
            rho = rng.uniform(0.5, 6.0)
            closed = wstep_h1_r2(x, rho)
            sol = pgd_wstep(x, rho, project_ball_cone(0.5 * x / np.linalg.norm(x)))
            if sol.origin or sol.g_value >= -1e-8 or closed.g_value >= -1e-8:
                continue
            compared += 1
            assert np.linalg.norm(sol.w_star - closed.w_star) <= 1e-6
        assert compared > 30

    def test_origin_region(self):
        rng = np.random.default_rng(68)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            rho = rng.uniform(0.5, 5.0)
            x = sorted_desc(rng, 0.1, 1.0, n)
            x *= 0.99 * np.sqrt(2.0 / rho) / np.linalg.norm(x)
            sol = pgd_wstep(x, rho, project_ball_cone(0.5 * x / np.linalg.norm(x)))
            # origin limit, or a sphere point whose gap the decision step rejects
            assert sol.origin or sol.g_value >= -1e-9
            ps = prox_h1(x, rho)
            assert ps.contains_zero

    def test_monotone_trace_and_dichotomy(self):
        rng = np.random.default_rng(69)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            x = sorted_desc(rng, 0.05, 2.0, n)
            rho = rng.uniform(0.3, 6.0)
            trace = []
            sol = pgd_wstep(x, rho, project_ball_cone(0.5 * x / np.linalg.norm(x)), trace=trace)
            diffs = np.diff(np.array(trace))
            assert np.all(diffs <= 1e-12 * (1.0 + np.abs(np.array(trace[:-1]))))
            assert sol.limit_norm <= 1e-6 or sol.limit_norm >= 1.0 - 1e-6
            assert sol.certified

    def test_requires_positive_entries(self):
        with pytest.raises(ValueError):
            pgd_wstep(np.array([1.0, 0.0]), 1.0, np.zeros(2))

    def test_intermediate_norm_raises_diagnostic(self):
        # cutting the iteration short strands the iterate between the two
        # provable limit regimes, which must be reported
        x = np.array([2.0, 1.2, 0.4])
        w0 = project_ball_cone(0.5 * x / np.linalg.norm(x))
        with pytest.warns(RuntimeWarning, match="intermediate norm"):
            sol = pgd_wstep(x, 3.0, w0, pgd_tol=1e-16, max_iter=1)
        assert not sol.certified

    @pytest.mark.parametrize(
        "kw",
        [{"pgd_tol": 0.0}, {"pgd_tol": float("nan")}, {"pgd_tol": float("inf")}, {"max_iter": 0}],
        ids=["pgd_tol-zero", "pgd_tol-nan", "pgd_tol-inf", "max_iter-zero"],
    )
    def test_rejects_bad_iteration_settings(self, kw):
        x = np.array([2.0, 1.2, 0.4])
        with pytest.raises(ValueError):
            pgd_wstep(x, 3.0, project_ball_cone(0.5 * x / np.linalg.norm(x)), **kw)


def two_start_reference(head, rho):
    """Lowest direction objective among the candidates projected gradient
    offers: runs from half the unit data ray and from its sphere end (origin
    limits are no direction and drop out), plus the first axis."""
    nrm = float(np.linalg.norm(head))
    e1 = np.zeros(head.size)
    e1[0] = 1.0
    gaps = [objective_G_h1(e1, head, rho)]
    for w0 in (project_ball_cone(0.5 * head / nrm), head / nrm):
        sol = pgd_wstep(head, rho, w0)
        if not sol.origin:
            gaps.append(sol.g_value)
    return min(gaps)


def scan_corpus(rng, count):
    """Sorted positive non-uniform heads, n = 3..1000, with rho spread over
    three decades around the level where the direction objective crosses 0."""
    kinds = ("gauss", "padded", "block", "near", "twolevel")
    cases = []
    while len(cases) < count:
        kind = kinds[len(cases) % len(kinds)]
        # mostly small n: projected gradient costs O(n) per iteration
        n = int(rng.integers(3, 25)) if len(cases) % 11 else int(rng.integers(25, 1001))
        x = np.abs(rng.standard_normal(n))
        if kind == "padded":
            x[rng.choice(n, n // 3, replace=False)] = 0.0
        elif kind == "block":
            x[rng.choice(n, max(2, n // 4), replace=False)] = x.max()
        elif kind == "near":
            x = 1.0 + 1e-6 * rng.random(n)
        elif kind == "twolevel":
            k = int(rng.integers(1, n))
            x = np.concatenate([np.ones(k), np.full(n - k, rng.uniform(0.2, 0.99))])
        head = np.sort(x[x > 0.0])[::-1] * 10.0 ** rng.uniform(-3.0, 3.0)
        if head.size < 3 or head[0] - head[-1] <= 1e-12 * head[0]:
            continue
        s2 = float(head @ head)
        rho = 10.0 ** rng.uniform(-1.5, 1.5) * 2.0 * float(head.sum()) / s2**1.5
        cases.append((head, rho))
    return cases


def companion_scan(x, rho):
    """The support scan before the breakpoint screen, kept as a reference:
    every piece that passes the Cauchy-Schwarz test solves its quartic by
    companion eigenvalues and three Newton steps."""
    m = x.size
    x1 = float(x[0])
    y = x / x1
    r = rho * x1 * x1
    best = np.zeros(m)
    best[0] = 1.0
    best_g = objective_G_h1(best, x, rho)
    ks = np.arange(2, m + 1)
    hi, lo = y[1:], np.append(y[2:], 0.0)
    A, B = np.cumsum(y * y)[1:], np.cumsum(y)[1:]
    live = (hi > lo) & (2.0 * r * hi * np.sqrt(A) > 1.0)
    ks, hi, lo, A, B = ks[live], hi[live], lo[live], A[live], B[live]
    if ks.size:
        q2 = (1.0 / (r * B)) ** 2
        c3, c2, c1, c0 = -2.0 * A / B, (A / B) ** 2 - ks * q2, 2.0 * B * q2, -A * q2
        comp = np.zeros((ks.size, 4, 4))
        comp[:, 0] = -np.column_stack((c3, c2, c1, c0))
        comp[:, 1, 0] = comp[:, 2, 1] = comp[:, 3, 2] = 1.0
        roots = np.linalg.eigvals(comp)
        tau = roots.real
        near = np.abs(roots.imag) <= 1e-6
        near &= (tau >= lo[:, None] - 1e-9) & (tau <= hi[:, None] + 1e-9)
        i, j = np.nonzero(near)
        t = tau[i, j]
        c3, c2, c1, c0 = c3[i], c2[i], c1[i], c0[i]
        for _ in range(3):
            p = (((t + c3) * t + c2) * t + c1) * t + c0
            dp = ((4.0 * t + 3.0 * c3) * t + 2.0 * c2) * t + c1
            t = t - p / np.where(dp == 0.0, np.inf, dp)
        t = np.clip(t, lo[i], hi[i])
        kept = A[i] - t * B[i] > 0.0
        for k, tk in zip(ks[i][kept].tolist(), t[kept].tolist()):
            w = np.zeros(m)
            w[:k] = y[:k] - tk
            w /= np.linalg.norm(w)
            g = objective_G_h1(w, x, rho)
            if g < best_g:
                best, best_g = w, g
    return best, best_g


def reference_corpus(rng, count):
    """Sorted positive non-uniform heads, n = 3..3000, of six kinds, with rho
    over four decades around 2 sqrt(n)/||x||^2."""
    kinds = ("gauss", "padded", "rounded", "near", "twolevel", "cauchy")
    cases = []
    while len(cases) < count:
        kind = kinds[len(cases) % len(kinds)]
        n = int(rng.integers(3, 30)) if len(cases) % 10 else int(rng.integers(30, 3001))
        x = np.abs(rng.standard_cauchy(n) if kind == "cauchy" else rng.standard_normal(n))
        if kind == "padded":
            x[rng.choice(n, n // 3, replace=False)] = 0.0
        elif kind == "rounded":
            x = np.round(x, int(rng.integers(0, 3)))
        elif kind == "near":
            x = 1.0 + 10.0 ** rng.uniform(-8.0, -2.0) * rng.random(n)
        elif kind == "twolevel":
            k = int(rng.integers(1, n))
            x = np.concatenate([np.ones(k), np.full(n - k, rng.uniform(0.05, 0.99))])
        head = np.sort(x[x > 0.0])[::-1] * 10.0 ** rng.uniform(-3.0, 3.0)
        if head.size < 3 or head[0] == head[-1]:
            continue
        rho = 10.0 ** rng.uniform(-2.0, 2.0) * 2.0 * np.sqrt(head.size) / float(head @ head)
        cases.append((head, rho))
    return cases


#: heads whose scan puts a rising root at the upper end y_k of a piece on the
#: top block, so that its direction repeats a scored one: e1 at k = 2 (a
#: near-uniform head whose two points at tie_tol 0.9 were both x1 e1), and
#: the tied block's at k = j + 1 (sets that listed the block point twice at
#: the default tie_tol)
REPEAT_CASES = [
    (
        [
            0.016978586521812136, 0.016978586519664298, 0.01697858650890292, 0.01697858648032268,
            0.01697858645257586, 0.016978586443171212, 0.016978586431679855, 0.016978586427474504,
            0.016978586425276478, 0.016978586406658218,
        ],
        6188.907495397949,
    ),
    ([1.0, 1.0, 1.0, 1.0, 0.319262965878422, 0.236493557612853, 0.08931292707308076], 1.566107107425683),
    (
        [1.0, 1.0, 0.144378718221444, 0.12533492268562615, 0.04832549984588753, 0.04106848853934201],
        4.8975831749801735,
    ),
]


def gather_screen_wstep_h1(x, rho, descents):
    """wstep_h1 before the trusted kernel, kept as a reference: the first
    axis scored as a length-m unit vector by the objective, the end-slope
    test run on pieces gathered by index, and the rising root of each kept
    piece from one descent, all on the breakpoint gaps.  Appends the start
    and stop of every descent to ``descents``; returns the solution and the
    set of branches taken."""
    m = x.size
    x1 = float(x[0])
    r = rho * x1 * x1
    roots, seen = [], set()

    def descend(start, stop, sums):
        descents.append((start, stop))
        return _descend(_piece, start, stop, r, sums)

    if m > 1 and 2.0 * rho * float(x[1]) * math.sqrt(_dot(x, x)) > 1.0:
        j = 1 if x[1] < x1 else int(np.count_nonzero(x == x1))
        if j > 1:
            seen.add("tied_top")
            tj = 1.0 / (r * math.sqrt(j))
            if (x[j] / x1 if j < m else 0.0) <= tj < 1.0:
                roots.append((j, 1.0 - tj))
        xz = np.append(x, 0.0)
        t = xz[j:] / x1
        g = (xz[j - 1 : -1] - xz[j:]) / x1
        k = np.arange(j, m + 1.0)
        L = np.cumsum(k * g)
        n2 = np.cumsum(g * (L + np.r_[0.0, L[:-1]]))
        q = n2 + t * L
        n = np.sqrt(n2)
        f = r * t * q - n
        neg = f < 0.0
        rise = neg[1:] & ~neg[:-1]
        if (neg[:-1] & ~neg[1:]).any():
            seen.add("falling_skipped")
        both = neg[1:] & neg[:-1]
        both &= 2.0 * r * t[:-1] * np.sqrt(q[1:] + t[1:] * (L[1:] + k[1:] * t[1:])) > 1.0
        p = both.nonzero()[0]
        if p.size:
            seen.add("both_negative")
            a, b, kp = t[p + 1], t[p], k[p + 1]
            # F' at the lower end, and at the upper end from the piece above
            # that breakpoint, less r t^2
            da = r * (n2[p + 1] - kp * a * a) + L[p + 1] / n[p + 1]
            db = r * (n2[p] - (kp - 1.0) * b * b) + L[p] / n[p]
            both[:] = False
            both[p[(da > 0.0) & (db < r * b * b)]] = True
        for p in (rise | both).nonzero()[0].tolist():
            sums = (float(t[p]), float(n2[p]), float(L[p]), j + 1 + p)
            root = descend(float(g[p + 1]), 0.0, sums)
            if rise[p]:
                roots.append((j + 1 + p, root))
                continue
            seen.add("both_negative_descent")
            if root > 0.0:
                seen.add("both_negative_root")
                roots.append((j + 1 + p, root))
    scored, last = [], 0
    for kk, s in [(1, 1.0)] + roots:
        # a root at the upper end y_k of a piece on the top block (s = 0)
        # repeats the last scored direction: e1 (k = 2) or the tied block's
        # (k = j + 1)
        if kk > 1 and s == 0.0 and x[kk - 2] == x1 and last == kk - 1:
            seen.add("repeat_dropped")
            continue
        last = kk
        w = np.zeros(m)
        w[:kk] = (x[:kk] - x[kk - 1]) / x1 + s
        w /= math.sqrt(_dot(w, w))
        scored.append((w, _objective_G_h1(w, x, rho)))
    best = min(range(len(scored)), key=lambda i: scored[i][1])
    seen.add("root" if best else "first_axis")
    w, g = scored.pop(best)
    return WStepSolution(w_star=w, g_value=g, rivals=tuple(scored)), seen


class TestSupportScan:
    @pytest.mark.dispatch
    def test_trusted_scan_matches_parent(self, monkeypatch):
        # the trusted kernel, with the first axis scored in closed form and
        # the end-slope test on contiguous slices, gives the same bits as the
        # gather screen and runs the same descents
        descents = []

        def recording(fd, t, stop, u, v):
            descents.append((t, stop))
            return _descend(fd, t, stop, u, v)

        monkeypatch.setattr(proxinv.h1, "_descend", recording)
        rng = np.random.default_rng(76)
        pinned = np.array([1.35, 0.95, 0.85, 0.65, 0.15])
        # the pinned input at five scales (the scan sees x/x1 and rho*x1^2,
        # so each keeps its two pieces with both ends negative)
        cases = [(pinned * c, 0.7783515660155081 / (c * c)) for c in (1.0, 0.5, 3.0, 1e-3, 1e3)]
        # and the repeat heads at power-of-two scales, which keep y and r
        cases += [(np.array(x) * c, rho / (c * c)) for x, rho in REPEAT_CASES for c in (1.0, 0.5, 4.0)]
        cases += reference_corpus(rng, 1500)
        names = (
            "both_negative", "both_negative_descent", "both_negative_root", "falling_skipped",
            "tied_top", "first_axis", "root", "repeat_dropped",
        )
        seen = dict.fromkeys(names, 0)
        for x, rho in cases:
            descents.clear()
            sol = _wstep_h1(x, rho)
            ref_descents = []
            ref, branches = gather_screen_wstep_h1(x, rho, ref_descents)
            assert descents == ref_descents, (x.size, rho)
            assert sol.w_star.tobytes() == ref.w_star.tobytes(), (x.size, rho)
            assert repr(sol.g_value) == repr(ref.g_value)
            assert (sol.family, sol.family_gap) == (ref.family, ref.family_gap)
            assert len(sol.rivals) == len(ref.rivals)
            for (w, g), (w_ref, g_ref) in zip(sol.rivals, ref.rivals):
                assert w.tobytes() == w_ref.tobytes() and repr(g) == repr(g_ref)
            for name in branches:
                seen[name] += 1
        assert min(seen.values()) >= 5, seen

    def test_never_above_projected_gradient(self):
        rng = np.random.default_rng(72)
        for head, rho in scan_corpus(rng, 1000):
            sol = wstep_h1(head, rho)
            w = sol.w_star
            assert abs(np.linalg.norm(w) - 1.0) <= 1e-12 and w.min() >= 0.0
            assert sol.g_value == objective_G_h1(w, head, rho)
            assert sol.g_value <= two_start_reference(head, rho) + 1e-9

    def test_soft_threshold_form(self):
        # a direction off the first axis is proportional to (x - tau)_+ with
        # tau = 1/(rho <x, w>)
        rng = np.random.default_rng(73)
        interior = 0
        for head, rho in scan_corpus(rng, 200):
            w = wstep_h1(head, rho).w_star
            if w[1] == 0.0:
                continue
            interior += 1
            tau = 1.0 / (rho * float(head @ w))
            v = np.maximum(head - tau, 0.0)
            assert np.linalg.norm(w - v / np.linalg.norm(v)) <= 1e-8
        assert interior > 50

    def test_matches_planar_closed_form(self):
        rng = np.random.default_rng(74)
        for _ in range(200):
            x = sorted_desc(rng, 0.1, 2.5, 2)
            if x[0] - x[1] < 1e-6:
                continue
            rho = rng.uniform(0.2, 8.0)
            closed, exact = wstep_h1_r2(x, rho), wstep_h1(x, rho)
            assert exact.g_value <= closed.g_value + 1e-12
            if closed.g_value < 0.5:
                assert np.linalg.norm(exact.w_star - closed.w_star) <= 1e-6

    def test_requires_positive_entries(self):
        with pytest.raises(ValueError):
            wstep_h1(np.array([2.0, 1.0, 0.0]), 1.0)

    @pytest.mark.parametrize(
        "x, rho, g, support",
        [
            # both ends of the pieces k = 2 and 3 are negative; each gives its
            # rising root, where G turns from falling to rising (dG/dt has
            # the sign of F), and the winner is the k = 3 one
            ([1.35, 0.95, 0.85, 0.65, 0.15], 0.7783515660155081, 0.2879587414831, 3),
            # a tied top block makes F(1) = 0 with the zero direction; the
            # root that counts is 1/(r sqrt(j)) on the top piece
            ([2.0, 2.0, 2.0, 1.0], 0.22640384408415787, 0.3736277430639, 3),
            ([1.4, 1.4, 0.2], 1.2565193719056054, -1.0485644065619, 2),
        ],
        ids=["two-root-pieces", "tied-top-of-three", "tied-top-of-two"],
    )
    @pytest.mark.filterwarnings("error")
    def test_pinned_screen_cases(self, x, rho, g, support):
        x = np.array(x)
        sol = wstep_h1(x, rho)
        assert sol.g_value == pytest.approx(g, abs=1e-12)
        assert np.count_nonzero(sol.w_star) == support
        ref_w, ref_g = companion_scan(x, rho)
        assert abs(sol.g_value - ref_g) <= 1e-12 * (1.0 + abs(ref_g))
        assert np.abs(sol.w_star - ref_w).max() <= 1e-10

    @pytest.mark.filterwarnings("error")
    def test_matches_companion_reference(self):
        # the screened scalar solve and the companion scan find the same
        # direction; the screen raises no RuntimeWarning (zero norms at the
        # piece ends and square roots of negative round-off are handled)
        rng = np.random.default_rng(75)
        for head, rho in reference_corpus(rng, 1000):
            sol = wstep_h1(head, rho)
            ref_w, ref_g = companion_scan(head, rho)
            assert np.count_nonzero(sol.w_star) == np.count_nonzero(ref_w)
            assert abs(sol.g_value - ref_g) <= 1e-12 * (1.0 + abs(ref_g))
            assert np.abs(sol.w_star - ref_w).max() <= 1e-10

    def test_tied_directions_are_all_members(self):
        # at this rho the first axis and the full-support soft threshold of a
        # two-level input have the same negative gap, so both are members
        x, rho = np.array([5.0, 2.0, 2.0, 2.0, 2.0, 2.0]), 0.09935660878052052
        ps = prox_h1(x, rho)
        assert not ps.contains_zero and len(ps.points) == 2
        assert [np.count_nonzero(p) for p in ps.points] == [1, 6]
        f_axis, f_full = (f_value("h1", p, x, rho) for p in ps.points)
        assert abs(f_axis - f_full) <= 1e-12
        assert f_axis - 0.5 * rho * float(x @ x) == pytest.approx(ps.g_value, abs=1e-12)
        signed = prox_h1(-x[::-1], rho)
        assert [np.count_nonzero(p) for p in signed.points] == [1, 6]
        assert all(np.array_equal(p, -q[::-1]) for p, q in zip(signed.points, ps.points))
        # away from the crossing one direction wins
        for r in (rho * (1.0 - 1e-6), rho * (1.0 + 1e-6)):
            assert len(prox_h1(x, r).points) == 1


def bracketed_roots(x, r):
    """``h1._roots`` as it was before the shared descent, kept as a
    reference: on the prefix sums of y = x/x1 and y^2, a bracketed Newton
    search per sign change, and a tangent screen and a bisection for the
    maximum on pieces with both ends negative.  Each root t on the piece k
    is handed on as s = y_k - t."""
    y = np.zeros(x.size + 1)
    np.divide(x, float(x[0]), out=y[:-1])

    def piece(A, B, k):
        def fd(t):
            q = A - t * B
            n = math.sqrt(max(q - t * (B - k * t), _N2_FLOOR))
            return r * t * q - n, r * (q - t * B) + (B - k * t) / n

        return fd

    def newton(fd, neg, pos):
        t, step = neg, 2.0 * (pos - neg)
        while abs(pos - neg) > _ROOT_TOL:
            f, d = fd(t)
            if f == 0.0:
                return t
            if f < 0.0:
                neg = t
            else:
                pos = t
            new = t - f / d if d else t
            if not min(neg, pos) < new < max(neg, pos) or abs(new - t) > 0.5 * abs(step):
                new = 0.5 * (neg + pos)
            step, t = new - t, new
            if abs(step) <= _ROOT_TOL:
                break
        return t

    def peak(fd, a, b):
        while b - a > _ROOT_TOL:
            t = 0.5 * (a + b)
            f, d = fd(t)
            if f >= 0.0:
                return t
            if d > 0.0:
                a = t
            else:
                b = t
        return None

    m = y.size - 1
    A, B = (y * y).cumsum(), y.cumsum()
    roots = []
    j = 1 if y[1] < 1.0 else int(np.count_nonzero(y == 1.0))
    if j > 1 and y[j] <= 1.0 / (r * math.sqrt(j)) < 1.0:
        roots.append((j, 1.0 / (r * math.sqrt(j))))
    t = y[j:]
    k = np.arange(j, m + 1.0)
    Ak, Bk = A[j - 1 : m], B[j - 1 : m]
    q = Ak - t * Bk
    n = np.sqrt(np.maximum(q - t * (Bk - k * t), _N2_FLOOR))
    f = r * t * q - n
    neg = f < 0.0
    change = neg[1:] != neg[:-1]
    both = neg[1:] & neg[:-1]
    both &= 2.0 * r * t[:-1] * np.sqrt(Ak[1:]) > 1.0
    if both.any():
        a, b, kp, bp = t[1:], t[:-1], k[1:], Bk[1:]
        da = r * (q[1:] - a * bp) + (bp - kp * a) / n[1:]
        db = r * (q[:-1] - b * bp) + (bp - kp * b) / n[:-1]
        both &= (da > 0.0) & (db < 0.0)
        p = both.nonzero()[0]
        da, db = da[p], -db[p]
        s = np.maximum(da, db)
        da, db = da / s, db / s
        # the end tangents' zeros are in order
        both[p] = -f[p + 1] * db - f[p] * da <= (t[p] - t[p + 1]) * s * da * db
    for p in (change | both).nonzero()[0].tolist():
        fd = piece(float(Ak[p + 1]), float(Bk[p + 1]), j + 1 + p)
        lo, hi = float(t[p + 1]), float(t[p])
        if change[p]:
            roots.append((j + 1 + p, newton(fd, *((lo, hi) if neg[p + 1] else (hi, lo)))))
        elif (top := peak(fd, lo, hi)) is not None:
            roots += [(j + 1 + p, newton(fd, end, top)) for end in (lo, hi)]
    return [(k, float(y[k - 1] - t)) for k, t in roots]


def descent_corpus():
    """The pinned two-root input at five scales, 340 heads of
    :func:`reference_corpus` and 100 near-uniform heads 1 + s u, n = 3..300,
    s = 10^[-8, -2], with rho over four decades around 2 sqrt(n)/||x||^2."""
    pinned = np.array([1.35, 0.95, 0.85, 0.65, 0.15])
    cases = [(pinned * c, 0.7783515660155081 / (c * c)) for c in (1.0, 0.5, 3.0, 1e-3, 1e3)]
    rng = np.random.default_rng(77)
    cases += reference_corpus(rng, 340)
    for _ in range(100):
        n = int(rng.integers(3, 301))
        x = np.sort(1.0 + 10.0 ** rng.uniform(-8.0, -2.0) * rng.random(n))[::-1]
        cases.append((x, 10.0 ** rng.uniform(-2.0, 2.0) * 2.0 * np.sqrt(n) / float(x @ x)))
    return cases


def assert_prox_sets_match(got, ref, x, rho, point_rtol, g_tol):
    """Same membership of the origin, point count, supports and family;
    points within ``point_rtol`` relative and g within ``g_tol``."""
    assert (got.contains_zero, len(got.points), got.family) == (
        ref.contains_zero, len(ref.points), ref.family), (x.size, rho)
    for u, v in zip(got.points, ref.points):
        assert np.array_equal(u != 0.0, v != 0.0), (x.size, rho)
        assert np.abs(u - v).max() <= point_rtol * np.abs(v).max(), (x.size, rho)
    assert abs(got.g_value - ref.g_value) <= g_tol, (x.size, rho)


def scan_roots(monkeypatch, cases):
    """(x, r, roots) of every ``_roots`` call on ``cases``."""
    found = []
    roots = proxinv.h1._roots

    def recording(x, r):
        out = roots(x, r)
        found.append((x, r, out))
        return out

    monkeypatch.setattr(proxinv.h1, "_roots", recording)
    for x, rho in cases:
        _wstep_h1(x, rho)
    monkeypatch.setattr(proxinv.h1, "_roots", roots)
    return found


class ExactScan:
    """F(t) = r t <y, (y - t)_+> - ||(y - t)_+|| of a head x in exact
    rationals, y = x/x1 and r as given: x and r are floats, so every
    quantity below is a dyadic rational, and integers scaled by one power
    of two carry it.  A threshold is passed as T = t x1."""

    def __init__(self, x, r):
        self.x = [Fraction(v) for v in x.tolist()]
        self.x1, self.r = self.x[0], Fraction(r)

    def sums(self, T):
        """S = sum Z_i^2, Q = sum x_i Z_i and L = sum Z_i over Z_i = x_i - T > 0,
        as (S D^2, Q D^2, L D, D) with D the common power-of-two denominator."""
        d = max(T.denominator, *(v.denominator for v in self.x))
        tn = T.numerator * (d // T.denominator)
        xs = [v.numerator * (d // v.denominator) for v in self.x]
        z = [(v, v - tn) for v in xs if v > tn]
        return sum(c * c for _, c in z), sum(v * c for v, c in z), sum(c for _, c in z), d

    def threshold(self, k, s, d=0.0):
        """T = x1 (y_k - s - d), exactly."""
        return self.x[k - 1] - (Fraction(s) + Fraction(d)) * self.x1

    def sign(self, T):
        """The sign of F at t = T/x1: x1^3 F = r T Q - x1^2 sqrt(S)."""
        S, Q, _, d = self.sums(T)
        lhs, rhs = self.r * T * Q * d, self.x1 * self.x1 * d * d  # both times d^3
        if lhs <= 0:
            return -1 if lhs < 0 or S else 0
        lhs, rhs = lhs * lhs, rhs * rhs * S
        return (lhs > rhs) - (lhs < rhs)

    def width(self, k, s):
        """Bound on the distance from ``s`` to the nearest exact root, where
        the scan's F changes sign at ``s`` on the piece k.

        The scan forms L, N^2 and q = N^2 + t L from the gaps, every term
        nonnegative, so each carries a relative error of at most
        (2 k + 10) u (Higham 2002, ch. 4; u = 2^-53), and so does r t q and
        N = sqrt(N^2): F's error is at most eta = (2 k + 10) u (r t q + N).
        t = y_k - s is off by at most 2 u y_k.  So the scan's sign change is
        within 2 u y_k + eta/|F'| of an exact one; 4 ulps of s and a factor
        4 cover the Newton step's last move and F's curvature.
        """
        u, r = 2.0**-53, float(self.r)
        T = self.threshold(k, s)
        S, Q, L, d = self.sums(T)
        t, yk = float(T / self.x1), float(self.x[k - 1] / self.x1)
        n2, q = (float(Fraction(v, d * d) / self.x1**2) for v in (S, Q))
        L, n = float(Fraction(L, d) / self.x1), math.sqrt(n2)
        eta = (2 * k + 10) * u * (r * t * q + n)
        slope = r * (n2 - k * t * t) + L / n
        return 4.0 * (math.ulp(s) + 2.0 * u * yk + eta / abs(slope))


class TestScanDescent:
    """The support scan's Newton descents on each piece."""

    def test_prox_matches_bracketed_search(self, monkeypatch):
        # the same sets as the bracketed Newton search and the peak bisection
        # that the descent replaced, which stopped within 1e-12 of each root
        cases = descent_corpus()
        ours = [prox_h1(x, rho) for x, rho in cases]
        monkeypatch.setattr(proxinv.h1, "_roots", bracketed_roots)
        for (x, rho), got in zip(cases, ours):
            tie = effective_tie_tol(DEFAULT_TOLERANCES, 0.5 * rho * float(x @ x))
            assert_prox_sets_match(got, prox_h1(x, rho), x, rho, 1e-14, 1e-4 * tie)

    @pytest.mark.dispatch
    def test_roots_are_float_roots(self, monkeypatch):
        # every root is rising: the exact F is <= 0 below it and >= 0 above
        # it, within the width of the gap form's error bound, which is finite
        # for every root; no piece gives two roots, and the pieces below the
        # top block with both ends negative give theirs.  Budget: about 0.3 s
        # on a 2-vCPU VM, the exact signs included.
        found = scan_roots(monkeypatch, descent_corpus())
        count = inner = 0
        for x, r, roots in found:
            exact = ExactScan(x, r)
            ks = [k for k, _ in roots]
            assert len(set(ks)) == len(ks), (x.size, r, ks)
            for k, s in roots:
                w = exact.width(k, s)
                assert w < math.inf, (x.size, r, k, s)
                below, above = (exact.sign(exact.threshold(k, s, d)) for d in (w, -w))
                assert below <= 0 <= above, (x.size, r, k, s)
                hi, lo = exact.x[k - 1], exact.x[k] if k < x.size else Fraction(0)
                if hi < exact.x1 and max(exact.sign(lo), exact.sign(hi)) < 0:
                    inner += 1
                count += 1
        assert count > 250 and inner >= 10, (count, inner)

    def test_fallback_past_cap(self, monkeypatch):
        # with the cap at 2 steps the bisections decide, and give the
        # bracketed search's sets; every scan descent runs down in s, from
        # the lower end s = g_k of its piece toward s = 0
        cases = descent_corpus()
        descend, bisect = proxinv.h1._descend, proxinv.h1._bisect
        down, fallbacks = [], []

        def recording(fd, t, stop, u, v):
            down.append(stop <= t)
            return descend(fd, t, stop, u, v)

        def counting(f, lo, hi, width):
            fallbacks.append(lo)
            return bisect(f, lo, hi, width)

        monkeypatch.setattr(proxinv.h1, "_NEWTON_CAP", 2)
        monkeypatch.setattr(proxinv.h1, "_descend", recording)
        monkeypatch.setattr(proxinv.h1, "_bisect", counting)
        ours = [prox_h1(x, rho) for x, rho in cases]
        assert len(fallbacks) >= 10 and all(down), len(fallbacks)
        monkeypatch.setattr(proxinv.h1, "_roots", bracketed_roots)
        for (x, rho), got in zip(cases, ours):
            ref = prox_h1(x, rho)
            assert_prox_sets_match(got, ref, x, rho, 1e-9, 1e-10 * (1.0 + abs(ref.g_value)))

    def test_falling_root_is_not_a_member(self):
        # at tie_tol 0.3 the origin, the full support and the first axis tie;
        # the support-2 soft threshold at the falling root of F on its piece,
        # a local maximum of G along the path, is no member: its prox
        # objective (50-digit 1.788680) exceeds the kept points' (1.726791,
        # 1.775058), though its gap is within the tie tolerance
        x, rho = np.array([1.63, 1.54, 1.47]), 0.342
        ps = prox_h1(x, rho, Tolerances(0.3))
        assert ps.contains_zero and ps.family is None
        assert ps.g_value == pytest.approx(0.49740385076534976, rel=1e-14)
        full, axis = ps.points
        want = [1.8059068768605757, 1.5014216427814713, 1.264599794053278]
        assert full.tolist() == pytest.approx(want, rel=1e-13)
        assert axis.tolist() == [1.63, 0.0, 0.0]
        dropped = np.array([1.8835727394864377, 0.43047488984399107, 0.0])
        assert f_value("h1", dropped, x, rho) > max(f_value("h1", p, x, rho) for p in ps.points) + 0.01

    def test_descent_ends_at_fixed_point_below_cap(self, monkeypatch):
        # every descent that finds a root ends where -F <= 0 or its Newton
        # point does not move; the bisection fallback is never reached
        calls, ends = [], []
        piece, descend = proxinv.h1._piece, proxinv.h1._descend

        def counting(t, r, sums):
            calls.append(t)
            return piece(t, r, sums)

        def recording(fd, t, stop, u, v):
            calls.clear()
            out = descend(fd, t, stop, u, v)
            ends.append((out, stop, u, v, len(calls)))
            return out

        def unreachable(*args):
            raise AssertionError("bisection fallback reached")

        monkeypatch.setattr(proxinv.h1, "_piece", counting)
        monkeypatch.setattr(proxinv.h1, "_descend", recording)
        monkeypatch.setattr(proxinv.h1, "_bisect", unreachable)
        for x, rho in descent_corpus():
            _wstep_h1(x, rho)
        assert len(ends) > 300 and 0 < max(e[-1] for e in ends) < _NEWTON_CAP
        for t, stop, r, sums, _ in ends:
            if t != stop:
                f, d = piece(t, r, sums)
                assert f <= 0.0 or t - f / d == t, (t, r, sums)


def scan_args(x, rho):
    """(x, r) as :func:`_wstep_h1` hands them to the scan."""
    return x, rho * float(x[0]) ** 2


def pass_corpus():
    """(x, r) for every m = 3 .. 2 _SHORT_SCAN: Gaussian, tied-top (j >= 2),
    near-uniform 1 + 10^[-11, -2] u, two-level and (from a stream of their
    own) Cauchy heads, three of each kind, with rho over four decades around
    2 sqrt(m)/||x||^2; and the pinned both-negative input at five scales."""
    pinned = np.array([1.35, 0.95, 0.85, 0.65, 0.15])
    cases = [scan_args(pinned * c, 0.7783515660155081 / (c * c)) for c in (1.0, 0.5, 3.0, 1e-3, 1e3)]
    rng = np.random.default_rng(79)
    for m in range(3, 2 * proxinv.h1._SHORT_SCAN + 1):
        for _ in range(3):
            gauss = np.abs(rng.standard_normal(m))
            tied = gauss.copy()
            tied[: int(rng.integers(2, m))] = gauss.max()
            near = 1.0 + 10.0 ** rng.uniform(-11.0, -2.0) * rng.random(m)
            k = int(rng.integers(1, m))
            twolevel = np.concatenate([np.ones(k), np.full(m - k, rng.uniform(0.05, 0.99))])
            for x in (gauss, tied, near, twolevel):
                x = np.sort(x)[::-1] * 10.0 ** rng.uniform(-3.0, 3.0)
                rho = 10.0 ** rng.uniform(-2.0, 2.0) * 2.0 * np.sqrt(m) / float(x @ x)
                cases.append(scan_args(x, rho))
    rng = np.random.default_rng(80)
    for m in range(3, 2 * proxinv.h1._SHORT_SCAN + 1):
        for _ in range(3):
            x = np.sort(np.abs(rng.standard_cauchy(m)))[::-1] * 10.0 ** rng.uniform(-3.0, 3.0)
            rho = 10.0 ** rng.uniform(-2.0, 2.0) * 2.0 * np.sqrt(m) / float(x @ x)
            cases.append(scan_args(x, rho))
    return cases


@pytest.mark.dispatch
class TestScanPasses:
    """The Python-float pass of short heads and the vector pass of long ones
    give the same bits: numpy's cumsum is a sequential running sum, and its
    arithmetic and sqrt are correctly rounded, as Python's are."""

    def run_pass(self, monkeypatch, cut, x, r):
        descents = []

        def recording(fd, t, stop, u, v):
            descents.append(tuple(map(repr, (t, stop, u, *v))))
            return _descend(fd, t, stop, u, v)

        monkeypatch.setattr(proxinv.h1, "_descend", recording)
        monkeypatch.setattr(proxinv.h1, "_SHORT_SCAN", cut)
        roots = [(k, repr(s)) for k, s in proxinv.h1._roots(x, r)]
        return roots, descents

    def test_passes_agree(self, monkeypatch):
        roots = tied = empty = 0
        for x, r in pass_corpus():
            floats = self.run_pass(monkeypatch, x.size, x, r)
            vector = self.run_pass(monkeypatch, 0, x, r)
            assert floats == vector, (x.size, r)
            found, descents = floats
            roots += len(found)
            tied += x[1] == x[0]
            # descents that find no root: pieces with both ends negative
            empty += sum(d[-1] not in {repr(k) for k, _ in found} for d in descents)
        assert roots > 500 and tied > 150 and empty > 20, (roots, tied, empty)

    def test_cut(self, monkeypatch):
        # m = _SHORT_SCAN takes the loop, m + 1 the vector pass
        cut = proxinv.h1._SHORT_SCAN
        taken = []
        for name in ("_scan_floats", "_scan_vector"):
            scan = getattr(proxinv.h1, name)

            def recording(x, r, j, name=name, scan=scan):
                taken.append((x.size, name))
                return scan(x, r, j)

            monkeypatch.setattr(proxinv.h1, name, recording)
        for m in (3, cut, cut + 1, 2 * cut):
            x = np.linspace(2.0, 1.0, m)
            _wstep_h1(x, 2.0 * np.sqrt(m) / float(x @ x))
        assert taken == [(3, "_scan_floats"), (cut, "_scan_floats"), (cut + 1, "_scan_vector"), (2 * cut, "_scan_vector")]


def assert_repeat_free(ps, where):
    for i, p in enumerate(ps.points):
        assert not any(np.array_equal(p, q) for q in ps.points[:i]), where


class TestRepeatFree:
    """No ``prox_h1`` set lists a point twice: a rising root at the upper end
    of a piece on the top block has the direction of e1 or of the tied block,
    scored already, and is dropped."""

    @pytest.mark.parametrize("tie_tol", [None, 0.3, 0.9])
    def test_pinned_heads(self, tie_tol):
        tol = tie_tol and Tolerances(tie_tol)
        for x, rho in REPEAT_CASES:
            x = np.array(x)
            ps = prox_h1(x, rho, tol)
            assert_repeat_free(ps, (x.size, tie_tol))
            signed = prox_h1(-x[::-1], rho, tol)
            assert_repeat_free(signed, (x.size, tie_tol))
            assert len(signed.points) == len(ps.points)
            if x.size == 10 and tie_tol == 0.9:
                # the full support and x1 e1, once
                assert [np.count_nonzero(p) for p in ps.points] == [10, 1]
            elif x.size < 10:
                # the tied block's point first, then x1 e1 at tie_tol 0.9
                j = int(np.count_nonzero(x == 1.0))
                want = [j, 1] if tie_tol == 0.9 else [j]
                assert [np.count_nonzero(p) for p in ps.points] == want

    @pytest.mark.parametrize("tie_tol", [0.3, 0.9])
    def test_near_uniform_heads(self, tie_tol):
        # a scan that scores the upper-end roots too lists x1 e1 twice in 114
        # of these 4,000 sets at tie_tol 0.9
        rng = np.random.default_rng(78)
        for _ in range(2000):
            x = np.sort(1.0 + 10.0 ** rng.uniform(-11.0, -2.0) * rng.random(10))[::-1]
            x *= 10.0 ** rng.uniform(-3.0, 3.0)
            rho = 10.0 ** rng.uniform(-2.0, 2.0) * 2.0 * np.sqrt(10.0) / float(x @ x)
            for v in (x, -x[::-1]):
                assert_repeat_free(prox_h1(v, rho, Tolerances(tie_tol)), (x.tolist(), rho))


def test_large_dimension_runtime():
    # the screen leaves a few pieces, each solved as a scalar; an eigenvalue
    # solve per piece runs far over the budget here
    x = np.random.default_rng(59).standard_normal(20000)
    best = np.inf
    for _ in range(3):
        t0 = time.perf_counter()
        for rho in (0.1, 1.0):
            prox_h1(x, rho)
        best = min(best, time.perf_counter() - t0)
    assert best < 0.03, f"n=20000 prox_h1 at rho=0.1 and 1 took {best:.3f}s"


class TestSphereRelaxationDiagnostic:
    def test_uniform_closed_form(self):
        n = 3
        alpha = 1.5
        lam, w = sphere_qp_lambda(np.full(n, alpha), 2.0)
        assert lam == pytest.approx(np.sqrt(n) + 2.0 * alpha**2 * n)
        assert np.allclose(w, -np.ones(n) / np.sqrt(n))

    def test_random_instances(self):
        rng = np.random.default_rng(70)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            x = sorted_desc(rng, 0.05, 2.0, n)
            rho = rng.uniform(0.3, 4.0)
            lam, w = sphere_qp_lambda(x, rho)
            s1, s2 = float(x.sum()), float(x @ x)
            q = lam - rho * s2
            residual = (
                q**4
                + 2 * rho * s2 * q**3
                + (rho**2 * s2**2 - n) * q**2
                - 2 * rho * s1**2 * q
                - rho**2 * s1**2 * s2
            )
            assert abs(residual) <= 1e-9
            assert abs(np.linalg.norm(w) - 1.0) <= 1e-9
            assert np.all(w < 0.0)

    @pytest.mark.parametrize("x", [[1e200, 1.0], [1e80, 1.0]])
    def test_overflow_rejected(self, x):
        # ||x||^2 overflows at 1e200 and its square in the quartic at 1e80:
        # an infinite multiplier or a w of norm 2e12 would come back
        with pytest.raises(ValueError, match="input magnitude out of range"):
            sphere_qp_lambda(x, 1.0)

    def test_tiny_input(self):
        # ||x||^2 underflows to 0, so the quartic is q^2 (q^2 - n) with the
        # root sqrt(n), at the end of the bracket
        lam, w = sphere_qp_lambda([1e-200, 1e-201], 1.0)
        assert lam == pytest.approx(math.sqrt(2.0), rel=1e-12)
        assert abs(np.linalg.norm(w) - 1.0) <= 1e-12
        assert np.all(w < 0.0)


class TestCurveIntersection:
    def test_reference_root(self):
        k = curves_intersection_kappa()
        assert abs(k - 0.6124) <= 5e-5

    def test_satisfies_curve_equation(self):
        # the two curve radii coincide where (1 + k^2)^(3/2) = 1 + k
        k = curves_intersection_kappa()
        assert (1.0 + k * k) ** 1.5 == pytest.approx(1.0 + k, abs=1e-9)


class TestFullProx:
    def test_zero_input(self):
        ps = prox_h1(np.zeros(3), 1.0)
        assert ps.contains_zero and ps.points == []

    def test_small_ball_keeps_origin(self):
        rng = np.random.default_rng(71)
        for _ in range(30):
            rho = rng.uniform(0.5, 5.0)
            x = rng.normal(size=3)
            x *= 0.999 * np.sqrt(2.0 / rho) / np.linalg.norm(x)
            assert prox_h1(x, rho).contains_zero

    def test_three_dim_oracle(self):
        x = np.array([2.0, 1.2, 0.4])
        rho = 3.0
        ps = prox_h1(x, rho)
        u_o, f_o = brute_prox(x, rho, "h1", 0.0, 5e-4, method="sphere")
        assert best_f("h1", ps, x, rho) <= f_o + max(1e-5, 10 * (5e-4) ** 2 * rho * (x @ x))
        d = min(np.linalg.norm(u_o - u) for u in candidates(ps, 3))
        assert d <= 2e-3

    def test_overflowing_origin_objective_rejected(self):
        # F(0) overflows to inf, which would read every gap as a tie
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="out of range"):
            prox_h1(np.array([3.0, 2.0, 1.0]) * 1e160, 1e-320)

    def test_init_fraction_bounds(self):
        # prox_h1 runs no projected gradient, so it takes no start fraction
        with pytest.raises(TypeError):
            prox_h1(np.array([1.0, 0.5, 0.2]), 1.0, init_fraction=0.5)

    def test_uncertified_flag_on_iteration_cap(self):
        # the cap binds in projected gradient, the reference solver
        x, rho = np.array([2.0, 1.2, 0.4]), 3.0
        w0 = project_ball_cone(0.5 * x / np.linalg.norm(x))
        sol = pgd_wstep(x, rho, w0, pgd_tol=1e-16, max_iter=3)
        assert not sol.certified


def overflow_corpus(rng, count):
    """Heads whose r = rho x1^2 overflows while F(0) often stays finite:
    x1 in 10^[153.5, 154.1], rho in 10^[0, 0.5], the other entries x1 times
    10^[-3, 0]."""
    for _ in range(count):
        n = int(rng.integers(3, 8))
        x1 = 10.0 ** rng.uniform(153.5, 154.1)
        rho = 10.0 ** rng.uniform(0.0, 0.5)
        yield np.r_[x1, x1 * np.sort(10.0 ** rng.uniform(-3.0, 0.0, n - 1))[::-1]], rho


class TestOverflowingScale:
    """Where r = rho x1^2 overflows but F(0) does not, every root of F lies
    below about 1/r, so the scan scores the full support with the first axis."""

    X, RHO = np.array([1.2e154, 1e153, 1e152]), 2.0

    def test_pinned_prox(self):
        # the first axis's point scores about 1e306 here, x itself about 1.09
        ps = prox_h1(self.X, self.RHO)
        assert not ps.contains_zero and len(ps.points) == 1
        p = ps.points[0]
        assert np.count_nonzero(p) == 3
        assert np.abs(p - self.X).max() <= 1e-15 * self.X[0]
        tie = effective_tie_tol(DEFAULT_TOLERANCES, 0.5 * self.RHO * _dot(self.X, self.X))
        assert f_value("h1", p, self.X, self.RHO) <= f_value("h1", self.X, self.X, self.RHO) + tie

    def test_pinned_wstep(self):
        sol = wstep_h1(self.X, self.RHO)
        assert np.abs(sol.w_star - self.X / math.sqrt(_dot(self.X, self.X))).max() <= 1e-15
        # the first axis stays a scored rival, with its closed-form gap
        (w1, g1), = sol.rivals
        assert np.array_equal(w1, [1.0, 0.0, 0.0]) and g1 == -0.5 * self.RHO * self.X[0] ** 2 + 1.0
        assert sol.g_value < g1

    def test_sets_beat_x_and_the_first_axis(self):
        # a set is wrong when x itself or the first axis's point beats it by
        # more than the tie tolerance; the gaps dwarf the rounding of F
        rng = np.random.default_rng(97)
        returned = 0
        for x, rho in overflow_corpus(rng, 400):
            if rho * float(x[0]) * float(x[0]) < math.inf:
                continue
            try:
                ps = prox_h1(x, rho)
            except ValueError as exc:
                assert "out of range" in str(exc)
                continue
            returned += 1
            e1 = np.r_[x[0], np.zeros(x.size - 1)]
            ref = min(f_value("h1", x, x, rho), f_value("h1", e1, x, rho))
            tie = effective_tie_tol(DEFAULT_TOLERANCES, 0.5 * rho * _dot(x, x))
            assert best_f("h1", ps, x, rho) <= ref + tie, (x, rho)
        assert returned >= 50
