import decimal
import math
import re

import numpy as np
import pytest

import proxinv
from proxinv import (
    DEFAULT_TOLERANCES,
    Tolerances,
    WStepSolution,
    effective_tie_tol,
    normalize,
    objective_F,
    objective_G_h1,
    objective_G_h2,
    prox_h1,
    prox_h1_uniform,
    prox_h2,
    prox_h2_uniform,
    wrd_assemble,
    wstep_h1,
    wstep_h1_r2,
    wstep_h2,
    wstep_h2_r2,
    wstep_l0,
)
from proxinv.h1 import _wstep_h1
from helpers import f_value, hausdorff, random_unit_nonneg, sorted_desc


def test_positive_gap_keeps_origin():
    x = np.array([1.0, 0.5])
    sol = WStepSolution(w_star=np.array([1.0, 0.0]), g_value=0.5)
    ps = wrd_assemble(x, 1.0, sol)
    assert ps.contains_zero and ps.points == []


def test_exact_tie_returns_both():
    x = np.array([1.0, 0.5])
    sol = WStepSolution(w_star=np.array([1.0, 0.0]), g_value=0.0)
    ps = wrd_assemble(x, 1.0, sol)
    assert ps.contains_zero and len(ps.points) == 1
    assert np.allclose(ps.points[0], [1.0, 0.0])


def test_negative_gap_supplied_direction():
    # the decision step trusts the supplied direction and its gap; for the
    # counting penalty at x = [2, 1] the first axis attains the grid minimum
    x = np.array([2.0, 1.0])
    rho = 2.0
    sol = WStepSolution(w_star=np.array([1.0, 0.0]), g_value=-3.0)
    ps = wrd_assemble(x, rho, sol)
    assert not ps.contains_zero
    assert np.allclose(ps.points[0], [2.0, 0.0])
    # brute grid over the quarter circle for the counting objective
    th = np.linspace(0.0, np.pi / 2, 20001)
    W = np.column_stack([np.cos(th), np.sin(th)])
    counts = (W > 1e-15).sum(axis=1)
    g = -0.5 * rho * (W @ x) ** 2 + counts
    assert g.min() == pytest.approx(-3.0, abs=1e-6)


def test_family_tag_propagates():
    x = np.array([1.0, 1.0])
    w = np.full(2, 1.0 / np.sqrt(2.0))
    sol = WStepSolution(w_star=w, g_value=0.0, family="uniform_sphere")
    ps = wrd_assemble(x, 2.0, sol)
    assert ps.family == "uniform_sphere"


def test_tied_rivals_join_the_set():
    # a rival direction whose gap ties with the best one is a member with its
    # own radius; a rival outside the tie tolerance is not
    x = np.array([2.0, 1.0])
    w_tie = np.array([3.0, 4.0]) / 5.0
    w_far = np.array([4.0, 3.0]) / 5.0
    sol = WStepSolution(
        w_star=np.array([1.0, 0.0]), g_value=-3.0, rivals=((w_tie, -3.0 + 1e-13), (w_far, -2.9))
    )
    ps = wrd_assemble(x, 2.0, sol)
    assert not ps.contains_zero and len(ps.points) == 2
    assert np.array_equal(ps.points[1], 2.0 * w_tie)
    tie = wrd_assemble(x, 2.0, WStepSolution(w_star=sol.w_star, g_value=0.0, rivals=((w_tie, 1e-13),)))
    assert tie.contains_zero and len(tie.points) == 2
    origin = wrd_assemble(x, 2.0, WStepSolution(w_star=sol.w_star, g_value=0.5, rivals=((w_tie, 0.5),)))
    assert origin.contains_zero and origin.points == []


def test_rejects_bad_directions():
    x = np.array([1.0, 0.5])
    out_of_range = "input magnitude out of range: w_star is not finite"
    cases = [
        ([1.0, 1.0], "w_star must be a unit vector"),
        ([0.0, 0.0], "w_star must be a unit vector"),
        (np.array([1.0, -1.0]) / np.sqrt(2.0), "w_star must be nonnegative"),
        ([1.0, -2e-12], "w_star must be nonnegative"),  # past the -1e-12 rounding allowance
        ([1.0, np.nan], out_of_range),
        ([np.inf, 0.0], out_of_range),
        ([1.0, -np.inf], out_of_range),
    ]
    for w, message in cases:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            wrd_assemble(x, 1.0, WStepSolution(w_star=np.array(w), g_value=0.0))


def test_rounding_level_negative_entry_accepted():
    # an entry within 1e-12 below zero is rounding in a solver, not a sign error
    x = np.array([1.0, 0.5])
    w = np.array([1.0, -5e-13])
    ps = wrd_assemble(x, 1.0, WStepSolution(w_star=w, g_value=-1.0))
    assert not ps.contains_zero
    assert ps.points[0].tobytes() == (float(x @ w) * w).tobytes()


def test_nan_directions_rejected():
    # NaN fails the unit and sign tests, for w_star and for a tying rival
    x = np.array([1.0, 0.5])
    with pytest.raises(ValueError):
        wrd_assemble(x, 1.0, WStepSolution(w_star=np.array([np.nan, 0.0]), g_value=-1.0))
    rival = (np.array([np.nan, 0.0]), -1.0)
    sol = WStepSolution(w_star=np.array([1.0, 0.0]), g_value=-1.0, rivals=(rival,))
    with pytest.raises(ValueError):
        wrd_assemble(x, 1.0, sol)


def test_family_needs_its_widest_gap_to_tie():
    # the tag stands for directions up to family_gap: reported only when that ties too
    x = np.array([1.0, 1.0])
    w = np.array([1.0, 0.0])
    tied = wrd_assemble(x, 2.0, WStepSolution(w_star=w, g_value=0.0, family="uniform_sphere", family_gap=1e-12))
    assert tied.contains_zero and tied.family == "uniform_sphere"
    wide = wrd_assemble(x, 2.0, WStepSolution(w_star=w, g_value=0.0, family="uniform_sphere", family_gap=1e-3))
    assert wide.contains_zero and len(wide.points) == 1 and wide.family is None


def test_non_finite_gap_rejected():
    x = np.array([1.0, 0.5])
    sol = WStepSolution(w_star=np.array([1.0, 0.0]), g_value=np.nan)
    with pytest.raises(ValueError, match="out of range"):
        wrd_assemble(x, 1.0, sol)


def test_decision_identity_both_objectives():
    # F(<x,w>w) - F(0) equals the direction objective for any feasible w
    rng = np.random.default_rng(31)
    for _ in range(200):
        n = int(rng.integers(2, 8))
        x = sorted_desc(rng, 0.05, 2.5, n)
        rho = rng.uniform(0.3, 5.0)
        w = random_unit_nonneg(rng, n)
        point = float(x @ w) * w
        f0 = objective_F(np.zeros(n), x, rho, 0.0)
        assert f_value("h2", point, x, rho) - f0 == pytest.approx(
            objective_G_h2(w, x, rho), abs=1e-9
        )
        assert f_value("h1", point, x, rho) - f0 == pytest.approx(
            objective_G_h1(w, x, rho), abs=1e-9
        )


def test_output_membership():
    # every returned point attains the best of {F(0), F(r w)} within the tie band
    rng = np.random.default_rng(32)
    for _ in range(200):
        n = int(rng.integers(2, 8))
        x = sorted_desc(rng, 0.05, 2.5, n)
        rho = rng.uniform(0.3, 5.0)
        xs, _ = normalize(x)
        sol = wstep_l0(xs, rho)
        ps = wrd_assemble(xs, rho, sol)
        r = float(xs @ sol.w_star)
        f0 = objective_F(np.zeros(n), xs, rho, 0.0)
        fr = f_value("l0", r * sol.w_star, xs, rho)
        best = min(f0, fr)
        tie = effective_tie_tol(DEFAULT_TOLERANCES, f0)
        for p in ps.points:
            assert f_value("l0", p, xs, rho) <= best + tie
        if ps.contains_zero:
            assert f0 <= best + tie


@pytest.mark.parametrize("form", [prox_h1_uniform, prox_h2_uniform])
@pytest.mark.parametrize(
    "alpha, n, match",
    [
        (1.0, 2.5, "integer"),
        (1.0, "3", "integer"),
        (1.0, np.float64(3.0), "integer"),
        (1.0, 0, "integer >= 1"),
        (0.0, 3, "positive"),
        (-1.0, 3, "positive"),
        (np.nan, 3, "out of range"),
        (np.inf, 3, "out of range"),
        (-np.inf, 3, "out of range"),
    ],
)
def test_uniform_forms_check_their_arguments(form, alpha, n, match):
    with pytest.raises(ValueError, match=match):
        form(alpha, n, 1.0)
    # an integer of any integral type is the same dimension
    a, b = form(1.0, np.int64(3), 1.0), form(1.0, 3, 1.0)
    assert (a.contains_zero, a.g_value, a.family) == (b.contains_zero, b.g_value, b.family)
    assert all(np.array_equal(p, q) for p, q in zip(a.points, b.points))


def fork_pairs(rng, count, c):
    """Non-uniform sorted pairs (x, rho), x1 at magnitudes 10^[-3, 3] and
    10^[-120, 120] in turn; for a third, rho*x1*x2 within 1e-6 relative of
    ``c`` (log-uniform down to 1e-12), else rho*x1^2 log-uniform on
    [0.1, 30].  Pairs with |rho*x1*x2 - c| <= 1e-12 are left out: there the
    root and the first axis lie within rounding of each other."""
    out = []
    while len(out) < count:
        i = len(out)
        x1 = 10.0 ** rng.uniform(*((-3.0, 3.0) if i % 2 else (-120.0, 120.0)))
        x2 = x1 * rng.uniform(0.0, 0.999)
        rho = 10.0 ** rng.uniform(-1.0, 1.5) / (x1 * x1)
        if i % 3 == 0:
            rho = c * (1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-12.0, -6.0)) / (x1 * x2)
        if abs(rho * x1 * x2 - c) > 1e-12:
            out.append((np.array([x1, x2]), rho))
    return out


@pytest.mark.parametrize("tie_tol", [1e-10, 0.3, 0.9])
@pytest.mark.parametrize(
    "planar, general, c",
    [(wstep_h1_r2, _wstep_h1, 1.0), (wstep_h2_r2, lambda h, r: wstep_h2(h, r)[0], 2.0)],
    ids=["h1", "h2"],
)
def test_planar_fork_agrees_with_general_kernel(planar, general, c, tie_tol):
    # wrd.prox sends two-entry heads to the planar kernel; the general one
    # gives the same set there, every tying candidate included, once
    rng = np.random.default_rng(int(c * 1000 + tie_tol * 100))
    tol = Tolerances(tie_tol)
    for x, rho in fork_pairs(rng, 3000, c):
        a = wrd_assemble(x, rho, planar(x, rho), tol)
        b = wrd_assemble(x, rho, general(x, rho), tol)
        where = (x.tolist(), rho)
        assert (a.contains_zero, a.family, len(a.points)) == (b.contains_zero, b.family, len(b.points)), where
        assert hausdorff(a.points, b.points) <= 1e-9 * math.hypot(x[0], x[1]), where
        for ps in (a, b):
            for i, p in enumerate(ps.points):
                assert not any(np.array_equal(p, q) for q in ps.points[:i]), where


def piece_two_root(x1, x2, rho):
    """The rising root s* of the l1/l2 scan's F on the support-2 piece of
    the pair (x1, x2), at t = kappa - s (kappa = x2/x1, y = (1, kappa),
    r = rho x1^2), and F'(s*), in 70-digit decimal.  F is concave on the
    piece: bisect F' for its peak, then F between the peak, where F > 0,
    and s = kappa (t = 0), where F = -||y||; the root between them is the
    one where F turns nonnegative as t grows.  200 halvings of a width
    below 1 leave less than 1e-60, 50 digits of s* here."""
    with decimal.localcontext() as ctx:
        ctx.prec = 70
        x1, x2, rho = decimal.Decimal(x1), decimal.Decimal(x2), decimal.Decimal(rho)
        kappa, r = x2 / x1, rho * x1 * x1
        a, b = 1 - kappa, 1 + kappa

        def f(s):
            return r * (kappa - s) * (a + b * s) - ((a + s) ** 2 + s * s).sqrt()

        def f_prime(s):
            return r * ((kappa - s) * b - a - b * s) - (a + 2 * s) / ((a + s) ** 2 + s * s).sqrt()

        def bisect(g, lo, hi):
            # g > 0 at lo and < 0 at hi
            for _ in range(200):
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if g(mid) > 0 else (lo, mid)
            return lo

        peak = bisect(f_prime, decimal.Decimal(0), kappa)
        assert f(peak) > 0
        root = bisect(f, peak, kappa)
        return root, f_prime(root), a


def test_planar_fork_lists_root_within_its_conditioning_at_double_root():
    # rho*x1*x2 = 1 - 3.2e-12 and kappa near the golden ratio conjugate:
    # L has a near-double root at 0, and F' at the root is -3.7e-7.  Both
    # sides of the fork list the root with the first axis at tie_tol 0.3, a
    # few 1e-10 apart in s; each must lie within the root's conditioning,
    # four rounding units (2^-52) of F over |F'(s*)|, 2.4e-9 in s
    x = np.array([1.912450329773451, 1.1819616218506968])
    rho = 0.4423911804530456
    s_star, slope, a = piece_two_root(x[0], x[1], rho)
    # the root from a 60-digit mpmath findroot
    assert abs(s_star / decimal.Decimal("6.04939265108414230017675393515271920e-7") - 1) <= 1e-30
    bound = 4 * decimal.Decimal(2) ** -52 / abs(slope)
    tol = Tolerances(0.3)
    for kernel in (wstep_h1_r2, _wstep_h1):
        ps = wrd_assemble(x, rho, kernel(x, rho), tol)
        assert ps.contains_zero and len(ps.points) == 2, kernel
        (u1, u2), = [p for p in ps.points if p[1] > 0.0]
        # the point is radius * (a + s, s), with a = 1 - kappa
        s = a * decimal.Decimal(u2) / (decimal.Decimal(u1) - decimal.Decimal(u2))
        assert abs(s - s_star) <= bound, (kernel, float(s - s_star), float(bound))


def _set_bytes(ps):
    return (ps.contains_zero, ps.family, repr(ps.g_value), ps.tie_truncated, [p.tobytes() for p in ps.points])


#: the public w-steps of each ratio operator: (planar, longer heads, uniform closed form)
_PUBLIC_STEPS = {
    "h1": (prox_h1, wstep_h1_r2, wstep_h1, prox_h1_uniform),
    "h2": (prox_h2, wstep_h2_r2, lambda h, r: wstep_h2(h, r)[0], prox_h2_uniform),
}


def _composed(op, x, rho, tol):
    """The ratio prox as the public composition: normalize, the public
    w-step, wrd_assemble, then map_points(perm.invert)."""
    _, planar, wstep, uniform = _PUBLIC_STEPS[op]
    xs, perm = normalize(x)
    m = int(np.count_nonzero(xs))
    if m == 0:
        return _set_bytes(proxinv.ProxSet(True, [], g_value=1.0))
    head = xs[:m]
    if proxinv.uniform_value(head) is not None:
        return _set_bytes(uniform(head[0], m, rho, tol).map_points(perm.invert))
    sol = (planar if m == 2 else wstep)(head, rho)
    return _set_bytes(wrd_assemble(head, rho, sol, tol).map_points(perm.invert))


def _driver_corpus():
    rng = np.random.default_rng(30)
    cases = [
        (np.array([1.0, 0.5]), 2.00000002, Tolerances(0.3)),
        (np.array([1.0, 0.5]), 2.00000002, DEFAULT_TOLERANCES),
        (np.array([-3.0, 1.0]), 0.3333333337, Tolerances(0.9)),
        (np.array([0.31622776601683794, 0.31622776601683794]), 1.0, Tolerances(0.9)),
        (np.array([1.0, -1.0, 0.0]), 2.0, DEFAULT_TOLERANCES),  # uniform head at the h2 tie
        (np.array([1.0, -1.0, 0.5]), 2.0, DEFAULT_TOLERANCES),  # tied top block at the h2 tie
        (np.array([-0.0, 1.0, 1.0]), math.sqrt(2.0), Tolerances(1e-6)),  # uniform head at the h1 tie
    ]
    for n in (1, 2, 3, 10, 33, 100):
        for i in range(12):
            rho = float(10 ** rng.uniform(-2, 1))
            tol = (DEFAULT_TOLERANCES, Tolerances(1e-6), Tolerances(0.3))[i % 3]
            x = rng.standard_normal(n)
            kind = i % 6
            if kind == 1:  # zero tail, with -0.0 entries among the zeros
                x[rng.permutation(n)[: n // 2]] = 0.0
                x[rng.permutation(n)[: n // 3]] = -0.0
            elif kind == 2:  # tied top block
                x[rng.permutation(n)[: max(2, n // 4)]] = 1.5 * rng.choice([-1.0, 1.0])
            elif kind == 3:  # uniform head with a zero tail
                x = np.where(rng.random(n) < 0.7, 0.9, 0.0) * rng.choice([-1.0, 1.0], n)
            elif kind == 4:  # near-tied head at a large tie_tol
                x = (1.0 + 1e-7 * rng.random(n)) * rng.choice([-1.0, 1.0], n)
                tol = Tolerances(0.9)
            elif kind == 5:  # entries near the l0 threshold
                x = np.sqrt(2.0 / rho) * (1.0 + 1e-3 * rng.standard_normal(n))
            cases.append((x, rho, tol))
    return cases


@pytest.mark.parametrize("op", sorted(_PUBLIC_STEPS))
def test_driver_matches_public_composition(op):
    # the driver runs the decision step on the head normalize validated and
    # inverts the points in place; the public names give the same bytes
    prox_op = _PUBLIC_STEPS[op][0]
    for x, rho, tol in _driver_corpus():
        assert _set_bytes(prox_op(x, rho, tol)) == _composed(op, x, rho, tol), (x, rho, tol)


@pytest.mark.parametrize("op, planar, general", [("h1", "wstep_h1_r2", "_wstep_h1"), ("h2", "wstep_h2_r2", "wstep_h2")])
@pytest.mark.parametrize("bad", ["nan", "long", "negative"])
def test_driver_rejects_bad_directions_as_wrd_assemble_does(monkeypatch, op, planar, general, bad):
    # what a w-step returns is checked after the driver as it is by wrd_assemble
    def direction(head):
        w = np.zeros(head.size)
        w[:2] = {"nan": [np.nan, 0.0], "long": [2.0, 0.0], "negative": [0.6, -0.8]}[bad]
        return WStepSolution(w_star=w, g_value=-1.0)

    mod = getattr(proxinv, op)
    prox_op = _PUBLIC_STEPS[op][0]
    monkeypatch.setattr(mod, planar, lambda h, r: direction(h))
    monkeypatch.setattr(mod, general, lambda h, r: (direction(h), 2) if general == "wstep_h2" else direction(h))
    for x in (np.array([2.0, -1.0]), np.array([3.0, -2.0, 1.0, 0.0])):
        head = normalize(x)[0][: np.count_nonzero(x)]
        with pytest.raises(ValueError) as want:
            wrd_assemble(head, 1.0, direction(head))
        with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
            prox_op(x, 1.0)
