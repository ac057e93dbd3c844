import numpy as np
import pytest

from proxinv import (
    DEFAULT_TOLERANCES,
    WStepSolution,
    effective_tie_tol,
    normalize,
    objective_F,
    objective_G_h1,
    objective_G_h2,
    wrd_assemble,
    wstep_l0,
)
from helpers import f_value, random_unit_nonneg, sorted_desc


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
    with pytest.raises(ValueError):
        wrd_assemble(x, 1.0, WStepSolution(w_star=np.array([1.0, 1.0]), g_value=0.0))
    w = np.array([1.0, -1.0]) / np.sqrt(2.0)
    with pytest.raises(ValueError):
        wrd_assemble(x, 1.0, WStepSolution(w_star=w, g_value=0.0))
    with pytest.raises(ValueError):
        wrd_assemble(x, 1.0, WStepSolution(w_star=np.zeros(2), g_value=0.0))


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
