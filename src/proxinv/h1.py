"""Proximity operator of the l1/l2 ratio.

The direction problem mixes a rank-1 concave quadratic with a linear term,
so the negative-eigenvalue trick used for the squared ratio does not apply:
the full-sphere stationary direction has all entries negative
(:func:`sphere_qp_lambda` exposes it as a diagnostic).  Instead:

* uniform and single-axis inputs have threshold closed forms;
* in the plane, the angular derivative of the direction objective factors
  into a positive function times a strictly convex one, so safeguarded
  bisection on that factor (and on its derivative) finds the exact angle;
* in general dimension the sphere constraint is relaxed to the unit-ball
  slice of the descending nonnegative cone, where the minimizer is either
  the origin or a sphere point, and projected gradient iterations with a
  cone-then-ball projection converge to it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    DEFAULT_TOLERANCES,
    ProxSet,
    Tolerances,
    _positive_rho,
    as_vector,
    descending_vector,
    normalize,
    objective_G_h1,
    uniform_value,
)
from .wrd import WStepSolution, decision_step, wrd_assemble

#: kappa below which the first axis is stationary for the planar problem
GOLDEN_RATIO_CONJUGATE = (np.sqrt(5.0) - 1.0) / 2.0

_SPHERE_BRANCH_NORM = 1.0 - 1e-8
_DICHOTOMY_BAND = 1e-6


@dataclass(frozen=True)
class R2Geometry:
    """Planar direction-problem geometry: the entry ratio kappa = x2/x1 and
    the angle alpha = arctan(2*kappa/(1-kappa^2)) bounding the search arc."""

    kappa: float
    alpha_angle: float


class R2Region(NamedTuple):
    label: str
    in_s1: bool
    in_s2: bool


def r2_geometry(x_sorted) -> R2Geometry:
    x = descending_vector(x_sorted)
    if x.size != 2 or not x[0] > x[1]:
        raise ValueError("expected a sorted plane vector with x1 > x2 >= 0")
    kappa = float(x[1] / x[0])
    alpha = math.atan2(2.0 * kappa, 1.0 - kappa * kappa)
    return R2Geometry(kappa=kappa, alpha_angle=alpha)


def L_eval(theta: float, geom: R2Geometry, rho: float, norm2_sq: float) -> float:
    """Convex factor of the angular derivative of the planar objective."""
    rho = _positive_rho(rho)
    half = 0.5 * geom.alpha_angle
    if theta < -1e-12 or theta > half + 1e-12:
        raise ValueError("theta outside [0, alpha/2]")
    a = geom.alpha_angle
    return (
        math.sin(2.0 * theta - a) / math.cos(theta + 0.25 * math.pi)
        + 2.0 * math.sqrt(2.0) / (rho * norm2_sq)
    )


def _L_prime(theta: float, geom: R2Geometry) -> float:
    a = geom.alpha_angle
    c = math.cos(theta + 0.25 * math.pi)
    s = math.sin(theta + 0.25 * math.pi)
    return (2.0 * math.cos(2.0 * theta - a) * c + math.sin(2.0 * theta - a) * s) / (c * c)


def _bisect(f, lo: float, hi: float, width: float) -> float:
    """Root of f on [lo, hi] assuming f(lo) <= 0 <= f(hi); degenerate
    brackets return the matching endpoint."""
    flo = f(lo)
    if flo >= 0.0:
        return lo
    if f(hi) <= 0.0:
        return hi
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def wstep_h1_r2(x_sorted, rho: float, tol: Tolerances | None = None) -> WStepSolution:
    """Exact planar direction via the convex factor of the angular derivative.

    The factor is strictly convex on the arc with a positive right endpoint,
    so it has at most two roots; the case split on the product rho*x1*x2 and
    on kappa decides whether the first axis, the unique interior root, or
    the better of the two is optimal.
    """
    tol = tol or DEFAULT_TOLERANCES
    rho = _positive_rho(rho)
    x = descending_vector(x_sorted)
    geom = r2_geometry(x)
    x1, x2 = float(x[0]), float(x[1])
    s2 = x1 * x1 + x2 * x2
    half = 0.5 * geom.alpha_angle
    cross = rho * x1 * x2

    def L(theta: float) -> float:
        return L_eval(theta, geom, rho, s2)

    def Lp(theta: float) -> float:
        return _L_prime(theta, geom)

    if cross > 1.0:
        # factor starts negative: unique interior root is the global angle
        theta_star = _bisect(L, 0.0, half, tol.root_tol)
    elif geom.kappa <= GOLDEN_RATIO_CONJUGATE:
        theta_star = 0.0
    else:
        theta0 = _bisect(Lp, 0.0, half, tol.root_tol)
        if L(theta0) >= 0.0:
            theta_star = 0.0
        else:
            theta1 = _bisect(L, theta0, half, tol.root_tol)
            w0 = np.array([1.0, 0.0])
            w1 = np.array([math.cos(theta1), math.sin(theta1)])
            theta_star = 0.0 if objective_G_h1(w0, x, rho) <= objective_G_h1(w1, x, rho) else theta1

    w = np.array([math.cos(theta_star), math.sin(theta_star)])
    return WStepSolution(w_star=w, g_value=objective_G_h1(w, x, rho))


def _s2_threshold(kappa: float, rho: float) -> float:
    return math.sqrt(2.0 * (1.0 + kappa) / (rho * (1.0 + kappa * kappa) ** 1.5))


def classify_r2(x_sorted, rho: float) -> R2Region:
    """Label a sorted plane point by the case structure of the planar prox,
    with flags for the two regions where the origin is provably excluded."""
    rho = _positive_rho(rho)
    x = descending_vector(x_sorted)
    if x.size != 2 or x[0] == 0.0:
        raise ValueError("expected a nonzero sorted plane vector")
    x1, x2 = float(x[0]), float(x[1])
    thr = math.sqrt(2.0 / rho)
    kappa = x2 / x1
    in_s1 = x1 > thr
    in_s2 = x1 > _s2_threshold(kappa, rho)

    if uniform_value(x) is not None:
        return R2Region("uniform", in_s1, in_s2)
    if x2 == 0.0:
        return R2Region("axis", in_s1, in_s2)

    cross = rho * x1 * x2
    on_cross_boundary = abs(cross - 1.0) <= 1e-12 * (1.0 + cross)
    on_thr = abs(x1 - thr) <= 1e-12 * (1.0 + thr)
    golden = GOLDEN_RATIO_CONJUGATE
    if on_cross_boundary:
        if on_thr:
            return R2Region("I22", in_s1, in_s2)
        if x1 > thr:
            return R2Region("I21", in_s1, in_s2)
        if kappa <= golden:
            return R2Region("I23", in_s1, in_s2)
        return R2Region("I24", in_s1, in_s2)
    if cross < 1.0:
        if on_thr:
            return R2Region("I12", in_s1, in_s2)
        if x1 > thr:
            return R2Region("I11", in_s1, in_s2)
        if kappa <= golden:
            return R2Region("I13", in_s1, in_s2)
        return R2Region("I14", in_s1, in_s2)
    return R2Region("I3", in_s1, in_s2)


def prox_h1_r2(x_sorted, rho: float, tol: Tolerances | None = None) -> ProxSet:
    """Planar prox on the sorted cone: exact direction, then the decision step."""
    tol = tol or DEFAULT_TOLERANCES
    x = descending_vector(x_sorted)
    sol = wstep_h1_r2(x, rho, tol)
    return wrd_assemble(x, rho, sol, tol)


def prox_h1_uniform(alpha: float, n: int, rho: float, tol: Tolerances | None = None) -> ProxSet:
    """Prox at a uniform point: threshold sqrt(2/(rho*sqrt(n))) on the level."""
    tol = tol or DEFAULT_TOLERANCES
    rho = _positive_rho(rho)
    alpha = float(alpha)
    n = int(n)
    if alpha <= 0.0 or n < 1:
        raise ValueError("alpha must be positive and n >= 1")
    f_zero = 0.5 * rho * alpha * alpha * n
    g_diag = math.sqrt(n) - f_zero
    g_axis = 1.0 - 0.5 * rho * alpha * alpha
    return decision_step(g_diag, f_zero, np.full(n, alpha), tol, zero_gap=min(g_diag, g_axis))


def prox_h1_axis(alpha: float, rho: float, tol: Tolerances | None = None) -> ProxSet:
    """Prox at a plane point on the first axis: threshold sqrt(2/rho).

    The one-entry uniform prox, padded with a zero second entry.
    """
    return prox_h1_uniform(alpha, 1, rho, tol).map_points(lambda p: np.append(p, 0.0))


def trim_zeros(x_sorted) -> tuple[np.ndarray, int]:
    """Split off trailing exact zeros; the prox of the prefix is zero-padded
    back by the caller."""
    x = descending_vector(x_sorted)
    nz = int(np.count_nonzero(x))
    return x[:nz].copy(), x.size - nz


def _pav_clamp_scale(v: np.ndarray) -> np.ndarray:
    sums: list[float] = []
    counts: list[int] = []
    for val in v.tolist():
        s, c = val, 1
        while sums and sums[-1] * c < s * counts[-1]:
            s += sums.pop()
            c += counts.pop()
        sums.append(s)
        counts.append(c)
    out = np.empty_like(v)
    pos = 0
    for s, c in zip(sums, counts):
        out[pos : pos + c] = max(s / c, 0.0)
        pos += c
    nrm_sq = float(out @ out)
    if nrm_sq > 1.0:
        out /= math.sqrt(nrm_sq)
    return out


def project_ball_cone(v) -> np.ndarray:
    """Euclidean projection onto {w : w1 >= ... >= wn >= 0, ||w||_2 <= 1}.

    Pool-adjacent-violators gives the nonincreasing fit, clamping the pooled
    blocks at zero lands in the cone, and a radial scale handles the ball;
    the composition is exact because the cone is convex and the ball is
    centered at the origin.
    """
    return _pav_clamp_scale(as_vector(v))


def pgd_wstep(
    x_sorted,
    rho: float,
    w0,
    tol: Tolerances | None = None,
    trace: list | None = None,
) -> WStepSolution:
    """Projected gradient on the relaxed ball-slice direction problem.

    Steps with 1/(2*rho*||x||^2), half the inverse gradient Lipschitz
    constant, so the objective decreases every iteration (checked).  The
    limit is classified as the origin branch below norm 1 - 1e-8 and as a
    sphere direction otherwise; norms far from both raise a diagnostic
    warning because only those two outcomes should occur.
    """
    tol = tol or DEFAULT_TOLERANCES
    rho = _positive_rho(rho)
    x = descending_vector(x_sorted)
    if x[-1] <= 0.0:
        raise ValueError("entries must be strictly positive (trim zeros first)")
    w = project_ball_cone(w0)
    if w.shape != x.shape:
        raise ValueError("dimension mismatch")

    s2 = float(x @ x)
    step = 1.0 / (2.0 * rho * s2)
    ones = np.ones_like(x)

    def relaxed_objective(u: np.ndarray) -> float:
        t = float(x @ u)
        return -0.5 * rho * t * t + float(u.sum())

    h = relaxed_objective(w)
    converged = False
    iterations = 0
    while iterations < tol.max_iter:
        grad = ones - rho * float(x @ w) * x
        w_next = _pav_clamp_scale(w - step * grad)
        h_next = relaxed_objective(w_next)
        if h_next > h + 1e-12 * (1.0 + abs(h)):
            raise ArithmeticError("relaxed objective increased along the iteration")
        if trace is not None:
            trace.append(h_next)
        delta = float(np.linalg.norm(w_next - w))
        w, h = w_next, h_next
        iterations += 1
        if delta <= tol.pgd_tol:
            converged = True
            break

    nu = float(np.linalg.norm(w))
    if _DICHOTOMY_BAND < nu < 1.0 - _DICHOTOMY_BAND:
        warnings.warn(
            f"projected-gradient limit has intermediate norm {nu:.3e}; "
            "expected the origin or a sphere point",
            RuntimeWarning,
        )
    if nu < _SPHERE_BRANCH_NORM:
        return WStepSolution(
            w_star=np.zeros_like(w),
            g_value=0.0,
            certified=converged,
            origin=True,
            limit_norm=nu,
            iterations=iterations,
        )
    w_star = w / nu
    return WStepSolution(
        w_star=w_star,
        g_value=objective_G_h1(w_star, x, rho),
        certified=converged,
        limit_norm=nu,
        iterations=iterations,
    )


def _direction_gap(sol: WStepSolution) -> float:
    return 0.0 if sol.origin else float(sol.g_value)


def prox_h1(
    x,
    rho: float,
    tol: Tolerances | None = None,
    init_fraction: float = 0.5,
) -> ProxSet:
    """Set-valued prox of the l1/l2 ratio at an arbitrary point.

    Dispatch after normalization and zero-trimming: closed forms for the
    uniform (a single entry included) and planar cases; projected gradient
    with a data-aligned interior start for dimension three and up.
    """
    tol = tol or DEFAULT_TOLERANCES
    rho = _positive_rho(rho)
    if not 0.25 <= init_fraction <= 0.75:
        raise ValueError("init_fraction must lie in [0.25, 0.75]")
    xs, perm = normalize(x)
    if xs[0] == 0.0:
        return ProxSet(True, [], g_value=1.0)
    head, _removed = trim_zeros(xs)
    m = head.size

    if uniform_value(head) is not None:
        ps = prox_h1_uniform(head[0], m, rho, tol)
    elif m == 2:
        ps = prox_h1_r2(head, rho, tol)
    else:
        # The origin is always a stationary point of the relaxed problem, so
        # a start inside its capture basin can miss a sphere minimizer.  A
        # second run from the sphere end of the data ray plus the bare first
        # axis are extra feasible candidates; keeping the lowest direction
        # objective can only improve the decision step.
        nrm = float(np.linalg.norm(head))
        best = pgd_wstep(head, rho, project_ball_cone(init_fraction * head / nrm), tol)
        e1 = np.zeros(m)
        e1[0] = 1.0
        candidates = (
            pgd_wstep(head, rho, head / nrm, tol),
            WStepSolution(w_star=e1, g_value=objective_G_h1(e1, head, rho)),
        )
        for cand in candidates:
            if _direction_gap(cand) < _direction_gap(best):
                best = cand
        ps = wrd_assemble(head, rho, best, tol)

    n = xs.size

    def pad_and_restore(p: np.ndarray) -> np.ndarray:
        full = np.zeros(n)
        full[: p.size] = p
        return perm.invert(full)

    return ps.map_points(pad_and_restore)


def sphere_qp_lambda(x_sorted, rho: float, tol: Tolerances | None = None) -> tuple[float, np.ndarray]:
    """Diagnostic: stationary multiplier and direction of the full-sphere
    relaxation of the direction problem.

    The multiplier shift q = lambda - rho*||x||^2 is the unique positive
    root of a quartic (its coefficient signs change exactly once), found by
    doubling to bracket, bisection, and a short Newton polish.  Every entry
    of the returned unit direction is negative, which is why the full-sphere
    relaxation cannot solve the nonnegative direction problem.
    """
    tol = tol or DEFAULT_TOLERANCES
    rho = _positive_rho(rho)
    x = descending_vector(x_sorted)
    if x[0] == 0.0:
        raise ValueError("zero vector")
    n = x.size
    s1 = float(x.sum())
    s2 = float(x @ x)

    c3 = 2.0 * rho * s2
    c2 = rho * rho * s2 * s2 - n
    c1 = -2.0 * rho * s1 * s1
    c0 = -rho * rho * s1 * s1 * s2

    def quartic(q: float) -> float:
        return (((q + c3) * q + c2) * q + c1) * q + c0

    def quartic_prime(q: float) -> float:
        return ((4.0 * q + 3.0 * c3) * q + 2.0 * c2) * q + c1

    hi = 1.0
    for _ in range(200):
        if quartic(hi) > 0.0:
            break
        hi *= 2.0
    lo = 0.0
    while hi - lo > tol.root_tol * (1.0 + hi):
        mid = 0.5 * (lo + hi)
        if quartic(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    q = 0.5 * (lo + hi)
    for _ in range(3):
        dq = quartic_prime(q)
        if dq == 0.0:
            break
        q_new = q - quartic(q) / dq
        if not lo <= q_new <= hi:
            break
        q = q_new

    lam = q + rho * s2
    w = -(np.ones(n) + (rho * s1 / q) * x) / lam
    return lam, w


def curves_intersection_kappa(root_tol: float = 1e-12) -> float:
    """Entry ratio at which the two boundary curves of the guaranteed-nonzero
    planar region meet; the unique root of an increasing quintic on [0, 1]."""

    def poly(k: float) -> float:
        return ((k * k + 3.0) * k * k + 2.0) * k - 2.0

    lo, hi = 0.0, 1.0
    while hi - lo > root_tol:
        mid = 0.5 * (lo + hi)
        if poly(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
