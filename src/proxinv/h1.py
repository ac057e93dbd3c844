"""Proximity operator of the l1/l2 ratio.

The direction problem mixes a rank-1 concave quadratic with a linear term,
so the negative-eigenvalue trick used for the squared ratio does not apply:
the full-sphere stationary direction has all entries negative
(``oracle.sphere_qp_lambda`` exposes it as a diagnostic).  Instead:

* uniform and single-axis inputs have threshold closed forms;
* in the plane, the angular derivative of the direction objective factors
  into a positive function times a strictly convex one, positive at the
  arc's end; Newton's method on that factor from the end falls
  monotonically to its largest root (a tangent of a convex function stays
  below it), or shows by a nonpositive slope, or a step past 0, that there
  is none, and finds the exact angle;
* in general dimension every direction that can beat the origin is a soft
  threshold (x - tau)_+ of the sorted input.  Its threshold is a root of
  F(t) = r t <y, (y - t)_+> - ||(y - t)_+|| (y = x/x1, r = rho x1^2), which
  is continuous and, on each support piece between two breakpoints, a
  concave quadratic minus a convex norm: concave, with at most two roots.
  The direction objective's slope along the threshold path has the sign of
  F, so only a rising root (F turning nonnegative as t grows) can win.  One
  pass evaluates F at every breakpoint from running sums of the gaps
  between breakpoints, in which nothing cancels, and one Newton descent on
  the convex -F solves each piece where F may turn nonnegative
  (:func:`wstep_h1`); a tied top block's root has a closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    _ROOT_TOL,
    ProxSet,
    Tolerances,
    _dot,
    _objective_G_h1,
    _plane_vector,
    _positive_rho,
    descending_vector,
    uniform_value,
)
from .wrd import WStepSolution, _uniform_args, decision_step, prox, wrd_assemble
# unused here: perfbench/tracing.TARGETS wraps these names on h1
from .core import normalize, trim_zeros  # noqa: F401
from .oracle import pgd_wstep, project_ball_cone  # noqa: F401

#: kappa below which the first axis is stationary for the planar problem
GOLDEN_RATIO_CONJUGATE = (np.sqrt(5.0) - 1.0) / 2.0


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
    x = _plane_vector(x_sorted)
    kappa = float(x[1] / x[0])
    alpha = math.atan2(2.0 * kappa, 1.0 - kappa * kappa)
    return R2Geometry(kappa=kappa, alpha_angle=alpha)


def L_eval(theta: float, geom: R2Geometry, rho: float, norm2_sq: float) -> float:
    """Convex factor of the angular derivative of the planar objective."""
    rho = _positive_rho(rho)
    half = 0.5 * geom.alpha_angle
    if theta < -1e-12 or theta > half + 1e-12:
        raise ValueError("theta outside [0, alpha/2]")
    return _L(theta, geom, rho, norm2_sq)


def _L(theta: float, geom: R2Geometry, rho: float, norm2_sq: float) -> float:
    return _factor(theta, geom.alpha_angle, _offset(rho, norm2_sq))[0]


def _L_prime(theta: float, geom: R2Geometry) -> float:
    return _factor(theta, geom.alpha_angle, 0.0)[1]


def _offset(rho: float, norm2_sq: float) -> float:
    """The factor's constant term 2 sqrt(2)/(rho ||x||^2)."""
    q = rho * norm2_sq
    # where q underflows to 0 the term is +inf: the factor is positive on the
    # whole arc, and the first axis is the planar direction
    return 2.0 * math.sqrt(2.0) / q if q else math.inf


def _factor(t: float, a: float, c: float) -> tuple[float, float]:
    """L and L' at t, for alpha = ``a`` and the constant term ``c``."""
    u, v = t + 0.25 * math.pi, 2.0 * t - a
    cu, sv = math.cos(u), math.sin(v)
    return sv / cu + c, (2.0 * math.cos(v) * cu + sv * math.sin(u)) / (cu * cu)


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


#: bound on the steps of :func:`_descend`, which stops well before it: at
#: most 18 evaluations of F in a scan descent on 29,005 sorted heads of seven
#: kinds, and 14 on 2,200 near-uniform ones, n = 3..3000
_NEWTON_CAP = 100


def _descend(fd, t: float, stop: float, u, v) -> float:
    """Root of a convex F nearest below ``t``, where F(t) > 0, or ``stop``
    where F has none in (stop, t]; ``fd(t, u, v)`` gives F and F'.

    Newton's method from t.  The tangent at an iterate lies below the convex
    F.  So if it does not head down (F' <= 0), or its zero lies at or below
    ``stop``, F stays positive down to ``stop``: there is no root.
    Otherwise, for a root s, the chord bound gives F'(t) >= F(t)/(t - s), so
    the Newton point t - F/F' lies between s and t: the iterates fall
    monotonically to the nearest root (Ortega and Rheinboldt, *Iterative
    Solution of Nonlinear Equations in Several Variables*, 1970, 13.3).  The
    descent stops at the first iterate with F <= 0, or whose Newton point
    does not move in floats.  Past ``_NEWTON_CAP`` steps, bisection stands
    in: on F' for F's minimum above ``stop``, then, if F is negative there,
    on F between that minimum and the iterate.
    """
    for _ in range(_NEWTON_CAP):
        f, d = fd(t, u, v)
        if f <= 0.0:
            return t
        if not d > 0.0:
            return stop
        new = t - f / d
        if new == t:
            return t
        if new <= stop:
            return stop
        t = new
    t0 = _bisect(lambda s: fd(s, u, v)[1], stop, t, _ROOT_TOL)
    if fd(t0, u, v)[0] >= 0.0:
        return stop
    return _bisect(lambda s: fd(s, u, v)[0], t0, t, _ROOT_TOL)


def wstep_h1_r2(x_sorted, rho: float) -> WStepSolution:
    """Exact planar direction via the convex factor of the angular derivative.

    On the arc [0, half], half = alpha/2, the factor
    L(theta) = sin(2 theta - alpha)/cos(theta + pi/4) + c with
    c = 2 sqrt(2)/(rho ||x||^2) is strictly convex, with L(half) = c > 0 and
    L(0) = c (1 - rho x1 x2), so it has at most two roots.  The case split
    on the product rho*x1*x2 and on kappa decides whether the first axis,
    the unique interior root, or the better of the axis and the largest
    root is optimal.

    The largest root r is Newton's descent on L from theta = half toward 0
    (:func:`_descend`, which proves it).  Where the descent shows that L has
    no root on (0, half], the first axis is the direction; where
    rho*x1*x2 > 1, L(0) < 0, and that happens only when rounding hides it,
    with the root within rounding of 0.
    """
    rho = _positive_rho(rho)
    x = _plane_vector(x_sorted)
    x1, x2 = float(x[0]), float(x[1])
    kappa = x2 / x1
    a = math.atan2(2.0 * kappa, 1.0 - kappa * kappa)
    c = _offset(rho, x1 * x1 + x2 * x2)
    cross = rho * x1 * x2

    if cross <= 1.0 and kappa <= GOLDEN_RATIO_CONJUGATE:
        theta_star = 0.0
    else:
        theta_star = _descend(_factor, 0.5 * a, 0.0, a, c)
        # for cross > 1 the unique interior root is the global angle; else
        # it must beat the first axis
        if cross <= 1.0 and theta_star > 0.0:
            w0 = np.array([1.0, 0.0])
            w1 = np.array([math.cos(theta_star), math.sin(theta_star)])
            if _objective_G_h1(w0, x, rho) <= _objective_G_h1(w1, x, rho):
                theta_star = 0.0

    w = np.array([math.cos(theta_star), math.sin(theta_star)])
    return WStepSolution(w_star=w, g_value=_objective_G_h1(w, x, rho))


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
    if not (on_cross_boundary or cross < 1.0):
        return R2Region("I3", in_s1, in_s2)
    # I1 below the cross boundary, I2 on it; the same four cases in each
    case = 2 if on_thr else 1 if x1 > thr else 3 if kappa <= GOLDEN_RATIO_CONJUGATE else 4
    return R2Region(f"I{2 if on_cross_boundary else 1}{case}", in_s1, in_s2)


def prox_h1_r2(x_sorted, rho: float, tol: Tolerances | None = None) -> ProxSet:
    """Planar prox on the sorted cone: exact direction, then the decision step."""
    return wrd_assemble(x_sorted, rho, wstep_h1_r2(x_sorted, rho), tol)


def prox_h1_uniform(alpha: float, n: int, rho: float, tol: Tolerances | None = None) -> ProxSet:
    """Prox at a uniform point: threshold sqrt(2/(rho*sqrt(n))) on the level.

    A unit w >= 0 has the gap s - (rho alpha^2/2) s^2, s = ||w||_1 in [1, sqrt(n)],
    least at an end: the first axis (point alpha*e1) or the diagonal (alpha*e).
    The decision step takes the lesser gap with its point.  The axis's gap is
    the lesser only above 0.58, so it ties only at a large ``tie_tol``.
    """
    alpha, n, rho, tol = _uniform_args(alpha, n, rho, tol)
    f_zero = 0.5 * rho * alpha * alpha * n
    g_diag = math.sqrt(n) - f_zero
    g_axis = 1.0 - 0.5 * rho * alpha * alpha
    if g_axis < g_diag:
        return decision_step(g_axis, f_zero, np.r_[alpha, np.zeros(n - 1)], tol)
    return decision_step(g_diag, f_zero, np.full(n, alpha), tol)


def prox_h1_axis(alpha: float, rho: float, tol: Tolerances | None = None) -> ProxSet:
    """Prox at a plane point on the first axis: threshold sqrt(2/rho).

    The one-entry uniform prox, padded with a zero second entry.
    """
    return prox_h1_uniform(alpha, 1, rho, tol).map_points(lambda p: np.append(p, 0.0))


def _piece(s: float, r: float, sums: tuple[float, float, float, int]) -> tuple[float, float]:
    """-F, convex in s as :func:`_descend` needs, and its slope F' = dF/dt
    at t = y_k - s on the support piece k, for sums = (y_k, N^2_{k-1},
    L_{k-1}, k) (see :func:`wstep_h1`); <y, (y - t)_+> = N^2 + t L1."""
    yk, n2, L, k = sums
    L1 = L + k * s
    n2 += s * (L + L1)
    t = yk - s
    n = math.sqrt(n2)
    return n - r * t * (n2 + t * L1), r * (n2 - k * t * t) + L1 / n


#: longest head whose breakpoint scan runs in Python floats.  The thirty-odd
#: numpy calls of :func:`_scan_vector` cost 24-30 us at any short head on a
#: 2-vCPU Xeon VM, the loop of :func:`_scan_floats` about 0.7 us a breakpoint
#: (2.7 us at m = 3, 7.4 us at m = 10, without descents); they meet near
#: m = 40, the cut leaves a margin, and at m = 100 the loop is 2x slower
_SHORT_SCAN = 32


def _roots(x: np.ndarray, r: float) -> list[tuple[int, float]]:
    """Every rising root of F as (k, s), t = y_k - s on the support piece k,
    in increasing k, for the head x and r = rho*x1^2 (see :func:`wstep_h1`).
    Heads of at most ``_SHORT_SCAN`` entries take :func:`_scan_floats`,
    longer ones :func:`_scan_vector`; the two give the same bits."""
    x1 = float(x[0])
    j = 1 if x[1] < x1 else int(np.count_nonzero(x == x1))
    roots = []
    t = 1.0 / (r * math.sqrt(j))  # the tied block's closed-form root
    if j > 1 and (x[j] / x1 if j < x.size else 0.0) <= t < 1.0:
        roots.append((j, 1.0 - t))
    scan = _scan_floats if x.size <= _SHORT_SCAN else _scan_vector
    return roots + scan(x, r, j)


def _scan_vector(x: np.ndarray, r: float, j: int) -> list[tuple[int, float]]:
    """The rising roots on the pieces below a top block of j entries, by one
    vector pass over the breakpoints."""
    m, x1 = x.size, float(x[0])
    # at the breakpoints t[i] = y_{k+1}, k = j + i = j..m (y_{m+1} = 0), on
    # the piece k above each: the gaps g_k = (x_k - x_{k+1})/x1, L_k and
    # N^2_k = N^2_{k-1} + g_k (L_{k-1} + L_k), from L_{j-1} = N^2_{j-1} = 0
    z = np.zeros(m + 2 - j)  # x_j, ..., x_m, 0
    z[:-1] = x[j - 1 :]
    t, g = z[1:] / x1, (z[:-1] - z[1:]) / x1
    k = np.arange(j, m + 1.0)
    L = (k * g).cumsum()
    n2 = (g * np.concatenate((L[:1], L[1:] + L[:-1]))).cumsum()
    q = n2 + t * L
    n = np.sqrt(n2)
    neg = r * t * q < n
    # the piece j + 1 + p spans [t[p + 1], t[p]]
    rise = neg[1:] & ~neg[:-1]
    both = neg[1:] & neg[:-1]
    if both.any():
        # a maximum inside a piece needs 2 r y_k sqrt(A) > 1 (A the sum of
        # y_i^2 over its top k), F' > 0 at its lower end and F' < 0 at its
        # upper one.  F' = r (N^2 - k t^2) + L/N at each breakpoint on the
        # piece above it; on the piece below, one r t^2 less
        kt = k * t
        d = r * (n2 - kt * t) + L / n
        both &= 2.0 * r * t[:-1] * np.sqrt(q[1:] + t[1:] * (L[1:] + kt[1:])) > 1.0
        both &= d[1:] > 0.0
        both &= d[:-1] < r * t[:-1] * t[:-1]
    roots = []
    for p in (rise | both).nonzero()[0].tolist():
        sums = (float(t[p]), float(n2[p]), float(L[p]), j + 1 + p)
        s = _descend(_piece, float(g[p + 1]), 0.0, r, sums)
        if rise[p] or s > 0.0:  # a rising root may be s = 0, where F(y_k) = 0
            roots.append((j + 1 + p, s))
    return roots


def _scan_floats(x: np.ndarray, r: float, j: int) -> list[tuple[int, float]]:
    """:func:`_scan_vector` in Python floats, one breakpoint at a time: the
    running sums follow numpy's sequential ``cumsum``, and every expression
    is the vector pass's in the same order, each step a correctly rounded
    +, -, *, / or sqrt, so the roots and the descents are the same bits."""
    xs = x.tolist()
    xs.append(0.0)
    x1 = xs[0]
    sqrt = math.sqrt
    roots = []
    # at each breakpoint t = y_{k+1}, k = j..m, the lower end of the piece
    # k = [t, hi]; L and N^2 are 0 on the tied block, whose piece is skipped
    up, L, n2 = x1, 0.0, 0.0
    for k in range(j, len(xs)):
        low = xs[k]
        g = (up - low) / x1
        Lp, n2p = L, n2
        L = Lp + k * g
        n2 = n2p + g * (L + Lp)
        t = low / x1
        n = sqrt(n2)
        q = n2 + t * L
        neg = r * t * q < n
        if neg and k > j and (
            not neg_hi
            or (
                2.0 * r * hi * sqrt(q + t * (L + k * t)) > 1.0
                and r * (n2 - k * t * t) + L / n > 0.0
                and r * (n2p - (k - 1) * hi * hi) + Lp / n_hi < r * hi * hi
            )
        ):
            s = _descend(_piece, g, 0.0, r, (hi, n2p, Lp, k))
            if not neg_hi or s > 0.0:  # a rising root may be s = 0, where F(y_k) = 0
                roots.append((k, s))
        up, hi, n_hi, neg_hi = low, t, n, neg
    return roots


def wstep_h1(x_sorted, rho: float) -> WStepSolution:
    """Exact direction by a KKT scan over support sizes.

    On the sorted positive entries x, a minimizer of
    G(w) = -(rho/2)<x,w>^2 + ||w||_1 over the nonnegative unit sphere with
    G < ||w||_1/2 has a positive sphere multiplier, so w is proportional to
    the soft threshold (x - tau)_+ with tau = 1/(rho <x,w>); any other
    minimizer has G >= 1/2, where the origin wins the decision step anyway.
    With y = x/x1, r = rho*x1^2 and t = tau/x1, the self-consistency
    condition is a root of

        F(t) = r t <y, (y - t)_+> - ||(y - t)_+||.

    On the support piece [y_{k+1}, y_k], with N = ||(y - t)_+||,
    L1 = ||(y - t)_+||_1 and q = <y, (y - t)_+> = N^2 + t L1, this is the
    quartic (r t q)^2 = N^2 restricted to q > 0.  F is continuous, and on a
    piece a concave quadratic minus a convex norm, so concave with at most
    two roots.  Only a rising root, where F turns nonnegative as t grows,
    can win: along w(t) = (y - t)_+/N on piece k, G = -(r/2) q^2/N^2 + L1/N,
    and dN^2/dt = -2 L1, dL1/dt = -k give
    dG/dt = (k N^2 - L1^2)/N^4 * F, where k N^2 >= L1^2 by Cauchy-Schwarz
    (equal only on the tied top piece k = j below, whose root is rising).
    So G falls where F < 0 and rises where F > 0.  A falling root is a
    strict local maximum of G along the path, above the next candidate up:
    the next rising root, which is scored; for j = 1 the first axis, the
    direction at t = y_2; for j > 1 with r sqrt(j) <= 1 the block direction
    e_J/sqrt(j), whose G exceeds the first axis's by
    (sqrt(j) - 1)(1 - r (sqrt(j) + 1)/2) >= 0.  It never wins or ties.

    Every sum comes from the gaps g_k = y_k - y_{k+1} = (x_k - x_{k+1})/x1
    (y_{m+1} = 0): at t = y_{k+1}, L_k = L_{k-1} + k g_k and
    N^2_k = N^2_{k-1} + g_k (L_{k-1} + L_k); inside piece k, at t = y_k - s,
    the same with s in [0, g_k] for g_k.  Every term is nonnegative, so
    each sum has a small relative error (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2nd ed., 2002, ch. 4), where prefix sums of y and
    y^2 (N^2 = A - 2 t B + k t^2) cancel on near-uniform heads.  L and N^2
    are 0 on the tied block and N^2 >= N^2_j = j g_j^2 > 0 below it, so N
    needs no floor.  Cauchy-Schwarz gives t >= 1/(r sqrt(A)), with
    A = q + t (L1 + k t) the sum of y_i^2 over the top k, so a root below
    y_k needs r y_k sqrt(A) > 1; when 2 rho x_2 ||x|| <= 1 no piece passes
    and only the first axis is scored.  Otherwise one pass evaluates F at
    all breakpoints: a loop in Python floats on heads of at most
    ``_SHORT_SCAN`` entries, where numpy's per-call cost would dominate, a
    vector pass on longer ones; both form the same expressions in the same
    order, so they give the same bits.  A piece is solved only if F is
    negative at its lower end and nonnegative at its upper one, or if both
    ends are negative, 2 r y_k sqrt(A) > 1 and F' = r (N^2 - k t^2) + L1/N
    is positive at the lower end and negative at the upper one.  Each takes
    one Newton descent (:func:`_descend`) on the convex -F in s, from
    s = g_k toward 0; one that ends at s = 0 on a piece with both ends
    negative certifies, with no width and no bracket, that it has no root.

    A top block y_1 = ... = y_j = 1 makes F(1) = 0 with the zero direction;
    that root never counts.  On piece j, F = (1 - t)(r j t - sqrt(j)), so
    its one root t = 1/(r sqrt(j)) is taken in closed form.

    Every root is scored by :func:`objective_G_h1` on its own unit
    direction, y_i - t = (x_i - x_k)/x1 + s, together with the first axis
    (the k = 1 piece).  A root at its piece's upper end (s = 0) has the
    direction of support k - 1; where that is e1 (k = 2) or the tied
    block's (k = j + 1, after its closed-form root), it is dropped, so no
    direction is listed twice.  The first lowest objective wins and the
    other scored directions are returned as ``rivals``, so the decision
    step keeps every direction that ties.

    This public form checks ``rho`` and the sorted positive head, then runs
    :func:`_wstep_h1`; :func:`prox_h1` calls that kernel directly on the
    head that :func:`~proxinv.core.normalize` has already validated.
    """
    rho = _positive_rho(rho)
    x = descending_vector(x_sorted)
    if x[-1] <= 0.0:
        raise ValueError("entries must be strictly positive (trim zeros first)")
    return _wstep_h1(x, rho)


def _wstep_h1(x: np.ndarray, rho: float) -> WStepSolution:
    """:func:`wstep_h1` on trusted input, checked nowhere here: a descending
    float array of positive finite entries and a positive finite ``rho``."""
    m = x.size
    # the objective is unchanged under x -> x/x1, rho -> rho*x1^2
    x1 = float(x[0])
    # a root on the piece k >= 2 needs r y_k sqrt(A_k) > 1, and that is at
    # most rho x_2 ||x||; at or below 1/2 (a factor 2 of margin) no piece can
    # hold one.  Where r = rho x1^2 overflows the screen is skipped: every
    # root then lies below about 1/r, which rounds to 0, so the soft
    # threshold's t -> 0 limit, the full support (s = y_m), stands in
    r = rho * x1 * x1
    live = m > 1 and r < math.inf and 2.0 * rho * float(x[1]) * math.sqrt(_dot(x, x)) > 1.0
    roots = _roots(x, r) if live else []
    if r == math.inf and m > 1 and x[1] / x1 > 0.0:
        roots = [(m, x[-1] / x1)]
    # the first axis: <x, e1> = x1 and ||e1||_1 = 1 exactly
    e1 = np.zeros(m)
    e1[0] = 1.0
    scored = [(e1, -0.5 * rho * x1 * x1 + 1.0)]
    last = 1  # the support of the last scored direction
    for kk, s in roots:
        # a root at its piece's upper end y_k (s = 0) has the direction of
        # support k - 1; on the top block that is e1 (k = 2) or the tied
        # block's (k = j + 1), scored already when it is the last one scored
        if s == 0.0 and x[kk - 2] == x1 and last == kk - 1:
            continue
        last = kk
        w = np.zeros(m)
        w[:kk] = (x[:kk] - x[kk - 1]) / x1 + s
        w /= math.sqrt(_dot(w, w))
        scored.append((w, _objective_G_h1(w, x, rho)))
    best = min(range(len(scored)), key=lambda i: scored[i][1])
    w, g = scored.pop(best)
    return WStepSolution(w_star=w, g_value=g, rivals=tuple(scored))


def prox_h1(x, rho: float, tol: Tolerances | None = None) -> ProxSet:
    """Set-valued prox of the l1/l2 ratio at an arbitrary point.

    :func:`~proxinv.wrd.prox` with :func:`prox_h1_uniform`, :func:`wstep_h1_r2`
    on the two-entry heads the driver splits off, and on longer ones the
    trusted :func:`_wstep_h1`, since the driver has validated the head already.
    Every step is exact and finite, so ``tol.tie_tol`` is the only setting.
    """
    return prox(x, rho, tol, wstep_h1_r2, _wstep_h1, prox_h1_uniform)


def curves_intersection_kappa() -> float:
    """Entry ratio at which the two boundary curves of the guaranteed-nonzero
    planar region meet; the unique root of an increasing quintic on [0, 1]."""

    def poly(k: float) -> float:
        return ((k * k + 3.0) * k * k + 2.0) * k - 2.0

    return _bisect(poly, 0.0, 1.0, _ROOT_TOL)
