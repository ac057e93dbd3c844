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
  vector pass evaluates F at every breakpoint from prefix sums and keeps
  the pieces where F turns nonnegative or, with both ends negative, rises
  from the lower end and falls to the upper one; on each, one Newton
  descent on the convex -F from the lower end finds the rising root or
  shows that there is none (:func:`wstep_h1`).  A tied top block makes F
  vanish at the top breakpoint with the zero direction; that root never
  counts, and the top piece's real root has a closed form.
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


#: bound on the steps of :func:`_descend`, which stops well before it; only
#: where rounding makes F noisy near the root (near-uniform heads) do the
#: last steps crawl by an ulp or two: at most 73 steps on 29,000 sorted heads
_NEWTON_CAP = 100


def _descend(fd, t: float, stop: float, u, v) -> float:
    """Root of a convex F nearest ``t`` toward ``stop``, where F(t) > 0, or
    ``stop`` where F has none before it; ``fd(t, u, v)`` gives F and F'.

    Newton's method from t.  The tangent at an iterate lies below the convex
    F.  So if it does not head toward ``stop`` (F' of the wrong sign, or
    zero), or its zero lies at or past ``stop``, F stays positive all the
    way to ``stop``: there is no root.  Otherwise, for a root s, the chord
    bound gives |F'(t)| >= F(t)/|t - s|, so the Newton point t - F/F' lies
    between t and s: the iterates move monotonically to the nearest root
    (Ortega and Rheinboldt, *Iterative Solution of Nonlinear Equations in
    Several Variables*, 1970, 13.3).  The descent stops at the first iterate
    with F <= 0, or whose Newton point does not move in floats.  Past
    ``_NEWTON_CAP`` steps, bisection stands in: on F' for F's minimum
    between the iterate and ``stop``, then on F between that minimum and
    the iterate, if F is negative there.
    """
    down = stop < t
    for _ in range(_NEWTON_CAP):
        f, d = fd(t, u, v)
        if f <= 0.0:
            return t
        if not (d > 0.0 if down else d < 0.0):
            return stop
        new = t - f / d
        if new == t:
            return t
        if new <= stop if down else new >= stop:
            return stop
        t = new
    lo, hi = (stop, t) if down else (t, stop)
    t0 = _bisect(lambda s: fd(s, u, v)[1], lo, hi, _ROOT_TOL)
    if fd(t0, u, v)[0] >= 0.0:
        return stop
    if down:
        return _bisect(lambda s: fd(s, u, v)[0], t0, t, _ROOT_TOL)
    return _bisect(lambda s: -fd(s, u, v)[0], t, t0, _ROOT_TOL)


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


#: floor of N(t)^2 under the square root: where cancellation in the prefix
#: sums rounds a small N^2 to zero or below, N stays positive and F' finite
_N2_FLOOR = 1e-200


def _piece(t: float, r: float, sums: tuple[float, float, int]) -> tuple[float, float]:
    """-F and -F' at t on the support piece of size k, for sums = (A, B, k)
    with A and B the sums of y_i^2 and y_i over the top k entries: there
    <y, (y - t)_+> = A - t B and ||(y - t)_+||^2 = A - 2 t B + k t^2.  The
    negated F is convex on the piece, as :func:`_descend` needs."""
    A, B, k = sums
    q = A - t * B
    n = math.sqrt(max(q - t * (B - k * t), _N2_FLOOR))
    return n - r * t * q, -(r * (q - t * B) + (B - k * t) / n)


def _roots(y: np.ndarray, r: float) -> list[tuple[int, float]]:
    """Every rising root t of F with its support size k, in increasing k,
    for the breakpoints y (ending in 0) and r = rho*x1^2: the screen, then
    one descent per kept piece from its lower end (see :func:`wstep_h1`)."""
    m = y.size - 1
    A, B = (y * y).cumsum(), y.cumsum()  # A[k-1], B[k-1]: over the top k
    roots = []

    j = 1 if y[1] < 1.0 else int(np.count_nonzero(y == 1.0))
    if j > 1 and y[j] <= 1.0 / (r * math.sqrt(j)) < 1.0:
        roots.append((j, 1.0 / (r * math.sqrt(j))))

    # F at the breakpoints t[i] = y_{j+1+i}, i = 0..m-j, on the piece j + i
    # below each; the piece j + 1 + p spans [t[p + 1], t[p]]
    t = y[j:]
    k = np.arange(j, m + 1.0)
    Ak, Bk = A[j - 1 : m], B[j - 1 : m]
    q = Ak - t * Bk
    n = np.sqrt(np.maximum(q - t * (Bk - k * t), _N2_FLOOR))
    f = r * t * q - n
    neg = f < 0.0
    rise = neg[1:] & ~neg[:-1]
    both = neg[1:] & neg[:-1]
    both &= 2.0 * r * t[:-1] * np.sqrt(Ak[1:]) > 1.0
    if both.any():
        # a maximum inside a piece needs F' > 0 at its lower end and < 0 at
        # its upper one
        a, b, kp, bp = t[1:], t[:-1], k[1:], Bk[1:]
        both &= r * (q[1:] - a * bp) + (bp - kp * a) / n[1:] > 0.0
        both &= r * (q[:-1] - b * bp) + (bp - kp * b) / n[:-1] < 0.0
    for p in (rise | both).nonzero()[0].tolist():
        kk, lo, hi = j + 1 + p, float(t[p + 1]), float(t[p])
        root = _descend(_piece, lo, hi, r, (float(Ak[p + 1]), float(Bk[p + 1]), kk))
        if rise[p] or root < hi:  # a rising root may be hi, where F(hi) = 0
            roots.append((kk, root))
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

    On the support piece [y_{k+1}, y_k] (prefix sums A = sum y_i^2 and
    B = sum y_i over the top k) this is the quartic
    (r t (A - t B))^2 = A - 2 t B + k t^2 restricted to A - t B > 0, where
    the other factor r t (A - t B) + ||.|| is positive.  F is continuous,
    and on a piece a concave quadratic minus a convex norm, so concave with
    at most two roots.  Only a rising root, where F turns nonnegative as t
    grows, can win: along w(t) = (y - t)_+/N on piece k, with
    N = ||(y - t)_+||, L1 = ||(y - t)_+||_1 and P = A - t B = N^2 + t L1,
    G = -(r/2) P^2/N^2 + L1/N, and dN^2/dt = -2 L1, dL1/dt = -k give
    dG/dt = (k N^2 - L1^2)/N^4 * F, where k N^2 >= L1^2 by Cauchy-Schwarz
    (equal only on the tied top piece k = j below, whose root is rising).
    So G falls where F < 0 and rises where F > 0.  A falling root is a
    strict local maximum of G along the path, above the next candidate up:
    the next rising root, which is scored; for j = 1 the first axis, the
    direction at t = y_2; for j > 1 with r sqrt(j) <= 1 the block direction
    e_J/sqrt(j), whose G exceeds the first axis's by
    (sqrt(j) - 1)(1 - r (sqrt(j) + 1)/2) >= 0.  It never wins or ties.

    Cauchy-Schwarz also gives t >= 1/(r sqrt(A)), so a root below y_k needs
    r y_k sqrt(A) > 1; when 2 rho x_2 ||x|| <= 1 no piece passes and only
    the first axis is scored.  Otherwise one vector pass evaluates F at all
    breakpoints from the prefix sums; a piece is solved only if F is
    negative at its lower end and nonnegative at its upper one, or if both
    ends are negative, 2 r y_k sqrt(A) > 1, F' > 0 at the lower end and
    F' < 0 at the upper one.  Each takes one Newton descent
    (:func:`_descend`) on the convex -F from its lower end; one that ends at
    the upper end of a piece with both ends negative certifies, with no
    width and no bracket, that the piece holds no root.

    A top block y_1 = ... = y_j = 1 makes F(1) = 0 with the zero direction;
    that root never counts.  On piece j, F = (1 - t)(r j t - sqrt(j)), so
    its one root t = 1/(r sqrt(j)) is taken in closed form.

    Every root is scored by :func:`objective_G_h1` on its own unit
    direction, together with the first axis (the k = 1 piece); the first
    lowest objective wins and the other scored directions are returned as
    ``rivals``, so the decision step keeps every direction that ties.

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
    y = np.zeros(m + 1)  # the breakpoints y_1 >= ... >= y_m > y_{m+1} = 0
    np.divide(x, x1, out=y[:m])
    # a root on the piece k >= 2 needs r y_k sqrt(A_k) > 1, and that is at
    # most rho x_2 ||x||; at or below 1/2 (a factor 2 of margin) no piece can
    # hold one.  Where r = rho x1^2 overflows the screen is skipped: every
    # root then lies below about 1/r, which rounds to 0, so the soft
    # threshold's t -> 0 limit, the full support y, stands in for them
    r = rho * x1 * x1
    live = m > 1 and r < math.inf and 2.0 * rho * float(x[1]) * math.sqrt(_dot(x, x)) > 1.0
    roots = _roots(y, r) if live else []
    if r == math.inf and m > 1 and y[1] > 0.0:
        roots = [(m, 0.0)]
    # the first axis: <x, e1> = x1 and ||e1||_1 = 1 exactly
    e1 = np.zeros(m)
    e1[0] = 1.0
    scored = [(e1, -0.5 * rho * x1 * x1 + 1.0)]
    for kk, tk in roots:
        w = np.zeros(m)
        w[:kk] = y[:kk] - tk
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
