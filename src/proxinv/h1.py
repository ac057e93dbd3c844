"""Proximity operator of the l1/l2 ratio.

The direction problem mixes a rank-1 concave quadratic with a linear term,
so the negative-eigenvalue trick used for the squared ratio does not apply:
the full-sphere stationary direction has all entries negative
(:func:`sphere_qp_lambda` exposes it as a diagnostic).  Instead:

* uniform and single-axis inputs have threshold closed forms;
* in the plane, the angular derivative of the direction objective factors
  into a positive function times a strictly convex one, so safeguarded
  bisection on that factor (and on its derivative) finds the exact angle;
* in general dimension every direction that can beat the origin is a soft
  threshold (x - tau)_+ of the sorted input.  Its threshold is a root of
  F(t) = r t <y, (y - t)_+> - ||(y - t)_+|| (y = x/x1, r = rho x1^2), which
  is continuous and, on each support piece between two breakpoints, a
  concave quadratic minus a convex norm: concave, with at most two roots.
  One vector pass evaluates F at every breakpoint from prefix sums and
  keeps the pieces where F changes sign, or where both ends are negative
  but the end tangents reach 0 (the two-root case); each kept piece is
  solved by a bracketed scalar Newton search, and the roots are scored with
  the first axis (:func:`wstep_h1`).  A tied top block makes F vanish at
  the top breakpoint with the zero direction; that root never counts, and
  the top piece's real root has a closed form.

Projected gradient on the relaxed unit-ball slice of the descending cone
(:func:`pgd_wstep` with :func:`project_ball_cone`) is kept as a reference
solver; the prox itself does not use it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    ProxSet,
    Tolerances,
    _dot,
    _objective_G_h1,
    _plane_vector,
    _positive_rho,
    as_vector,
    descending_vector,
    normalize,  # unused here; perfbench/tracing.TARGETS wraps h1.normalize
    objective_G_h1,
    uniform_value,
)
from .wrd import WStepSolution, _uniform_args, decision_step, prox, wrd_assemble

#: kappa below which the first axis is stationary for the planar problem
GOLDEN_RATIO_CONJUGATE = (np.sqrt(5.0) - 1.0) / 2.0

_SPHERE_BRANCH_NORM = 1.0 - 1e-8
_DICHOTOMY_BAND = 1e-6
#: bracket width at which the 1-D root searches stop (relative to the
#: bracket end in :func:`sphere_qp_lambda`)
_ROOT_TOL = 1e-12


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
    return _r2_geometry(_plane_vector(x_sorted))


def _r2_geometry(x: np.ndarray) -> R2Geometry:
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


def wstep_h1_r2(x_sorted, rho: float) -> WStepSolution:
    """Exact planar direction via the convex factor of the angular derivative.

    The factor is strictly convex on the arc with a positive right endpoint,
    so it has at most two roots; the case split on the product rho*x1*x2 and
    on kappa decides whether the first axis, the unique interior root, or
    the better of the two is optimal.
    """
    rho = _positive_rho(rho)
    x = _plane_vector(x_sorted)
    geom = _r2_geometry(x)
    x1, x2 = float(x[0]), float(x[1])
    s2 = x1 * x1 + x2 * x2
    half = 0.5 * geom.alpha_angle
    cross = rho * x1 * x2

    def L(theta: float) -> float:
        return _L(theta, geom, rho, s2)

    def Lp(theta: float) -> float:
        return _L_prime(theta, geom)

    if cross > 1.0:
        # factor starts negative: unique interior root is the global angle
        theta_star = _bisect(L, 0.0, half, _ROOT_TOL)
    elif geom.kappa <= GOLDEN_RATIO_CONJUGATE:
        theta_star = 0.0
    else:
        theta0 = _bisect(Lp, 0.0, half, _ROOT_TOL)
        if L(theta0) >= 0.0:
            theta_star = 0.0
        else:
            theta1 = _bisect(L, theta0, half, _ROOT_TOL)
            w0 = np.array([1.0, 0.0])
            w1 = np.array([math.cos(theta1), math.sin(theta1)])
            theta_star = 0.0 if _objective_G_h1(w0, x, rho) <= _objective_G_h1(w1, x, rho) else theta1

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


def trim_zeros(x_sorted) -> tuple[np.ndarray, int]:
    """Split off trailing exact zeros; a prox of the prefix gets its zero
    tail back from :meth:`SignedPermutation.invert`."""
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


@dataclass
class PgdSolution:
    """Result of :func:`pgd_wstep`: a sphere direction with its gap, or an
    ``origin`` limit with all-zero ``w_star`` and ``g_value`` 0, plus the
    limit's norm, the update count and the ``certified`` flag."""

    w_star: np.ndarray
    g_value: float
    certified: bool
    origin: bool
    limit_norm: float
    iterations: int


def pgd_wstep(
    x_sorted,
    rho: float,
    w0,
    *,
    pgd_tol: float = 1e-10,
    max_iter: int = 100_000,
    trace: list | None = None,
) -> PgdSolution:
    """Projected gradient on the relaxed ball-slice direction problem; a
    reference solver that no prox calls.

    Steps with 1/(2*rho*||x||^2), half the inverse gradient Lipschitz
    constant, so the objective decreases every iteration (checked).  The
    limit is classified as the origin below norm 1 - 1e-8 and as a sphere
    direction otherwise; norms far from both raise a diagnostic warning
    because only those two outcomes should occur.

    The iteration stops once an update moves the iterate by at most
    ``pgd_tol`` (a positive finite number) or after ``max_iter`` (positive)
    updates; ``certified`` is cleared when the cap ends it.
    """
    if not (np.isfinite(pgd_tol) and pgd_tol > 0.0):
        raise ValueError("pgd_tol must be a positive finite number")
    if max_iter <= 0:
        raise ValueError("max_iter must be positive")
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
    while iterations < max_iter:
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
        if delta <= pgd_tol:
            converged = True
            break

    nu = float(np.linalg.norm(w))
    if _DICHOTOMY_BAND < nu < 1.0 - _DICHOTOMY_BAND:
        warnings.warn(
            f"projected-gradient limit has intermediate norm {nu:.3e}; "
            "expected the origin or a sphere point",
            RuntimeWarning,
        )
    origin = nu < _SPHERE_BRANCH_NORM
    w_star = np.zeros_like(w) if origin else w / nu
    return PgdSolution(
        w_star=w_star,
        g_value=0.0 if origin else objective_G_h1(w_star, x, rho),
        certified=converged,
        origin=origin,
        limit_norm=nu,
        iterations=iterations,
    )


#: floor of N(t)^2 under the square root: where cancellation in the prefix
#: sums rounds a small N^2 to zero or below, N stays positive and F' finite
_N2_FLOOR = 1e-200


def _piece(r: float, A: float, B: float, k: int):
    """F and F' on the support piece of size k, with A and B the sums of
    y_i^2 and y_i over the top k entries: there <y, (y - t)_+> = A - t B and
    ||(y - t)_+||^2 = A - 2 t B + k t^2."""

    def fd(t: float) -> tuple[float, float]:
        q = A - t * B
        n = math.sqrt(max(q - t * (B - k * t), _N2_FLOOR))
        return r * t * q - n, r * (q - t * B) + (B - k * t) / n

    return fd


def _newton_root(fd, neg: float, pos: float, width: float) -> float:
    """Root of F between ``neg`` (F < 0) and ``pos`` (F >= 0), in either order.

    Newton from the last point, or the bracket midpoint whenever the Newton
    point leaves the bracket or moves more than half the previous step, so
    each pass halves the step or the bracket.  On a concave F, Newton from
    the negative end stays on that side and converges monotonically.
    """
    t, step = neg, 2.0 * (pos - neg)
    while abs(pos - neg) > width:
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
        if abs(step) <= width:
            break
    return t


def _peak(fd, a: float, b: float, width: float) -> float | None:
    """A point of [a, b] where the concave F is >= 0, or None; bisects on the
    sign of F' toward the maximum."""
    while b - a > width:
        t = 0.5 * (a + b)
        f, d = fd(t)
        if f >= 0.0:
            return t
        if d > 0.0:
            a = t
        else:
            b = t
    return None


def _roots(y: np.ndarray, r: float) -> list[tuple[int, float]]:
    """Every root t of F with its support size k, in increasing k, for the
    breakpoints y (ending in 0) and r = rho*x1^2: the screen, then the
    scalar solves (see :func:`wstep_h1`)."""
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
    change = neg[1:] != neg[:-1]
    both = neg[1:] & neg[:-1]
    both &= 2.0 * r * t[:-1] * np.sqrt(Ak[1:]) > 1.0
    if both.any():
        # end slopes of every piece; a maximum inside needs F' > 0 at the
        # lower end and < 0 at the upper one
        a, b, kp, bp = t[1:], t[:-1], k[1:], Bk[1:]
        da = r * (q[1:] - a * bp) + (bp - kp * a) / n[1:]
        db = r * (q[:-1] - b * bp) + (bp - kp * b) / n[:-1]
        both &= da > 0.0
        both &= db < 0.0
        p = both.nonzero()[0]
        da, db = da[p], -db[p]
        # the tangents' zeros a - f_a/da and b + f_b/db are in order, scaled
        # by s^2 with s = max(da, db) so that no product overflows
        s = np.maximum(da, db)
        da, db = da / s, db / s
        both[p] = -f[p + 1] * db - f[p] * da <= (t[p] - t[p + 1]) * s * da * db
    for p in (change | both).nonzero()[0].tolist():
        fd = _piece(r, float(Ak[p + 1]), float(Bk[p + 1]), j + 1 + p)
        lo, hi = float(t[p + 1]), float(t[p])
        if change[p]:
            ends = (lo, hi) if neg[p + 1] else (hi, lo)
            roots.append((j + 1 + p, _newton_root(fd, *ends, _ROOT_TOL)))
        elif (top := _peak(fd, lo, hi, _ROOT_TOL)) is not None:
            roots += [(j + 1 + p, _newton_root(fd, end, top, _ROOT_TOL)) for end in (lo, hi)]
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
    at most two roots.  Cauchy-Schwarz gives t >= 1/(r sqrt(A)), so a root
    below y_k needs r y_k sqrt(A) > 1; when 2 rho x_2 ||x|| <= 1 no piece
    passes and only the first axis is scored.  Otherwise one vector pass
    evaluates F at all breakpoints from the prefix sums; a piece is solved
    only if F changes sign across it (one root), or if both ends are
    negative, 2 r y_k sqrt(A) > 1 and the end tangents, which bound the
    concave F from above, meet at or above 0.  Such a piece holds two roots when F's
    maximum is positive, one on each side of it.  Each root is a bracketed
    scalar Newton search on F.

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
    # hold one
    live = m > 1 and 2.0 * rho * float(x[1]) * math.sqrt(_dot(x, x)) > 1.0
    roots = _roots(y, rho * x1 * x1) if live else []
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

    :func:`~proxinv.wrd.prox` with :func:`prox_h1_uniform` and a w-step of
    :func:`wstep_h1_r2` on a two-entry head, and on a longer one the trusted
    :func:`_wstep_h1`, since the driver has validated the head already.
    Every step is exact and finite, so ``tol.tie_tol`` is the only setting.
    """
    return prox(
        x, rho, tol, lambda h, r: (wstep_h1_r2 if h.size == 2 else _wstep_h1)(h, r), prox_h1_uniform
    )


def sphere_qp_lambda(x_sorted, rho: float) -> tuple[float, np.ndarray]:
    """Diagnostic: stationary multiplier and direction of the full-sphere
    relaxation of the direction problem.

    The multiplier shift q = lambda - rho*||x||^2 is the unique positive
    root of a quartic f (its coefficient signs change exactly once), found by
    bisection on [0, sqrt(n)], where f(0) = c0 < 0 <= f(sqrt(n)) =
    (n s2 - s1^2)(2 rho sqrt(n) + rho^2 s2) by Cauchy-Schwarz, and a short
    Newton polish.  Every entry of the returned unit direction is negative,
    which is why the full-sphere relaxation cannot solve the nonnegative
    direction problem.  A quartic coefficient that is not finite raises
    ``ValueError`` (input magnitude out of range).
    """
    rho = _positive_rho(rho)
    x = descending_vector(x_sorted)
    if x[0] == 0.0:
        raise ValueError("zero vector")
    n = x.size
    s1 = float(x.sum())
    with np.errstate(over="ignore"):  # an infinite s2 is rejected below
        s2 = float(x @ x)

    c3 = 2.0 * rho * s2
    c2 = rho * rho * s2 * s2 - n
    c1 = -2.0 * rho * s1 * s1
    c0 = -rho * rho * s1 * s1 * s2
    if not all(map(math.isfinite, (c3, c2, c1, c0))):
        raise ValueError("input magnitude out of range: a quartic coefficient is not finite")

    def quartic(q: float) -> float:
        return (((q + c3) * q + c2) * q + c1) * q + c0

    def quartic_prime(q: float) -> float:
        return ((4.0 * q + 3.0 * c3) * q + 2.0 * c2) * q + c1

    lo, hi = 0.0, math.sqrt(n)
    while hi - lo > _ROOT_TOL * (1.0 + hi):
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


def curves_intersection_kappa() -> float:
    """Entry ratio at which the two boundary curves of the guaranteed-nonzero
    planar region meet; the unique root of an increasing quintic on [0, 1]."""

    def poly(k: float) -> float:
        return ((k * k + 3.0) * k * k + 2.0) * k - 2.0

    return _bisect(poly, 0.0, 1.0, _ROOT_TOL)
