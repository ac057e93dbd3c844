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
  threshold of the sorted input whose threshold solves one quartic per
  support size (built from prefix sums), so a scan over support sizes plus
  the first axis finds the exact direction (:func:`wstep_h1`).

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


def wstep_h1_r2(x_sorted, rho: float) -> WStepSolution:
    """Exact planar direction via the convex factor of the angular derivative.

    The factor is strictly convex on the arc with a positive right endpoint,
    so it has at most two roots; the case split on the product rho*x1*x2 and
    on kappa decides whether the first axis, the unique interior root, or
    the better of the two is optimal.
    """
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
    sol = wstep_h1_r2(x, rho)
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


#: slack of the piece interval test, in units of the largest entry
_PIECE_SLACK = 1e-9
#: imaginary part up to which an eigenvalue counts as a real root: a real
#: double root may come back as a complex pair split by about sqrt(eps)
_REAL_ROOT_IMAG = 1e-6


def wstep_h1(x_sorted, rho: float) -> WStepSolution:
    """Exact direction by a KKT scan over support sizes.

    On the sorted positive entries x, a minimizer of
    G(w) = -(rho/2)<x,w>^2 + ||w||_1 over the nonnegative unit sphere with
    G < ||w||_1/2 has a positive sphere multiplier, so w is proportional to
    the soft threshold (x - tau)_+ with tau = 1/(rho <x,w>); any other
    minimizer has G >= 1/2, where the origin wins the decision step anyway.
    With support size k and prefix sums A = sum x_i^2, B = sum x_i, the
    self-consistency condition is the quartic

        rho^2 B^2 tau^4 - 2 rho^2 A B tau^3 + (rho^2 A^2 - k) tau^2 + 2 B tau - A = 0

    whose roots count when tau lies in [x_{k+1}, x_k) and A - tau B > 0.
    All pieces k >= 2 are solved at once (companion eigenvalues, then three
    Newton steps); every root kept is scored by :func:`objective_G_h1` on
    its own unit direction, and the first axis (the k = 1 piece) is always a
    candidate.  The lowest objective wins.
    """
    rho = _positive_rho(rho)
    x = descending_vector(x_sorted)
    if x[-1] <= 0.0:
        raise ValueError("entries must be strictly positive (trim zeros first)")
    m = x.size
    # the objective is unchanged under x -> x/x1, rho -> rho*x1^2
    x1 = float(x[0])
    y = x / x1
    r = rho * x1 * x1
    best = np.zeros(m)
    best[0] = 1.0
    best_g = objective_G_h1(best, x, rho)

    # piece k covers tau in [y_{k+1}, y_k) with y_{m+1} = 0; Cauchy-Schwarz
    # gives tau >= 1/(r sqrt(A)), so a piece with r y_k sqrt(A) < 1 has no
    # root (the factor 2 covers the interval slack, and keeps 1/(r B) <= 2)
    ks = np.arange(2, m + 1)
    hi, lo = y[1:], np.append(y[2:], 0.0)
    A, B = np.cumsum(y * y)[1:], np.cumsum(y)[1:]
    live = (hi > lo) & (2.0 * r * hi * np.sqrt(A) > 1.0)
    ks, hi, lo, A, B = ks[live], hi[live], lo[live], A[live], B[live]
    if ks.size:
        # monic quartic tau^4 + c3 tau^3 + c2 tau^2 + c1 tau + c0, with q = 1/(r B)
        q2 = (1.0 / (r * B)) ** 2
        c3, c2, c1, c0 = -2.0 * A / B, (A / B) ** 2 - ks * q2, 2.0 * B * q2, -A * q2
        comp = np.zeros((ks.size, 4, 4))
        comp[:, 0] = -np.column_stack((c3, c2, c1, c0))
        comp[:, 1, 0] = comp[:, 2, 1] = comp[:, 3, 2] = 1.0
        roots = np.linalg.eigvals(comp)
        tau = roots.real
        near = np.abs(roots.imag) <= _REAL_ROOT_IMAG
        near &= (tau >= lo[:, None] - _PIECE_SLACK) & (tau <= hi[:, None] + _PIECE_SLACK)
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
    return WStepSolution(w_star=best, g_value=best_g)


def prox_h1(x, rho: float, tol: Tolerances | None = None) -> ProxSet:
    """Set-valued prox of the l1/l2 ratio at an arbitrary point.

    The direction lives on the m nonzero sorted entries: {0} for m = 0, the
    uniform closed form for a uniform head, else one radius and decision
    step on :func:`wstep_h1_r2` (m = 2) or :func:`wstep_h1` (m >= 3).
    Every step is exact and finite, so ``tol.tie_tol`` is the only setting.
    """
    tol = tol or DEFAULT_TOLERANCES
    rho = _positive_rho(rho)
    xs, perm = normalize(x)
    m = int(np.count_nonzero(xs))
    if m == 0:
        return ProxSet(True, [], g_value=1.0)
    head = xs[:m]
    if uniform_value(head) is not None:
        ps = prox_h1_uniform(head[0], m, rho, tol)
    else:
        ps = wrd_assemble(head, rho, (wstep_h1_r2 if m == 2 else wstep_h1)(head, rho), tol)

    n = xs.size

    def pad_and_restore(p: np.ndarray) -> np.ndarray:
        full = np.zeros(n)
        full[: p.size] = p
        return perm.invert(full)

    return ps.map_points(pad_and_restore)


def sphere_qp_lambda(x_sorted, rho: float) -> tuple[float, np.ndarray]:
    """Diagnostic: stationary multiplier and direction of the full-sphere
    relaxation of the direction problem.

    The multiplier shift q = lambda - rho*||x||^2 is the unique positive
    root of a quartic (its coefficient signs change exactly once), found by
    doubling to bracket, bisection, and a short Newton polish.  Every entry
    of the returned unit direction is negative, which is why the full-sphere
    relaxation cannot solve the nonnegative direction problem.
    """
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
