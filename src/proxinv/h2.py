"""Proximity operator of the squared l1/l2 ratio.

The direction problem is a quadratic form built from a rank-2 matrix
(2*e*e^T - rho*x*x^T).  Its negative-eigenvalue eigenvector has a closed
form; when the eigenvector leaves the nonnegative cone the trailing
coordinate of the optimal direction is provably zero, so one prefix-sum scan
over prefix lengths picks the prefix the direction lives on.  The matrix is
never materialized: all products use the rank-2 structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    UNIFORM_RTOL,
    UNIFORM_SPHERE,
    ProxSet,
    Tolerances,
    _dot,
    _objective_G_h2,
    _plane_vector,
    _positive_rho,
    descending_vector,
    normalize,  # unused here, as is wrd_assemble: perfbench/tracing.TARGETS wraps both
    uniform_value,
)
from .wrd import WStepSolution, _uniform_args, decision_step, is_tie, prox, wrd_assemble


@dataclass
class H2Spectrum:
    """Nonzero eigenstructure of the rank-2 direction matrix.

    ``delta`` is the discriminant of the quadratic whose roots (scaled)
    locate the two nonzero eigenvalues ``lambda_pos > 0 > lambda_neg``;
    ``w_lo`` / ``w_hi`` are the unnormalized eigenvectors attached to
    ``lambda_neg`` / ``lambda_pos``.
    """

    delta: float
    alpha_lo: float
    alpha_hi: float
    lambda_neg: float
    lambda_pos: float
    w_lo: np.ndarray
    w_hi: np.ndarray


def h2_spectrum(x_sorted, rho: float) -> H2Spectrum:
    """Closed-form eigenpairs of 2*e*e^T - rho*x*x^T for non-uniform sorted x.

    Raises ``ValueError`` when the sum or the squared norm of x is not finite
    (input magnitude out of range).  An infinite ``delta`` alone is kept:
    the eigenvector ``w_lo`` can still be exact there.
    """
    rho = _positive_rho(rho)
    x = descending_vector(x_sorted)
    if uniform_value(x) is not None:
        raise ValueError("spectrum degenerates for multiples of the all-ones vector")
    return _h2_spectrum(x, rho)


def _h2_spectrum(x: np.ndarray, rho: float) -> H2Spectrum:
    """:func:`h2_spectrum` on a trusted sorted, non-uniform ``x``."""
    n = x.size
    delta, alpha_lo, alpha_hi, shift_lo, shift_hi = _h2_scalars(x, rho)
    return H2Spectrum(
        delta=delta,
        alpha_lo=alpha_lo,
        alpha_hi=alpha_hi,
        lambda_neg=2.0 * n - alpha_hi,
        lambda_pos=2.0 * n - alpha_lo,
        w_lo=x - shift_lo,
        w_hi=x - shift_hi,
    )


def _h2_scalars(x: np.ndarray, rho: float) -> tuple[float, float, float, float, float]:
    """The scalars of :func:`h2_spectrum` on a trusted sorted ``x``:
    ``delta``, ``alpha_lo``, ``alpha_hi`` and the shifts with
    ``w_lo = x - shift_lo`` and ``w_hi = x - shift_hi``.  Two reductions
    over x and no array, so :func:`wstep_h2` can test a prefix's trailing
    ``w_lo`` entry without building the eigenvectors.

    Raises ``ValueError`` when the sum or the squared norm of x is not finite.
    """
    n = x.size
    s1 = float(x.sum())
    s2 = _dot(x, x)
    if not (math.isfinite(s1) and math.isfinite(s2)):
        raise ValueError("input magnitude out of range: sum or squared norm is not finite")
    m = 0.5 * rho * s2 + n
    delta = max(m * m - 2.0 * rho * s1 * s1, 0.0)
    alpha_hi = m + np.sqrt(delta)
    # rationalized form; the direct difference m - sqrt(delta) cancels badly
    # when delta approaches its lower bound
    alpha_lo = 2.0 * rho * s1 * s1 / alpha_hi
    return delta, alpha_lo, alpha_hi, alpha_lo / (rho * s1), alpha_hi / (rho * s1)


def mu(x_sorted, rho: float) -> int:
    """Count of negative entries of 2*e - rho*x_1*x (a prefix, by sorting)."""
    rho = _positive_rho(rho)
    return _mu(descending_vector(x_sorted), rho)


def _mu(x: np.ndarray, rho: float) -> int:
    """:func:`mu` on a trusted sorted ``x``, by bisection.

    With c = rho*x_1, the test ``2.0 - c*x_i < 0.0`` holds on a prefix:
    rounded products are monotone in x_i, and an infinite c meets the zero
    tail only, where inf*0 is NaN and the test fails.  Python floats keep
    the overflow of c silent.
    """
    c = rho * float(x[0])
    lo, hi = 0, x.size
    while lo < hi:
        mid = (lo + hi) // 2
        if 2.0 - c * float(x[mid]) < 0.0:
            lo = mid + 1
        else:
            hi = mid
    return lo


def prox_h2_uniform(alpha: float, n: int, rho: float, tol: Tolerances | None = None) -> ProxSet:
    """Prox at a uniform point alpha*e: keep it, drop it, or tie with an
    infinite family covering the nonnegative sphere, whose gaps ||w||_1^2 d/2
    (d = 2 - rho*alpha^2) run from the first axis's d/2 to the uniform
    direction's n*d/2.  When n*d/2 does not tie and d > 0, the first axis
    is the least gap and may tie alone (as on :func:`wstep_h2`'s tied top block)."""
    alpha, n, rho, tol = _uniform_args(alpha, n, rho, tol)
    d = 2.0 - rho * alpha * alpha
    f_zero = 0.5 * rho * alpha * alpha * n
    # the nonnegative sphere of one coordinate is a single point, not a family
    family = UNIFORM_SPHERE if n >= 2 else None
    g_diag = 0.5 * d * n
    if d > 0.0 and not is_tie(g_diag, f_zero, tol):
        point = np.zeros(n)
        point[0] = alpha
        return decision_step(0.5 * d, f_zero, point, tol)
    return decision_step(g_diag, f_zero, np.full(n, alpha), tol, family=family)


def wstep_h2_r2(x_sorted, rho: float) -> WStepSolution:
    """Closed-form planar direction: an arctangent angle when the cross term
    is active, the first axis otherwise."""
    rho = _positive_rho(rho)
    return _wstep_h2_r2(_plane_vector(x_sorted), rho)


def _wstep_h2_r2(x: np.ndarray, rho: float) -> WStepSolution:
    """:func:`wstep_h2_r2` on a trusted sorted plane ``x`` with x1 > x2."""
    x1, x2 = float(x[0]), float(x[1])
    cross = rho * x1 * x2
    if cross > 2.0:
        theta = 0.5 * math.atan(2.0 * (cross - 2.0) / (rho * (x1 * x1 - x2 * x2)))
    else:
        theta = 0.0
    w = np.array([math.cos(theta), math.sin(theta)])
    return WStepSolution(w_star=w, g_value=_objective_G_h2(w, x, rho))


def wstep_h2(x_sorted, rho: float) -> tuple[WStepSolution, int]:
    """Direction solver on the prefix length picked by one prefix-sum scan.

    Returns the solution on the full length of x (zero past the prefix)
    with the prefix length it was resolved on.  When the first column of
    the direction matrix is entirely nonnegative the first axis is optimal;
    otherwise the prefix is the longest one, up to the negative-entry count
    mu, that keeps the trailing entry of its negative-eigenvalue direction
    positive (read off prefix sums, in blocks of 1024, 2048, ... prefixes
    down from mu, and confirmed from :func:`h2_spectrum`'s scalars; only
    the confirmed prefix's direction is built, in place in the result),
    or else the tied top block or the first two entries.  A
    uniform prefix of two or more entries carries the ``uniform_sphere``
    tag, and so does the first axis on a tied top block of j >= 2 entries,
    whose unit w >= 0 have G(w) = ||w||_1^2 G(e1), up to ``family_gap`` j G(e1).
    The input is validated here once; the scan below runs the trusted
    kernels of :func:`mu`, :func:`h2_spectrum` and :func:`wstep_h2_r2`.
    """
    rho = _positive_rho(rho)
    x = descending_vector(x_sorted)
    if x[0] == 0.0:
        raise ValueError("zero vector has no direction")
    w = np.zeros(x.size)
    k = _mu(x, rho)
    tied = x.size > 1 and x[0] - x[1] <= UNIFORM_RTOL * x[0]
    j = int(np.count_nonzero(x[0] - x <= UNIFORM_RTOL * x[0])) if tied else 1  # the tied top block
    if k == 0:
        w[0] = 1.0
        g = _objective_G_h2(w, x, rho)
        family, gap = (UNIFORM_SPHERE, j * g) if j > 1 else (None, None)
        return WStepSolution(w_star=w, g_value=g, family=family, family_gap=gap), 1
    floor = min(k, max(2, j))  # the longest uniform or two-entry prefix: the walk's last stop
    if k > floor:
        # trailing w_lo entry of each prefix in h2_spectrum's rationalized
        # form, computed block by block in place (large fresh temporaries
        # page-fault anew on every call); cumsum rounds unlike the sums of
        # _h2_scalars, which confirm each candidate
        s1 = np.cumsum(x[:k])
        s2 = np.multiply(x[:k], x[:k])
        np.cumsum(s2, out=s2)
        top, size = k, 1024
        while top > floor:
            lo = max(floor, top - size)
            s = s1[lo:top]
            m = np.arange(lo + 1, top + 1, dtype=float)
            m += np.multiply(s2[lo:top], 0.5 * rho, out=s2[lo:top])  # 0.5 rho s2 + i
            q = np.multiply(s, 2.0 * rho, out=s2[lo:top])
            q *= s  # 2 rho s^2
            t = np.multiply(m, m)
            t -= q
            np.maximum(t, 0.0, out=t)
            np.sqrt(t, out=t)
            t += m
            np.divide(q, t, out=t)  # alpha_lo
            t /= np.multiply(s, rho, out=q)  # shift_lo
            np.subtract(x[lo:top], t, out=t)
            for k in map(int, np.flatnonzero(t > 0.0)[::-1] + lo + 1):
                shift = _h2_scalars(x[:k], rho)[3]
                if float(x[k - 1]) - shift > 0.0:
                    w_lo = np.subtract(x[:k], shift, out=w[:k])
                    w_lo /= math.sqrt(_dot(w_lo, w_lo))
                    return WStepSolution(w_star=w, g_value=_objective_G_h2(w, x, rho)), k
            top, size = lo, 2 * size
    k = floor
    head = x[:k]
    if uniform_value(head) is not None:
        w[:k] = 1.0 / np.sqrt(k)
        family = UNIFORM_SPHERE if k >= 2 else None
        return WStepSolution(w_star=w, g_value=_objective_G_h2(w, x, rho), family=family), k
    sol2 = _wstep_h2_r2(head, rho)  # k == 2: every scan ends on a uniform or planar prefix
    w[:2] = sol2.w_star
    return WStepSolution(w_star=w, g_value=sol2.g_value), 2


def prox_h2(x, rho: float, tol: Tolerances | None = None) -> ProxSet:
    """Set-valued prox of the squared l1/l2 ratio: :func:`~proxinv.wrd.prox`
    with :func:`wstep_h2` and :func:`prox_h2_uniform`, as :func:`prox_h1`."""
    return prox(x, rho, tol, lambda h, r: wstep_h2(h, r)[0], prox_h2_uniform)
