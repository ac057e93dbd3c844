"""Proximity operator of the squared l1/l2 ratio.

The direction problem is a quadratic form built from a rank-2 matrix
(2*e*e^T - rho*x*x^T).  Its negative-eigenvalue eigenvector has a closed
form; when the eigenvector leaves the nonnegative cone the trailing
coordinate of the optimal direction is provably zero.  The prefixes whose
eigenvector stays in the cone form an initial run (proved at :func:`wstep_h2`),
so one bisection over prefix lengths picks the prefix the direction lives on,
reading each trailing entry from prefix sums of squares, (sqrt(rho/2) x - 1)^2,
in which no large terms cancel, and the gap from the same sums.  The matrix
is never materialized: all products use the rank-2 structure.
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
    """Closed-form eigenpairs of 2*e*e^T - rho*x*x^T for non-uniform sorted x,
    from the cancellation-free sums of :func:`_factored`.

    Raises ``ValueError`` when the sum or the squared norm of x is not
    finite, or rho * sum(x) underflows to zero (input magnitude out of
    range).  An infinite ``delta`` alone is kept: the eigenvector ``w_lo``
    can still be exact there.
    """
    rho = _positive_rho(rho)
    x = descending_vector(x_sorted)
    if uniform_value(x) is not None:
        raise ValueError("spectrum degenerates for multiples of the all-ones vector")
    if not (math.isfinite(float(x.sum())) and math.isfinite(_dot(x, x))):
        raise ValueError("input magnitude out of range: sum or squared norm is not finite")
    r = math.sqrt(0.5 * rho)
    s, d, alpha_hi = _factored(x, r)
    # rationalized form: alpha_lo * alpha_hi = 2 rho s^2
    alpha_lo = 2.0 * rho * s * s / alpha_hi
    rho_s = rho * s
    if rho_s == 0.0:
        raise ValueError("input magnitude out of range: rho * sum(x) underflows to zero")
    return H2Spectrum(
        delta=d * (d + 4.0 * r * s),
        alpha_lo=alpha_lo,
        alpha_hi=alpha_hi,
        lambda_neg=2.0 * x.size - alpha_hi,
        lambda_pos=2.0 * x.size - alpha_lo,
        w_lo=x - 2.0 * s / alpha_hi,
        w_hi=x - alpha_hi / rho_s,
    )


def _factored(x: np.ndarray, r: float, out: np.ndarray | None = None) -> tuple[float, float, float]:
    """Pairwise sums s of x and D of (r x - 1)^2 (formed in ``out``), with
    r = sqrt(rho/2), and alpha_hi = D + 2 r s + sqrt(delta).  The
    discriminant m^2 - 2 rho s^2 (m = rho/2 ||x||^2 + n) factors as
    delta = D (D + 4 r s), with no large terms to cancel; its root
    sqrt(D) sqrt(D + 4 r s) is finite wherever D is."""
    y = np.multiply(x, r, out=out)
    y -= 1.0
    s, d = float(x.sum()), _dot(y, y)
    return s, d, d + 2.0 * r * s + math.sqrt(d) * math.sqrt(d + 4.0 * r * s)


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
    is active, the first axis otherwise, with its gap in closed form,
    1 - (rho/2) x1^2, the bits that :func:`objective_G_h2` gives at e1 (as
    :func:`wstep_h2` forms it)."""
    rho = _positive_rho(rho)
    x = _plane_vector(x_sorted)
    x1, x2 = x.tolist()
    cross = rho * x1 * x2
    if cross <= 2.0:
        return WStepSolution(w_star=np.array([1.0, 0.0]), g_value=1.0 - 0.5 * rho * x1 * x1)
    theta = 0.5 * math.atan(2.0 * (cross - 2.0) / (rho * (x1 * x1 - x2 * x2)))
    c, s = math.cos(theta), math.sin(theta)
    w = np.array([c, s])
    # _objective_G_h2's bits: ||w||_1 of two positive entries is c + s, as
    # numpy sums them; the dot stays a BLAS ddot, whose bits Python's
    # x1*c + x2*s does not always give
    t = _dot(x, w)
    return WStepSolution(w_star=w, g_value=(c + s) * (c + s) - 0.5 * rho * t * t)


def wstep_h2(x_sorted, rho: float) -> tuple[WStepSolution, int]:
    """Direction solver on the prefix length picked by one bisection.

    Returns the solution on the full length of x (zero past the prefix)
    with the prefix length it was resolved on.  When the first column of
    the direction matrix is entirely nonnegative the first axis is optimal;
    otherwise the prefix is the longest one, up to the negative-entry count
    mu, that keeps the trailing entry of its negative-eigenvalue direction
    positive, or else the tied top block.  With the prefix sums s of x and
    D of (sqrt(rho/2) x - 1)^2, that entry is positive when
    x_k (D + sqrt(delta)) + 2 s (sqrt(rho/2) x_k - 1) > 0
    (:func:`h2_spectrum`'s factored delta): no large terms cancel, also on
    near-uniform heads, though heads tied to within a few rounding units may
    stop one prefix short, at an exact gap within 1e-14 tie tolerances.  An
    untied head's pick is at least k = 2, whose direction (the arctangent of
    :func:`wstep_h2_r2`) is positive when mu >= 2 makes 2 - rho x_1 x_2 < 0.
    The passing prefixes form an initial run, so one bisection, on Python
    floats read from the prefix sums, finds the last.  Prefix k's direction
    is x - c_k e, c_k the smaller root of q_k(c) = sum_{i<=k} (x_i - c)
    (2 - rho c x_i), where q_k(0) = 2 s > 0.  Let c_k >= x_k (prefix k fails)
    and 0 <= c < x_{k+1}: then q_k(c) > 0.  Were 2 - rho c x_{k+1} negative,
    every term of q_k(c) would be negative; so it is >= 0, q_{k+1}(c) > 0 on
    [0, x_{k+1}) and c_{k+1} >= x_{k+1}: once a prefix fails, every longer
    prefix fails too.  Only the picked prefix's direction x - 2 s/alpha_hi
    is built, in place in the result, with the gap k - alpha_hi/2.  A
    uniform prefix of two or more entries carries the ``uniform_sphere``
    tag, and so does the first axis on a tied top block of j >= 2 entries,
    whose unit w >= 0 have G(w) = ||w||_1^2 G(e1), up to ``family_gap`` j G(e1).
    """
    rho = _positive_rho(rho)
    x = descending_vector(x_sorted)
    if x[0] == 0.0:
        raise ValueError("zero vector has no direction")
    w = np.zeros(x.size)
    k = _mu(x, rho)
    x1 = float(x[0])
    tied = x.size > 1 and x1 - float(x[1]) <= UNIFORM_RTOL * x1
    j = int(np.count_nonzero(x1 - x <= UNIFORM_RTOL * x1)) if tied else 1  # the tied top block
    if k == 0:
        w[0] = 1.0
        g = 1.0 - 0.5 * rho * x1 * x1  # G(e1), as _objective_G_h2 forms it
        family, gap = (UNIFORM_SPHERE, j * g) if j > 1 else (None, None)
        return WStepSolution(w_star=w, g_value=g, family=family, family_gap=gap), 1
    floor = min(k, j)  # the tied top block: the pick when no longer prefix passes
    if k > floor:
        r = math.sqrt(0.5 * rho)
        s = x[:k].cumsum()
        d = x[:k] * r
        d -= 1.0
        d *= d
        d.cumsum(out=d)
        # an infinite D overflows F(0) with it, and the decision step rejects the input
        k, hi = floor, (k if math.isfinite(d[-1]) else floor)
        while k < hi:
            mid = (k + hi + 1) // 2
            sk, dk, xk = float(s[mid - 1]), float(d[mid - 1]), float(x[mid - 1])
            sd = math.sqrt(dk)
            if (math.sqrt(4.0 * r * sk + dk) + sd) * sd * xk + (2.0 * r * xk - 2.0) * sk > 0.0:
                k = mid
            else:
                hi = mid - 1
        if k > floor:
            # the gap from the prefix's own pairwise sums: cumsum rounding grows with k
            sk, _, alpha_hi = _factored(x[:k], r, out=w[:k])
            w_lo = np.subtract(x[:k], 2.0 * sk / alpha_hi, out=w[:k])
            norm2 = _dot(w_lo, w_lo)
            if not (math.isfinite(sk) and math.isfinite(norm2)):
                raise ValueError("input magnitude out of range: sum or squared norm is not finite")
            w_lo /= math.sqrt(norm2)
            return WStepSolution(w_star=w, g_value=k - 0.5 * alpha_hi), k
    w[:k] = 1.0 / np.sqrt(k)
    family = UNIFORM_SPHERE if k >= 2 else None
    return WStepSolution(w_star=w, g_value=_objective_G_h2(w[:k], x[:k], rho), family=family), k


def prox_h2(x, rho: float, tol: Tolerances | None = None) -> ProxSet:
    """Set-valued prox of the squared l1/l2 ratio: :func:`~proxinv.wrd.prox` with
    :func:`wstep_h2_r2`, :func:`wstep_h2` and :func:`prox_h2_uniform`, as :func:`prox_h1`."""
    return prox(x, rho, tol, wstep_h2_r2, lambda h, r: wstep_h2(h, r)[0], prox_h2_uniform)
