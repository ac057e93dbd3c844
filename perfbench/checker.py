"""Correctness rule for the benchmark, independent of the solvers it checks.

The proximal objective F(u) = (rho/2)||u - x||^2 + f(u) and the penalties
are written out inline here; nothing in this module calls the operator
code.  An op fails when any of these hold:

* it raised, or returned a non-finite point or a point of the wrong shape;
* the members of its set do not tie: their objectives differ by more than
  TIE_REL * (1 + F(0)).  The origin is a member when ``contains_zero`` is set;
* a candidate computed here beats the set by more than that tolerance.  The
  candidates are the origin and, for every prefix length k of the sorted
  magnitudes, the input's own prefix and the uniform prefix direction, each
  at its optimal radius (O(n) with prefix sums);
* the set misses a tied member: the origin ties with the set but
  ``contains_zero`` is clear, or the set is the origin alone and a nonzero
  candidate ties with it.

A fixed subsample of ops with n <= 3 is also compared with the package's
brute-force grid oracle, which shares no code with the analytic solvers.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

#: relative tie tolerance, equal to DEFAULT_TOLERANCES.tie_tol
TIE_REL = 1e-10

#: angular grid step of the brute-force subsample
BRUTE_RESOLUTION = 1e-3


class SetView(NamedTuple):
    """The part of a prox result the rule reads."""

    contains_zero: bool
    points: list


def penalty(fn: str, u: np.ndarray) -> float:
    if fn == "l0":
        return float(np.count_nonzero(u))
    n2 = math.sqrt(float(u @ u))
    if n2 == 0.0:
        return 0.0
    r = float(np.abs(u).sum()) / n2
    return r if fn == "h1" else r * r


def objective(fn: str, u: np.ndarray, x: np.ndarray, rho: float) -> float:
    d = u - x
    return 0.5 * rho * float(d @ d) + penalty(fn, u)


def best_candidate(fn: str, x: np.ndarray, rho: float) -> float:
    """Lowest objective over the nonzero prefix candidates of ``x``."""
    a = np.sort(np.abs(x))[::-1]
    a = a[a > 0.0]
    k = np.arange(1, a.size + 1, dtype=float)
    s1 = np.cumsum(a)
    s2 = np.cumsum(a * a)
    total = float(s2[-1])
    # the input's own top-k entries: radius sqrt(S2_k), direction a_k / |a_k|
    if fn == "l0":
        own = k
    else:
        own = s1 / np.sqrt(s2)
        if fn == "h2":
            own = own * own
    f_own = 0.5 * rho * (total - s2) + own
    # uniform direction on the top k: radius S1_k / sqrt(k)
    uni = np.sqrt(k) if fn == "h1" else k
    f_uni = 0.5 * rho * (total - s1 * s1 / k) + uni
    return float(min(f_own.min(), f_uni.min()))


def failure(fn: str, x: np.ndarray, rho: float, result) -> str | None:
    """Reason the result fails the rule, or None when it passes."""
    n = x.size
    points = list(result.points)
    for p in points:
        p = np.asarray(p)
        if p.shape != (n,):
            return f"point of shape {p.shape}, expected ({n},)"
        if not np.all(np.isfinite(p)):
            return "non-finite point"
    f0 = 0.5 * rho * float(x @ x)
    tol = TIE_REL * (1.0 + f0)
    values = [objective(fn, np.asarray(p, dtype=float), x, rho) for p in points]
    if result.contains_zero:
        values.append(f0)
    if not values:
        return "empty set"
    best = min(values)
    if max(values) - best > tol:
        return f"members do not tie (spread {max(values) - best:.3e} > {tol:.3e})"
    cand = best_candidate(fn, x, rho) if x.any() else f0
    if min(cand, f0) < best - tol:
        return f"a candidate beats the set by {best - min(cand, f0):.3e} > {tol:.3e}"
    if not result.contains_zero and f0 <= best + tol:
        return "the origin ties with the set but is missing"
    if not points and cand <= f0 + tol:
        return "a nonzero candidate ties with the origin but the set is {0}"
    return None


def brute_failure(fn: str, x: np.ndarray, rho: float, result) -> str | None:
    """Compare the set's objective with the grid oracle (n = 2 or 3).

    The grid only evaluates feasible points, so it can never beat the true
    minimum; the set fails when the grid beats it by more than the oracle
    command's own tolerance.
    """
    from proxinv import brute_prox

    a = np.sort(np.abs(x))[::-1]
    _, f_brute = brute_prox(a, rho, fn, float(np.linalg.norm(a)) + 1.0, BRUTE_RESOLUTION, method="sphere")
    values = [objective(fn, np.asarray(p, dtype=float), x, rho) for p in result.points]
    if result.contains_zero:
        values.append(0.5 * rho * float(x @ x))
    tolerance = max(1e-5, 10.0 * BRUTE_RESOLUTION**2 * rho * float(x @ x))
    if min(values) > f_brute + tolerance:
        return f"grid oracle beats the set by {min(values) - f_brute:.3e} > {tolerance:.3e}"
    return None
