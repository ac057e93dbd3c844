"""Set-valued hard thresholding: the proximity operator of the l0 count.

Implemented twice on purpose: the componentwise closed form, and a direction
solver that feeds the generic three-step driver.  Agreement of the two paths
is an end-to-end check of the driver machinery.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    DEFAULT_TOLERANCES,
    ProxSet,
    Tolerances,
    _dot,
    _positive_rho,
    _validated,
    descending_vector,
)
from .wrd import WStepSolution

#: beyond 2**3 tie combinations only the extreme-support pair is enumerated
TIE_ENUM_CAP = 8


def prox_l0(x, rho: float, tol: Tolerances | None = None) -> ProxSet:
    """Componentwise hard threshold at sqrt(2/rho), set-valued on ties.

    An entry is kept when its per-entry objective gap ``1 - (rho/2) x_i^2``
    is decisively negative, zeroed when decisively positive, and tied within
    the scaled tie tolerance.  Up to 3 tied entries are enumerated in full
    (2^3 = 8 combinations); more are truncated to the maximal- and
    minimal-support representatives.  Raises ``ValueError`` when a squared
    entry is not finite (input magnitude out of range).
    """
    tol = tol or DEFAULT_TOLERANCES
    rho = _positive_rho(rho)
    v = _validated(x)[0]  # read only: every point below is a fresh array

    # per-entry decision in the squared domain: with s = (rho/2) x_i^2 the
    # gap rule "1 - s < -tie*(1 + s)" (keep) and "|1 - s| <= tie*(1 + s)"
    # (tie) become plain thresholds on x_i^2
    tie = tol.tie_tol
    c = v * v
    c_hi = (2.0 / rho) * (1.0 + tie) / (1.0 - tie)
    c_lo = (2.0 / rho) * (1.0 - tie) / (1.0 + tie)
    keep = c > c_hi

    base = v * keep
    n_keep = int(np.count_nonzero(keep))
    kept_any = n_keep > 0
    if kept_any:
        g_value = n_keep - 0.5 * rho * float((c * keep).sum())
    else:
        g_value = 1.0 - 0.5 * rho * float(c.max())
    # an infinite square is kept under a finite threshold (and is the max
    # under an infinite one), so g_value is infinite whenever a square is;
    # an infinite threshold alone keeps no entry and ties none, so {0} stands
    if not math.isfinite(g_value):
        raise ValueError("input magnitude out of range: squared entries are not finite")

    if int(np.count_nonzero(c >= c_lo)) == n_keep:  # no borderline entries
        if kept_any:
            return ProxSet(False, [base], g_value=g_value)
        return ProxSet(True, [], g_value=g_value)

    tie_idx = np.flatnonzero((c >= c_lo) & ~keep)
    m = tie_idx.size

    if 2**m <= TIE_ENUM_CAP:
        points = []
        saw_zero = False
        for bits in range(2**m):
            p = base.copy()
            for j in range(m):
                if bits >> j & 1:
                    p[tie_idx[j]] = v[tie_idx[j]]
            if np.any(p != 0.0):
                points.append(p)
            else:
                saw_zero = True
        return ProxSet(saw_zero, points, g_value=g_value)

    hi = base.copy()
    hi[tie_idx] = v[tie_idx]
    if kept_any:
        return ProxSet(False, [hi, base], g_value=g_value, tie_truncated=True)
    return ProxSet(True, [hi], g_value=g_value, tie_truncated=True)


def wstep_l0(x_sorted, rho: float) -> WStepSolution:
    """Direction solver for the l0 count on a sorted nonnegative vector.

    The optimal direction aligns with the first k entries, where k is the
    number of entries strictly above the threshold (at least 1 so the
    decision step can still compare against the origin).
    """
    rho = _positive_rho(rho)
    x = descending_vector(x_sorted)
    if x[0] == 0.0:
        raise ValueError("zero vector has no direction")
    thr = math.sqrt(2.0 / rho)
    k = max(1, int(np.count_nonzero(x > thr)))
    head = x[:k]
    head_sq = _dot(head, head)
    w = np.zeros(x.size)
    w[:k] = head / math.sqrt(head_sq)
    g = k - 0.5 * rho * head_sq
    return WStepSolution(w_star=w, g_value=g)
