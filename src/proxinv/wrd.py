"""Generic three-step driver: direction solve (w), radius (r), decision (d).

A penalty-specific direction solver produces a unit vector ``w_star`` with
its objective gap ``g_value``; the radius step forms ``r = <x, w_star>`` and
the decision step keeps the origin, the scaled point, or both, depending on
the sign of the gap.  The gap equals F(r*w) - F(0) exactly, so the decision
never recomputes F and avoids cancellation for large inputs.

:func:`prox` is the driver both ratio operators run; only their w-step and
uniform closed form depend on the penalty.
:func:`decision_step` is the one decision rule of the package: the solved
directions of :func:`wrd_assemble` and the uniform and single-axis closed
forms of the h1 and h2 operators all go through it, and :func:`is_tie` is
its tie test.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOLERANCES,
    ProxSet,
    Tolerances,
    _dot,
    _positive_rho,
    effective_tie_tol,
    normalize,
    uniform_value,
)

_UNIT_ATOL = 1e-10
_NEG_ATOL = 1e-12


@dataclass
class WStepSolution:
    """Output of a direction solver: what the decision step reads.

    ``w_star`` is a unit vector in the nonnegative part of the sphere and
    ``g_value`` its objective value, the exact gap used by the decision step.
    ``family`` names the infinite tie family that ``w_star`` stands for (set
    for a direction uniform over two or more entries, or the first axis of
    a tied top block); it is reported only when the gap ties, and when
    ``family_gap``, the gap of the family's widest member, ties too.
    ``rivals`` lists the solver's other scored directions as (w, g) pairs;
    each whose g ties with ``g_value`` is a member wherever ``w_star`` is.
    """

    w_star: np.ndarray
    g_value: float
    family: str | None = None
    family_gap: float | None = None
    rivals: tuple = ()


def is_tie(g_value: float, f_zero: float, tol: Tolerances) -> bool:
    """Tie test of the decision step: ``|g_value| <= tie_tol * (1 + |f_zero|)``.

    Raises ``ValueError`` when the gap or F(0) is not finite (input magnitude
    out of range), where every gap would read as a tie.
    """
    if not (math.isfinite(g_value) and math.isfinite(f_zero)):
        raise ValueError("input magnitude out of range: decision gap or F(0) is not finite")
    return abs(g_value) <= effective_tie_tol(tol, f_zero)


def decision_step(
    g_value: float,
    f_zero: float,
    point: np.ndarray,
    tol: Tolerances,
    family: str | None = None,
    ties: list | tuple = (),
) -> ProxSet:
    """Keep the origin, ``point``, or both, from the sign of the gap F(point) - F(0).

    A tie within :func:`is_tie` keeps both, a negative gap keeps ``point``
    and a positive gap the origin, each reported with the gap.  Callers pass
    the least gap they know and its point.  ``family`` is reported only on
    a tie, so callers pass the family ``point`` stands for and leave the tie
    test to this rule.  ``ties`` are further points whose gap ties with
    ``g_value``; they are members wherever ``point`` is.
    Raises ``ValueError`` when ``g_value`` or ``f_zero`` is not finite
    (the input magnitude is out of range).
    """
    g = float(g_value)
    if is_tie(g, f_zero, tol):
        return ProxSet(True, [point, *ties], family=family, g_value=g)
    if g < 0.0:
        return ProxSet(False, [point, *ties], g_value=g)
    return ProxSet(True, [], g_value=g)


def wrd_assemble(x_sorted, rho: float, sol: WStepSolution, tol: Tolerances | None = None) -> ProxSet:
    """Run the radius and decision steps for a solved direction.

    Returns {0} when the gap is decisively positive, {r*w} when decisively
    negative, and both on a tie within the scaled tie tolerance
    (:func:`decision_step`); every rival direction whose gap ties with
    ``g_value`` joins r*w with its own radius, and the family is dropped
    when its ``family_gap`` does not tie.  A ``w_star`` or joining
    rival that is not a nonnegative unit vector (the all-zero one and one
    holding NaN included) raises ``ValueError``.  F(0) = rho/2 ||x||^2 comes
    from the warning-free :func:`~proxinv.core._dot`: where it overflows, the
    decision step reports the input magnitude out of range.
    """
    tol = tol or DEFAULT_TOLERANCES
    rho = _positive_rho(rho)
    x = np.asarray(x_sorted, dtype=float)
    f_zero = 0.5 * rho * _dot(x, x)  # silent on overflow: the decision step rejects an infinite F(0)
    point = _member(sol.w_star, x)
    ties = [_member(v, x) for v, g in sol.rivals if is_tie(g - sol.g_value, f_zero, tol)]
    family = sol.family if sol.family_gap is None or is_tie(sol.family_gap, f_zero, tol) else None
    return decision_step(sol.g_value, f_zero, point, tol, family=family, ties=ties)


def _member(w, x: np.ndarray) -> np.ndarray:
    """The point <x, w> w of a nonnegative unit ``w`` of x's shape; a
    non-finite ``w`` (a solver's overflow) is out of range."""
    w = np.asarray(w, dtype=float)
    if w.shape != x.shape:
        raise ValueError("dimension mismatch")
    norm2 = _dot(w, w)
    if not abs(norm2 - 1.0) <= 2.0 * _UNIT_ATOL:
        if not math.isfinite(norm2):
            raise ValueError("input magnitude out of range: w_star is not finite")
        raise ValueError("w_star must be a unit vector")
    if np.count_nonzero(w < -_NEG_ATOL):  # w is finite: the unit test rejects NaN and inf
        raise ValueError("w_star must be nonnegative")
    r = _dot(x, w)
    if r < -_NEG_ATOL:
        raise ValueError("negative radius: x and w_star must have nonnegative overlap")
    return max(r, 0.0) * w


def prox(x, rho: float, tol: Tolerances | None, planar, wstep, uniform) -> ProxSet:
    """Prox of a ratio penalty on the m nonzero entries of the sorted ``x``: {0}
    for m = 0, ``uniform(alpha, m, rho, tol)`` on a head uniform at alpha, else
    :func:`wrd_assemble` on the head's direction, from ``planar(head, rho)`` when
    m = 2 and ``wstep(head, rho)`` when m > 2; ``perm.invert`` restores x's frame."""
    rho = _positive_rho(rho)
    xs, perm = normalize(x)
    m = int(np.count_nonzero(xs))
    if m == 0:
        return ProxSet(True, [], g_value=1.0)
    head = xs[:m]
    if uniform_value(head) is not None:
        return uniform(head[0], m, rho, tol).map_points(perm.invert)
    # the direction is passed inline, not bound to a local, so it is freed before perm.invert
    return wrd_assemble(head, rho, (planar if m == 2 else wstep)(head, rho), tol).map_points(perm.invert)


def _uniform_args(alpha, n, rho: float, tol: Tolerances | None) -> tuple:
    """Checked arguments of a uniform closed form at alpha*e in n dimensions."""
    rho, alpha = _positive_rho(rho), float(alpha)
    if not math.isfinite(alpha):
        raise ValueError("input magnitude out of range: alpha is not finite")
    if not (alpha > 0.0 and isinstance(n, numbers.Integral) and n >= 1):
        raise ValueError(f"alpha must be positive and n an integer >= 1, not {alpha!r} and {n!r}")
    return alpha, int(n), rho, tol or DEFAULT_TOLERANCES
