"""Generic three-step driver: direction solve (w), radius (r), decision (d).

A penalty-specific direction solver produces a unit vector ``w_star`` with
its objective gap ``g_value``; the radius step forms ``r = <x, w_star>`` and
the decision step keeps the origin, the scaled point, or both, depending on
the sign of the gap.  The gap equals F(r*w) - F(0) exactly, so the decision
never recomputes F and avoids cancellation for large inputs.

:func:`decision_step` is the one decision rule of the package: the solved
directions of :func:`wrd_assemble` and the uniform and single-axis closed
forms of the h1 and h2 operators all go through it, and :func:`is_tie` is
its tie test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOLERANCES,
    ProxSet,
    Tolerances,
    _dot,
    _positive_rho,
    effective_tie_tol,
)

_UNIT_ATOL = 1e-10
_NEG_ATOL = 1e-12


@dataclass
class WStepSolution:
    """Output of a direction solver: what the decision step reads.

    ``w_star`` is a unit vector in the nonnegative part of the sphere and
    ``g_value`` its objective value, the exact gap used by the decision step.
    ``family`` names the infinite tie family that ``w_star`` stands for (set
    for a direction uniform over two or more entries); the decision step
    reports it only when the gap ties.  ``rivals`` lists the solver's other
    scored directions as (w, g) pairs; each whose g ties with ``g_value`` is
    a member of the set wherever ``w_star`` is.
    """

    w_star: np.ndarray
    g_value: float
    family: str | None = None
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
    zero_gap: float | None = None,
    ties: list | tuple = (),
) -> ProxSet:
    """Keep the origin, ``point``, or both, from the sign of the gap F(point) - F(0).

    A tie within :func:`is_tie` keeps both, a negative gap keeps ``point``
    and a positive gap the origin, reported with ``zero_gap`` when given
    (else the gap itself).  ``family`` is reported only on a tie, so callers
    pass the family ``point`` stands for and leave the tie test to this rule.
    ``ties`` are further points whose gap ties with ``g_value``; they are
    members wherever ``point`` is.
    Raises ``ValueError`` when ``g_value`` or ``f_zero`` is not finite
    (the input magnitude is out of range).
    """
    g = float(g_value)
    if is_tie(g, f_zero, tol):
        return ProxSet(True, [point, *ties], family=family, g_value=g)
    if g < 0.0:
        return ProxSet(False, [point, *ties], g_value=g)
    g_zero = g if zero_gap is None else zero_gap
    return ProxSet(True, [], g_value=g_zero)


def wrd_assemble(x_sorted, rho: float, sol: WStepSolution, tol: Tolerances | None = None) -> ProxSet:
    """Run the radius and decision steps for a solved direction.

    Returns {0} when the gap is decisively positive, {r*w} when decisively
    negative, and both on a tie within the scaled tie tolerance
    (:func:`decision_step`); every rival direction whose gap ties with
    ``g_value`` joins r*w with its own radius.  A ``w_star`` that is not a
    nonnegative unit vector (the all-zero one included) raises
    ``ValueError``.
    """
    tol = tol or DEFAULT_TOLERANCES
    rho = _positive_rho(rho)
    x = np.asarray(x_sorted, dtype=float)
    w = np.asarray(sol.w_star, dtype=float)
    if w.shape != x.shape:
        raise ValueError("dimension mismatch")
    if abs(_dot(w, w) - 1.0) > 2.0 * _UNIT_ATOL:
        raise ValueError("w_star must be a unit vector")
    if float(w.min()) < -_NEG_ATOL:
        raise ValueError("w_star must be nonnegative")

    r = _dot(x, w)
    if r < -_NEG_ATOL:
        raise ValueError("negative radius: x and w_star must have nonnegative overlap")
    r = max(r, 0.0)

    f_zero = 0.5 * rho * _dot(x, x)
    ties = [max(_dot(x, v), 0.0) * v for v, g in sol.rivals if is_tie(g - sol.g_value, f_zero, tol)]
    return decision_step(sol.g_value, f_zero, r * w, tol, family=sol.family, ties=ties)
