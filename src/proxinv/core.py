"""Shared numerics for set-valued proximity operators of sparsity penalties.

Every solver in this package works on the descending nonnegative cone
(entries sorted by decreasing value, all >= 0).  This module provides the
signed-permutation normal form that maps an arbitrary vector into that cone
and back, the result containers, and the two objective functionals that the
direction solvers minimize on the nonnegative part of the unit sphere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

#: tag for an infinite tie family covering the nonnegative part of the sphere
UNIFORM_SPHERE = "uniform_sphere"

#: relative tolerance under which sorted entries count as all equal
UNIFORM_RTOL = 1e-12

_UNIT_ATOL = 1e-12
_NEG_ATOL = 1e-12
#: longest dot product taken in one BLAS call: OpenBLAS splits longer ones
#: across threads, and on a 2-vCPU VM waking the second thread cost up to a
#: scheduler tick (about 8 ms) per dot
_DOT_PIECE = 10_000


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """<a, b> of 1-D arrays, from single-thread BLAS calls of at most
    ``_DOT_PIECE`` entries (one call, so the same bits, up to that length)."""
    if a.size <= _DOT_PIECE:
        return float(a @ b)
    pieces = range(0, a.size, _DOT_PIECE)
    return sum(float(a[i : i + _DOT_PIECE] @ b[i : i + _DOT_PIECE]) for i in pieces)


def _validated(x) -> np.ndarray:
    """View ``x`` as a finite 1-D float array of length >= 1 (no copy)."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("expected a non-empty 1-D vector")
    # a finite absolute sum certifies every entry is finite
    s = float(np.abs(v).sum())
    if s != s or s == np.inf:
        raise ValueError("vector entries must be finite")
    return v


def as_vector(x) -> np.ndarray:
    """Copy ``x`` into a finite 1-D float array of length >= 1."""
    return _validated(x).copy()


def descending_vector(x) -> np.ndarray:
    """Validated view of ``x`` with descending nonnegative entries required.

    Read-only use: every operation builds fresh output arrays, so no copy is
    taken here.
    """
    v = _validated(x)
    if v[-1] < 0.0 or bool(np.any(v[:-1] < v[1:])):
        raise ValueError("expected entries sorted in descending nonnegative order")
    return v


def _positive_rho(rho: float) -> float:
    rho = float(rho)
    if not math.isfinite(rho) or rho <= 0.0:
        raise ValueError("rho must be a positive finite number")
    return rho


@dataclass(frozen=True)
class SignedPermutation:
    """Index reordering plus per-slot sign flips.

    ``apply`` sends a vector to its sorted-by-magnitude nonnegative form;
    ``invert`` undoes that exactly (sign flips are exact in floating point).
    Slot ``i`` of the sorted vector is ``signs[i] * v[order[i]]``.
    """

    order: np.ndarray
    signs: np.ndarray

    def __len__(self) -> int:
        return self.order.size

    def apply(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != self.order.shape:
            raise ValueError("dimension mismatch")
        return self.signs * v[self.order]

    def invert(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if u.shape != self.order.shape:
            raise ValueError("dimension mismatch")
        out = np.empty_like(u)
        out[self.order] = self.signs * u
        return out


def normalize(x) -> tuple[np.ndarray, SignedPermutation]:
    """Map ``x`` into the descending nonnegative cone.

    Ties between equal magnitudes keep their original relative order, and
    zero entries are assigned sign +1, so the permutation is deterministic.
    Returns the sorted vector together with the permutation that produced it.
    """
    v = _validated(x)
    order = np.argsort(-np.abs(v), kind="stable")
    picked = v[order]
    signs = np.where(picked < 0.0, -1.0, 1.0)
    perm = SignedPermutation(order=order, signs=signs)
    return signs * picked, perm


def denormalize(u, perm: SignedPermutation) -> np.ndarray:
    """Undo :func:`normalize`: send a sorted-cone vector back to the original frame."""
    return perm.invert(as_vector(u))


@dataclass(frozen=True)
class Tolerances:
    """The one numeric knob of the operators.

    ``tie_tol`` is relative, in (0, 1): a decision-step tie is declared when
    the objective gap is within ``tie_tol * (1 + |F(0)|)``.  Every direction
    step is exact and finite, so no stopping tolerance or iteration cap is
    needed; the reference solver ``pgd_wstep`` takes its own.
    """

    tie_tol: float = 1e-10

    def __post_init__(self):
        if not (np.isfinite(self.tie_tol) and self.tie_tol > 0.0):
            raise ValueError("tie_tol must be a positive finite number")
        if self.tie_tol >= 1.0:
            raise ValueError("tie_tol must be below 1")


DEFAULT_TOLERANCES = Tolerances()


def effective_tie_tol(tol: Tolerances, f_zero: float) -> float:
    """Absolute tie tolerance scaled by the objective value at the origin."""
    return tol.tie_tol * (1.0 + abs(f_zero))


@dataclass
class ProxSet:
    """Set-valued proximity result.

    ``points`` lists nonzero representatives; the origin is a member exactly
    when ``contains_zero`` is set.  ``family`` marks an infinite tie family
    (with a canonical representative kept in ``points``); ``tie_truncated``
    marks that an exponential finite tie family was cut down to its maximal-
    and minimal-support representatives.  ``g_value`` is the direction-step
    objective gap of the representative, i.e. F(point) - F(0).
    """

    contains_zero: bool
    points: list = field(default_factory=list)
    family: str | None = None
    g_value: float = 0.0
    tie_truncated: bool = False

    def map_points(self, fn) -> "ProxSet":
        """Return a copy with ``fn`` applied to every representative point."""
        return ProxSet(
            contains_zero=self.contains_zero,
            points=[fn(p) for p in self.points],
            family=self.family,
            g_value=self.g_value,
            tie_truncated=self.tie_truncated,
        )


def objective_F(u, x, rho: float, f_value: float) -> float:
    """Proximal objective (rho/2)*||u - x||^2 + f(u), with f(u) supplied."""
    rho = _positive_rho(rho)
    u = np.asarray(u, dtype=float)
    x = np.asarray(x, dtype=float)
    if u.shape != x.shape:
        raise ValueError("dimension mismatch")
    d = u - x
    return 0.5 * rho * float(d @ d) + float(f_value)


def _unit_vector(w) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    v = w.ravel()
    nrm = math.sqrt(_dot(v, v))
    if abs(nrm - 1.0) > _UNIT_ATOL:
        raise ValueError("w must be a unit vector")
    return w


def objective_G_h2(w, x, rho: float) -> float:
    """Direction objective for the squared l1/l2 ratio: ||w||_1^2 - (rho/2)<x,w>^2."""
    rho = _positive_rho(rho)
    w = _unit_vector(w)
    x = np.asarray(x, dtype=float)
    if w.shape != x.shape:
        raise ValueError("dimension mismatch")
    s = float(np.abs(w).sum())
    t = float(x @ w)
    return s * s - 0.5 * rho * t * t


def objective_G_h1(w, x, rho: float) -> float:
    """Direction objective for the l1/l2 ratio: -(rho/2)<x,w>^2 + ||w||_1."""
    rho = _positive_rho(rho)
    w = _unit_vector(w)
    x = np.asarray(x, dtype=float)
    if w.shape != x.shape:
        raise ValueError("dimension mismatch")
    if float(w.min()) < -_NEG_ATOL:
        raise ValueError("w must be nonnegative")
    t = _dot(x, w)
    return -0.5 * rho * t * t + float(np.abs(w).sum())


def l0_value(u) -> float:
    """Number of nonzero entries."""
    return float(np.count_nonzero(np.asarray(u, dtype=float)))


def h1_value(u) -> float:
    """l1/l2 ratio, 0 at the origin."""
    u = np.asarray(u, dtype=float)
    n2 = float(np.linalg.norm(u))
    if n2 == 0.0:
        return 0.0
    return float(np.abs(u).sum()) / n2


def h2_value(u) -> float:
    """Squared l1/l2 ratio, 0 at the origin."""
    r = h1_value(u)
    return r * r


def uniform_value(x_sorted) -> float | None:
    """First entry if a sorted nonnegative vector is uniform, else None."""
    x = np.asarray(x_sorted, dtype=float)
    span = float(x[0] - x[-1])
    if span <= UNIFORM_RTOL * float(x[0]):
        return float(x[0])
    return None
