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
#: bracket width at which the 1-D root searches stop (relative to the
#: bracket end in :func:`sphere_qp_lambda`)
_ROOT_TOL = 1e-12


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """<a, b> of 1-D float arrays, from single-thread BLAS calls of at most
    ``_DOT_PIECE`` entries (one call, so the bits of ``a @ b``, up to that
    length).

    ``np.vdot`` runs the same BLAS ddot as ``@`` but makes no floating-point
    error check: an overflow returns ``inf`` without a ``RuntimeWarning``, so
    callers test the result for finiteness themselves.
    """
    if a.size <= _DOT_PIECE:
        return float(np.vdot(a, b))
    pieces = range(0, a.size, _DOT_PIECE)
    return sum(float(np.vdot(a[i : i + _DOT_PIECE], b[i : i + _DOT_PIECE])) for i in pieces)


#: entry types of an object array that a float cast truncates or rejects
_COMPLEX = (complex, np.complexfloating)


def _validated(x) -> tuple[np.ndarray, np.ndarray]:
    """View ``x`` as a finite 1-D float array of length >= 1 (no copy), and |x|."""
    v = np.asarray(x)
    kind = v.dtype.kind
    # a float cast drops imaginary parts, also of the NumPy complex entries
    # of an object array, raises TypeError on a Python complex entry, and
    # reads dates and durations as counts of their unit
    if kind in "mM":
        raise ValueError("vector entries must be real numbers")
    if kind == "c" or (kind == "O" and any(isinstance(e, _COMPLEX) for e in v.flat)):
        raise ValueError("vector entries must be real, not complex")
    try:
        v = np.asarray(v, dtype=float)
    except TypeError as exc:  # an object entry that is not a number
        raise ValueError(f"vector entries must be real numbers: {exc}") from None
    except OverflowError:  # an integer past the float range
        raise ValueError("vector entries must be finite") from None
    if v.ndim != 1 or v.size == 0:
        raise ValueError("expected a non-empty 1-D vector")
    # a finite largest |x| certifies every entry is finite, and up to
    # _SUM_SAFE/n their sum; only larger inputs take the sum, without the
    # overflow warning, since an overflow is a magnitude out of range
    a = np.abs(v)
    top = float(np.maximum.reduce(a))  # a.max() adds a wrapper of about 0.7 us
    if not top < math.inf:
        raise ValueError("vector entries must be finite")
    if top * a.size > _SUM_SAFE:
        with np.errstate(over="ignore"):
            if float(a.sum()) == math.inf:
                raise ValueError(f"input magnitude out of range: sum of |x| overflows (max |x| = {top!r})")
    return v, a


def as_vector(x) -> np.ndarray:
    """Copy ``x`` into a finite 1-D float array of length >= 1."""
    return _validated(x)[0].copy()


#: bound on n * x_1 under which a descending nonnegative head's sum is finite
#: (its rounding error is far below the factor 17 of headroom to the float max)
_SUM_SAFE = 1e307


def descending_vector(x) -> np.ndarray:
    """Validated view of ``x`` with descending nonnegative entries required.

    Read-only use: every operation builds fresh output arrays, so no copy is
    taken here.  A native float64 1-D array, the heads the operators pass
    on, is certified in one pass: every adjacent pair in order under ``>=``
    (which NaN fails), a nonnegative last entry, and n * x_1 <= 1e307, so
    that the entries and their sum are finite.  Any other input takes the
    full check of :func:`as_vector`, with its error types and messages.
    """
    if type(x) is np.ndarray and x.ndim == 1 and x.dtype == np.float64 and (n := x.size):
        if x[-1] >= 0.0 and float(x[0]) * n <= _SUM_SAFE and np.count_nonzero(x[:-1] >= x[1:]) == n - 1:
            return x
    v = _validated(x)[0]
    if v[-1] < 0.0 or np.count_nonzero(v[:-1] < v[1:]):
        raise ValueError("expected entries sorted in descending nonnegative order")
    return v


def _plane_vector(x_sorted) -> np.ndarray:
    x = descending_vector(x_sorted)
    if x.size != 2 or not x[0] > x[1]:
        raise ValueError("expected a sorted plane vector with x1 > x2 >= 0")
    return x


def _positive_rho(rho: float) -> float:
    try:
        rho = float(rho)
    except OverflowError:  # an integer past the float range
        rho = math.inf
    if not math.isfinite(rho) or rho <= 0.0:
        raise ValueError("rho must be a positive finite number")
    return rho


@dataclass(frozen=True)
class SignedPermutation:
    """Index reordering plus per-slot sign flips.

    ``apply`` sends a vector to its sorted-by-magnitude nonnegative form;
    ``invert`` undoes that exactly (sign flips are exact in floating point).
    Slot ``i`` of the sorted vector is ``signs[i] * v[order[i]]``.
    ``invert`` also takes a sorted head, the first m <= n slots, and puts
    zeros in the other n - m (the zero tail the ratio operators leave out).
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
        """The vector whose sorted form is ``u`` padded with zeros to length n."""
        u = np.asarray(u, dtype=float)
        if u.ndim != 1 or u.size > self.order.size:
            raise ValueError("dimension mismatch")
        out = np.zeros(self.order.size)
        out[self.order[: u.size]] = self.signs[: u.size] * u
        return out


#: longest input sorted by NumPy's stable sort; beyond it one sort of packed
#: 64-bit keys in :func:`_descending_order` is cheaper
_STABLE_SORT_MAX = 1024

#: sign of a sorted slot, indexed by "the entry is negative"
_SIGNS = np.array([1.0, -1.0])


def _descending_order(a: np.ndarray) -> np.ndarray:
    """Indices that sort the magnitudes ``a`` descending, equal ones in index
    order: ``np.argsort(-a, kind="stable")``, which :func:`normalize` checks.

    Past ``_STABLE_SORT_MAX`` entries, one sort of unique 64-bit keys:
    bits(max a) - bits(a), ordered like -a, over the index in the low b bits,
    less the ``shift`` lowest bits that do not fit.  Distinct magnitudes with
    equal kept bits then come out in index order, so this order may not be
    descending; :func:`normalize` finds that on the sorted vector and lets the
    stable sort stand in.
    """
    n = a.size
    if n <= _STABLE_SORT_MAX:
        return (-a).argsort(kind="stable")
    bits = a.view(np.uint64)
    top = bits.max()
    b = (n - 1).bit_length()
    shift = max(0, int(top - bits.min()).bit_length() + b - 64)
    low = np.uint64((1 << b) - 1)
    keys = top - bits  # in place below: fresh temporaries cost more than the passes
    keys <<= b - shift
    keys &= ~low
    keys |= np.arange(n, dtype=np.uint64)
    keys.sort()
    return (keys & low).view(np.int64)


def normalize(x) -> tuple[np.ndarray, SignedPermutation]:
    """Map ``x`` into the descending nonnegative cone.

    Ties between equal magnitudes keep their original relative order, and
    zero entries are assigned sign +1 (a ``-0.0`` entry stays ``-0.0``), so
    the permutation is deterministic: bit for bit NumPy's stable sort of
    -|x|, which :func:`_descending_order` runs or reproduces.
    Returns the sorted vector together with the permutation that produced it.
    """
    v, a = _validated(x)
    order = _descending_order(a)
    picked = v[order]
    signs = _SIGNS.take(picked < 0.0)
    picked *= signs
    # the flipped entries are the magnitudes a[order] (a -0.0 compares equal
    # to 0.0), so the packed keys' order is checked on them
    if a.size > _STABLE_SORT_MAX and not bool(np.all(picked[:-1] >= picked[1:])):
        order = (-a).argsort(kind="stable")
        picked = v[order]
        signs = _SIGNS.take(picked < 0.0)
        picked *= signs
    return picked, SignedPermutation(order=order, signs=signs)


def denormalize(u, perm: SignedPermutation) -> np.ndarray:
    """Undo :func:`normalize`: send a sorted-cone vector back to the original frame."""
    return perm.invert(as_vector(u))


def trim_zeros(x_sorted) -> tuple[np.ndarray, int]:
    """Split off trailing exact zeros; a prox of the prefix gets its zero
    tail back from :meth:`SignedPermutation.invert`."""
    x = descending_vector(x_sorted)
    nz = int(np.count_nonzero(x))
    return x[:nz].copy(), x.size - nz


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
        if not 0.0 < self.tie_tol < math.inf:  # exact for an int past the float range
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
    return 0.5 * rho * _dot(d, d) + float(f_value)


def _objective_args(w, x, rho) -> tuple[np.ndarray, np.ndarray, float]:
    """Validated arguments of an objective: a unit ``w`` of the shape of a
    sorted nonnegative ``x``, and a positive ``rho``."""
    rho = _positive_rho(rho)
    w = np.asarray(w, dtype=float)
    v = w.ravel()
    if not abs(math.sqrt(_dot(v, v)) - 1.0) <= _UNIT_ATOL:  # a NaN norm fails too
        raise ValueError("w must be a unit vector")
    x = descending_vector(x)
    if w.shape != x.shape:
        raise ValueError("dimension mismatch")
    return w, x, rho


def _objective_G_h2(w: np.ndarray, x: np.ndarray, rho: float) -> float:
    """:func:`objective_G_h2` on trusted input: a unit ``w`` of x's shape."""
    s = float(np.abs(w).sum())
    t = _dot(x, w)
    return s * s - 0.5 * rho * t * t


def objective_G_h2(w, x, rho: float) -> float:
    """Direction objective for the squared l1/l2 ratio: ||w||_1^2 - (rho/2)<x,w>^2,
    for a unit ``w`` and a sorted nonnegative ``x``."""
    w, x, rho = _objective_args(w, x, rho)
    return _objective_G_h2(w, x, rho)


def _objective_G_h1(w: np.ndarray, x: np.ndarray, rho: float) -> float:
    """:func:`objective_G_h1` on trusted input: a nonnegative unit ``w`` of x's shape."""
    t = _dot(x, w)
    return -0.5 * rho * t * t + float(np.abs(w).sum())


def objective_G_h1(w, x, rho: float) -> float:
    """Direction objective for the l1/l2 ratio: -(rho/2)<x,w>^2 + ||w||_1,
    for a nonnegative unit ``w`` and a sorted nonnegative ``x``."""
    w, x, rho = _objective_args(w, x, rho)
    if float(w.min()) < -_NEG_ATOL:
        raise ValueError("w must be nonnegative")
    return _objective_G_h1(w, x, rho)


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
    """First entry if x, validated by :func:`descending_vector`, is uniform, else None."""
    x = descending_vector(x_sorted)
    first = float(x[0])
    if first - float(x[-1]) <= UNIFORM_RTOL * first:
        return first
    return None
