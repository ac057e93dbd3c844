"""Reference solvers that the operators are checked against; no prox calls them.

The brute-force grids (:func:`brute_prox`, :func:`brute_wstep`, dimensions
up to 3) re-derive their objectives inline, so they share no arithmetic with
the analytic solvers; projected gradient (:func:`pgd_wstep` on the cone of
:func:`project_ball_cone`) reads ``core``'s ``objective_G_h1``, and
:func:`sphere_qp_lambda` solves the full-sphere relaxation of the l1/l2
direction problem.  Grid ties are broken by the first (lexicographically
smallest) grid index, and the origin and the input point are always
evaluated explicitly regardless of grid alignment.  The proximal grids
search the nonnegative orthant on |x| and give the minimizer the signs of
x, which is exact for every sign-invariant penalty.

Every penalty here is scale invariant, so for a fixed direction w the best
radius is max(0, <x, w>) and the direction objective is F - (rho/2)||x||^2.
Both oracles therefore read one sweep of the spherical angle grid, which
exploits the outer-product structure of the 3-D parameterization
(w = [cos t1, sin t1 cos t2, sin t1 sin t2]) so the direction vectors are
never built.  On a line every nonzero u costs (rho/2)(u - x)^2 + 1 >= F(x),
so the explicit candidates are the answer there.  Both grids run in
blocks of a fixed element count, so their memory does not grow with the
box or the resolution, and each sweep builds only the penalty quantity
(l1 norm or nonzero count) that its objective reads.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import _ROOT_TOL, _dot, _positive_rho, as_vector, descending_vector, objective_G_h1

#: elements per block of both grids: it bounds their memory, and blocks this
#: small keep their temporaries in cache
_BLOCK = 1 << 14
_MAX_WSTEP_RESOLUTION = 1e-3
_SPHERE_BRANCH_NORM = 1.0 - 1e-8
_DICHOTOMY_BAND = 1e-6


def _grid_count(extent: float, resolution: float) -> int:
    """Points of the grid 0, resolution, 2 resolution, ... up to ``extent``."""
    steps = extent / resolution
    if steps == math.inf:
        raise ValueError(f"grid too large: {extent:g} / {resolution:g} steps overflow")
    return int(np.floor(steps)) + 1


def _angles(resolution: float) -> np.ndarray:
    m = _grid_count(0.5 * np.pi, resolution)
    th = np.arange(m) * resolution
    if th[-1] < 0.5 * np.pi - 1e-15:
        th = np.append(th, 0.5 * np.pi)
    return th


def _cos_sin(th: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin on the angle grid with cos set to an exact 0 at the end
    angle pi/2, where it rounds to about 6e-17 (a coordinate l0 would count)."""
    c, s = np.cos(th), np.sin(th)
    c[-1] = 0.0
    return c, s


def _sphere_min(x: np.ndarray, resolution: float, objective: str, value):
    """First-index minimum of ``value(t, fw)`` on the angle grid of the
    nonnegative unit sphere (dimensions 2 and 3).

    For a grid direction w, t = <x, w> and fw is the penalty of w under
    ``objective``: its nonzero count for "l0", ||w||_1 for "h1" and
    ||w||_1^2 for "h2"; only the quantity the objective reads is built.
    The 3-D grid w = [c1, s1*c2, s1*s2] is swept in blocks of t1-rows from
    the row vectors of (c2, s2), so the direction vectors are never built;
    the plane is the single row c1 = 0, s1 = 1 with the leading coordinate
    dropped.  Returns (value, w, t).
    """
    c, s = _cos_sin(_angles(resolution))
    a = c * x[-2] + s * x[-1]
    if x.size == 3:
        lead, c1, s1 = x[0], c[:, None], s[:, None]
    else:
        lead, c1, s1 = 0.0, np.zeros((1, 1)), np.ones((1, 1))
    if objective == "l0":
        k = (c > 0.0).astype(float) + (s > 0.0)

        def penalty(ci, si):
            return (ci > 0.0) + k * (si > 0.0)

    else:
        b = c + s

        def penalty(ci, si):
            l1 = ci + si * b
            return l1 if objective == "h1" else l1 * l1

    rows = max(1, _BLOCK // a.size)
    best, best_w, best_t = np.inf, None, 0.0
    for start in range(0, c1.shape[0], rows):
        ci, si = c1[start : start + rows], s1[start : start + rows]
        t = ci * lead + si * a
        v = value(t, penalty(ci, si))
        flat = int(np.argmin(v))
        if v.flat[flat] < best:
            i, j = divmod(flat, a.size)
            best, best_t = float(v.flat[flat]), float(t[i, j])
            best_w = np.array([ci[i, 0], si[i, 0] * c[j], si[i, 0] * s[j]])[-x.size :]
    return best, best_w, best_t


def brute_wstep(x_sorted, rho: float, objective: str, resolution: float) -> tuple[np.ndarray, float]:
    """Grid minimizer of the direction objective on the nonnegative sphere
    slice, parameterized by spherical angles (dimensions 2 and 3 only)."""
    rho = _positive_rho(rho)
    x = descending_vector(x_sorted)
    if x.size not in (2, 3):
        raise ValueError("direction oracle supports dimensions 2 and 3 only")
    if not 0.0 < resolution <= _MAX_WSTEP_RESOLUTION + 1e-15:
        raise ValueError("resolution must be in (0, 1e-3] radians")
    if objective not in ("h1", "h2"):
        raise ValueError("objective must be 'h1' or 'h2'")
    g, w, _ = _sphere_min(x, resolution, objective, lambda t, fw: fw - 0.5 * rho * t * t)
    return w, g


def _penalty_grid(U1: np.ndarray, U2: np.ndarray, objective: str) -> np.ndarray:
    if objective == "l0":
        return (U1 != 0.0).astype(float) + (U2 != 0.0).astype(float)
    n1 = np.abs(U1) + np.abs(U2)
    n2sq = U1 * U1 + U2 * U2
    r = np.where(n2sq > 0.0, n1 / np.sqrt(np.where(n2sq > 0.0, n2sq, 1.0)), 0.0)
    if objective == "h1":
        return r
    if objective == "h2":
        return r * r
    raise ValueError("objective must be 'l0', 'h1' or 'h2'")


def _penalty_point(u: np.ndarray, objective: str) -> float:
    if objective == "l0":
        return float(np.count_nonzero(u))
    n2 = float(np.linalg.norm(u))
    if n2 == 0.0:
        return 0.0
    r = float(np.abs(u).sum()) / n2
    return r if objective == "h1" else r * r


def brute_prox(
    x,
    rho: float,
    objective: str,
    box: float,
    resolution: float,
    method: str = "auto",
) -> tuple[np.ndarray, float]:
    """Grid minimizer of the proximal objective.

    ``method='box'`` sweeps [0, box]^2 (in dimension 1 the origin and the
    input point are the exact answer, so no grid runs); ``'sphere'``
    sweeps spherical angles with the radius set exactly to max(0, <x, w>),
    which is optimal for any fixed direction (dimensions 2 and 3).  The
    default picks box for n <= 2 and sphere for n = 3.  ``resolution`` must
    be positive and finite, and so must ``box`` for the box grid (the
    sphere grid ignores it).  Signed inputs are solved on |x|.
    """
    rho = _positive_rho(rho)
    x = as_vector(x)
    signs = np.where(x < 0.0, -1.0, 1.0)
    u, f = _grid_prox(np.abs(x), rho, objective, box, resolution, method)
    return signs * u, f


def _grid_prox(
    x: np.ndarray, rho: float, objective: str, box: float, resolution: float, method: str
) -> tuple[np.ndarray, float]:
    n = x.size
    if objective not in ("l0", "h1", "h2"):
        raise ValueError("objective must be 'l0', 'h1' or 'h2'")
    if method == "auto":
        method = "box" if n <= 2 else "sphere"
    if method == "box" and n > 2:
        raise ValueError("box oracle supports dimensions 1 and 2 only")
    if method == "sphere" and n not in (2, 3):
        raise ValueError("sphere oracle supports dimensions 2 and 3 only")
    if not (np.isfinite(resolution) and resolution > 0.0):
        raise ValueError("resolution must be a positive finite number")
    if method == "box" and not (np.isfinite(box) and box > 0.0):
        raise ValueError("box must be a positive finite number")

    s2 = float(x @ x)
    best_u = np.zeros(n)
    best_f = 0.5 * rho * s2  # explicit origin candidate
    fx = _penalty_point(x, objective)  # explicit input candidate
    if fx < best_f:
        best_u, best_f = x.copy(), fx

    if method == "box" and n == 2:
        m = _grid_count(box, resolution)
        vals = np.arange(m) * resolution
        d2 = 0.5 * rho * (vals - x[1]) ** 2
        rows = max(1, _BLOCK // m)
        for start in range(0, m, rows):
            U1 = vals[start : start + rows, None]
            F = 0.5 * rho * (U1 - x[0]) ** 2 + d2[None, :] + _penalty_grid(U1, vals[None, :], objective)
            flat = int(np.argmin(F))
            if F.flat[flat] < best_f:
                i, j = divmod(flat, m)
                best_u = np.array([vals[start + i], vals[j]])
                best_f = float(F.flat[flat])
    elif method == "sphere":
        half_rho_s2 = 0.5 * rho * s2

        def value(t, fw):
            r = np.clip(t, 0.0, None)
            return np.where(r > 0.0, half_rho_s2 - 0.5 * rho * r * r + fw, half_rho_s2)

        f, w, t = _sphere_min(x, resolution, objective, value)
        if f < best_f:
            best_u, best_f = max(t, 0.0) * w, f
    return best_u, best_f


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
    s2 = _dot(x, x)  # silent on overflow: an infinite s2 is rejected below

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
