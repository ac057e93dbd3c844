"""Brute-force ground truth for small dimensions.

Grid minimization of the proximal objective and of the direction objective,
kept deliberately independent of the analytic solvers: the objectives are
re-derived inline from their definitions.  Ties are broken by the first
(lexicographically smallest) grid index, and the origin and the input point
are always evaluated explicitly regardless of grid alignment.  The proximal
grids search the nonnegative orthant on |x| and give the minimizer the signs
of x, which is exact for every sign-invariant penalty.

Every penalty here is scale invariant, so for a fixed direction w the best
radius is max(0, <x, w>) and the direction objective is F - (rho/2)||x||^2.
Both oracles therefore read one sweep of the spherical angle grid, which
exploits the outer-product structure of the 3-D parameterization
(w = [cos t1, sin t1 cos t2, sin t1 sin t2]) so the direction vectors are
never built.  On a line every nonzero u costs (rho/2)(u - x)^2 + 1 >= F(x),
so the explicit candidates are the answer there.  The 2-D box grid runs in
blocks of a fixed element count, so its memory does not grow with the box.
"""

from __future__ import annotations

import numpy as np

from .core import as_vector, descending_vector, _positive_rho

#: elements per block of the 2-D box grid, which bounds its memory
_BLOCK = 1 << 18
_MAX_WSTEP_RESOLUTION = 1e-3


def _angles(resolution: float) -> np.ndarray:
    m = int(np.floor(0.5 * np.pi / resolution)) + 1
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


def _sphere_min(x: np.ndarray, resolution: float, value):
    """First-index minimum of ``value(t, l1, nnz)`` on the angle grid of the
    nonnegative unit sphere (dimensions 2 and 3).

    For a grid direction w, t = <x, w>, l1 = ||w||_1 and nnz is the count of
    nonzero coordinates of w.  The 3-D grid w = [c1, s1*c2, s1*s2] is swept
    one t1-row at a time from the column vectors of (c2, s2), so the
    direction vectors are never built; the plane is the single row c1 = 0,
    s1 = 1 with the leading coordinate dropped.  Returns (value, w, t).
    """
    c, s = _cos_sin(_angles(resolution))
    a, b, k = c * x[-2] + s * x[-1], c + s, (c > 0.0).astype(float) + (s > 0.0)
    lead, rows = (x[0], zip(c, s)) if x.size == 3 else (0.0, [(0.0, 1.0)])
    best, best_w, best_t = np.inf, None, 0.0
    for c1, s1 in rows:
        t = c1 * lead + s1 * a
        v = value(t, c1 + s1 * b, (c1 > 0.0) + (k if s1 > 0.0 else 0.0))
        j = int(np.argmin(v))
        if v[j] < best:
            best, best_t = float(v[j]), float(t[j])
            best_w = np.array([c1, s1 * c[j], s1 * s[j]])[-x.size :]
    return best, best_w, best_t


def _direction_penalty(l1, nnz, objective: str):
    """Penalty of a unit direction from its l1 norm and nonzero count."""
    if objective == "l0":
        return nnz
    return l1 if objective == "h1" else l1 * l1


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
    g, w, _ = _sphere_min(
        x, resolution, lambda t, l1, nnz: _direction_penalty(l1, nnz, objective) - 0.5 * rho * t * t
    )
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
        m = int(np.floor(box / resolution)) + 1
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

        def value(t, l1, nnz):
            r = np.clip(t, 0.0, None)
            fw = _direction_penalty(l1, nnz, objective)
            return np.where(r > 0.0, half_rho_s2 - 0.5 * rho * r * r + fw, half_rho_s2)

        f, w, t = _sphere_min(x, resolution, value)
        if f < best_f:
            best_u, best_f = max(t, 0.0) * w, f
    return best_u, best_f
