"""Brute-force ground truth for small dimensions.

Grid minimization of the proximal objective and of the direction objective,
kept deliberately independent of the analytic solvers: the objectives are
re-derived inline from their definitions.  Ties are broken by the first
(lexicographically smallest) grid index, and the origin and the input point
are always evaluated explicitly regardless of grid alignment.  The proximal
grids search the nonnegative orthant on |x| and give the minimizer the signs
of x, which is exact for every sign-invariant penalty.

The 3-D sphere sweep exploits the outer-product structure of the angular
parameterization (w = [cos t1, sin t1 cos t2, sin t1 sin t2]) so the grid
never materializes the direction vectors themselves.
"""

from __future__ import annotations

import numpy as np

from .core import as_vector, descending_vector, _positive_rho

_CHUNK = 4096
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


def _dir_g_2d(th: np.ndarray, x: np.ndarray, rho: float, objective: str) -> np.ndarray:
    c, s = np.cos(th), np.sin(th)
    t = c * x[0] + s * x[1]
    u = c + s
    if objective == "h2":
        return u * u - 0.5 * rho * t * t
    if objective == "h1":
        return -0.5 * rho * t * t + u
    raise ValueError("objective must be 'h1' or 'h2'")


def _scan_3d(th: np.ndarray, x: np.ndarray, rho: float, row_values):
    """Minimize a per-row objective over the (t1, t2) grid.

    ``row_values(c1, s1, a, b)`` maps the row scalars cos/sin(t1) and the
    column vectors a = cos(t2)*x2 + sin(t2)*x3, b = cos(t2) + sin(t2) to a
    value row.  Returns (best_value, best_w) with first-index tie-breaking.
    """
    c2, s2 = np.cos(th), np.sin(th)
    a = c2 * x[1] + s2 * x[2]
    b = c2 + s2
    c1, s1 = np.cos(th), np.sin(th)
    best = np.inf
    best_ij = (0, 0)
    for i in range(th.size):
        row = row_values(c1[i], s1[i], a, b)
        j = int(np.argmin(row))
        if row[j] < best:
            best = float(row[j])
            best_ij = (i, j)
    i, j = best_ij
    w = np.array([c1[i], s1[i] * c2[j], s1[i] * s2[j]])
    return best, w


def brute_wstep(x_sorted, rho: float, objective: str, resolution: float) -> tuple[np.ndarray, float]:
    """Grid minimizer of the direction objective on the nonnegative sphere
    slice, parameterized by spherical angles (dimensions 2 and 3 only)."""
    rho = _positive_rho(rho)
    x = descending_vector(x_sorted)
    if x.size not in (2, 3):
        raise ValueError("direction oracle supports dimensions 2 and 3 only")
    if not 0.0 < resolution <= _MAX_WSTEP_RESOLUTION + 1e-15:
        raise ValueError("resolution must be in (0, 1e-3] radians")
    th = _angles(resolution)

    if x.size == 2:
        g = _dir_g_2d(th, x, rho, objective)
        i = int(np.argmin(g))
        return np.array([np.cos(th[i]), np.sin(th[i])]), float(g[i])

    if objective == "h2":

        def row_values(c1, s1, a, b):
            t = c1 * x[0] + s1 * a
            u = c1 + s1 * b
            return u * u - 0.5 * rho * t * t

    elif objective == "h1":

        def row_values(c1, s1, a, b):
            t = c1 * x[0] + s1 * a
            return -0.5 * rho * t * t + (c1 + s1 * b)

    else:
        raise ValueError("objective must be 'h1' or 'h2'")

    g, w = _scan_3d(th, x, rho, row_values)
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

    ``method='box'`` sweeps [0, box]^n (dimensions 1 and 2); ``'sphere'``
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

    if method == "box":
        m = int(np.floor(box / resolution)) + 1
        vals = np.arange(m) * resolution
        if n == 1:
            F = 0.5 * rho * (vals - x[0]) ** 2 + (vals != 0.0).astype(float)
            i = int(np.argmin(F))
            if F[i] < best_f:
                best_u, best_f = np.array([vals[i]]), float(F[i])
            return best_u, best_f
        d2 = 0.5 * rho * (vals - x[1]) ** 2
        for start in range(0, m, _CHUNK):
            u1 = vals[start : start + _CHUNK]
            U1 = u1[:, None]
            F = 0.5 * rho * (U1 - x[0]) ** 2 + d2[None, :] + _penalty_grid(U1, vals[None, :], objective)
            flat = int(np.argmin(F))
            if F.flat[flat] < best_f:
                i, j = divmod(flat, m)
                best_u = np.array([u1[i], vals[j]])
                best_f = float(F.flat[flat])
        return best_u, best_f

    th = _angles(resolution)
    half_rho_s2 = 0.5 * rho * s2

    if n == 2:
        c, s = _cos_sin(th)
        r = np.clip(c * x[0] + s * x[1], 0.0, None)
        if objective == "l0":
            fw = (c > 0.0).astype(float) + (s > 0.0).astype(float)
        else:
            u = c + s
            fw = u if objective == "h1" else u * u
        F = np.where(r > 0.0, half_rho_s2 - 0.5 * rho * r * r + fw, half_rho_s2)
        i = int(np.argmin(F))
        if F[i] < best_f:
            best_u = r[i] * np.array([c[i], s[i]])
            best_f = float(F[i])
        return best_u, best_f

    c2, s2v = _cos_sin(th)
    a = c2 * x[1] + s2v * x[2]
    b = c2 + s2v
    if objective == "l0":
        col_counts = (c2 > 0.0).astype(float) + (s2v > 0.0).astype(float)
    best_ij = None
    for i in range(th.size):
        c1, s1 = float(c2[i]), float(s2v[i])
        r = np.clip(c1 * x[0] + s1 * a, 0.0, None)
        if objective == "l0":
            fw = (1.0 if c1 > 0.0 else 0.0) + (col_counts if s1 > 0.0 else 0.0)
        else:
            u = c1 + s1 * b
            fw = u if objective == "h1" else u * u
        F = np.where(r > 0.0, half_rho_s2 - 0.5 * rho * r * r + fw, half_rho_s2)
        j = int(np.argmin(F))
        if F[j] < best_f:
            best_f = float(F[j])
            best_ij = (i, j, float(r[j]))
    if best_ij is not None:
        i, j, rbest = best_ij
        c1, s1 = float(c2[i]), float(s2v[i])
        best_u = rbest * np.array([c1, s1 * float(c2[j]), s1 * float(s2v[j])])
    return best_u, best_f
