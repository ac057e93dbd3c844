"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Draw distributions are fixed-seed and chosen so the
stated tolerances are meaningful (moderate magnitudes, no adversarial
near-ties unless the criterion targets them).
"""

import io
import json
import time
from contextlib import redirect_stdout

import numpy as np

from proxinv import (
    SignedPermutation,
    brute_prox,
    curves_intersection_kappa,
    h2_spectrum,
    normalize,
    pgd_wstep,
    project_ball_cone,
    prox_h1,
    prox_h1_axis,
    prox_h1_r2,
    prox_h1_uniform,
    prox_h2,
    prox_h2_uniform,
    prox_l0,
    sphere_qp_lambda,
    wrd_assemble,
    wstep_h1,
    wstep_h1_r2,
    wstep_h2,
    wstep_l0,
)
from proxinv.cli import main as cli_main
from helpers import assert_sets_close, best_f, candidates, sorted_desc

X_REF = np.array([2.5, 1.5, 1.0, 0.5])
W_REF_25 = np.array([0.8598, 0.4481, 0.2422, 0.0363])
W_REF_18 = np.array([0.8804, 0.4286, 0.2027, 0.0])


def report(num, name):
    def decorator(fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance {num:02d}] {name}: FAIL")
                raise
            print(f"[acceptance {num:02d}] {name}: PASS ({time.perf_counter() - start:.2f}s)")

        wrapper.__name__ = fn.__name__
        return wrapper

    return decorator


@report(1, "reference-vector direction reproduction")
def test_01_reference_vector_reproduction():
    sol25, k25 = wstep_h2(X_REF, 2.5)
    assert np.max(np.abs(sol25.w_star - W_REF_25)) <= 5e-4
    assert k25 == 4

    sol18, k18 = wstep_h2(X_REF, 1.8)
    assert np.max(np.abs(sol18.w_star - W_REF_18)) <= 5e-4
    assert k18 == 3  # exactly one truncation step from the negative count 4

    buf = io.StringIO()
    with redirect_stdout(buf):
        assert cli_main(["spectrum", "--rho", "2.5", "--x", "2.5,1.5,1,0.5"]) == 0
    payload = json.loads(buf.getvalue())
    assert np.max(np.abs(np.array(payload["w_lo"]) - W_REF_25)) <= 5e-4

    best = np.inf
    for _ in range(5):
        t0 = time.perf_counter()
        wstep_h2(X_REF, 2.5)
        wstep_h2(X_REF, 1.8)
        best = min(best, time.perf_counter() - t0)
    assert best < 1e-3, f"direction solve took {best * 1e3:.3f} ms"


@report(2, "eigenstructure suite (1000 random instances)")
def test_02_eigenstructure_suite():
    rng = np.random.default_rng(2002)
    t0 = time.perf_counter()
    for _ in range(1000):
        n = int(rng.integers(2, 65))
        x = sorted_desc(rng, 0.01, 3.0, n)
        rho = rng.uniform(0.2, 5.0)
        spec = h2_spectrum(x, rho)
        for lam, w in ((spec.lambda_neg, spec.w_lo), (spec.lambda_pos, spec.w_hi)):
            res = 2.0 * np.sum(w) * np.ones(n) - rho * x * float(x @ w) - lam * w
            assert np.linalg.norm(res) <= 1e-9 * np.linalg.norm(w)
        assert abs(spec.lambda_pos + spec.lambda_neg - (2.0 * n - rho * float(x @ x))) <= 1e-9
        assert spec.lambda_pos > 0.0 > spec.lambda_neg
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"eigenstructure suite took {elapsed:.2f}s"


@report(3, "hard-threshold equivalence (10000 random vectors)")
def test_03_counting_prox_equivalence():
    rng = np.random.default_rng(2003)
    instances = []
    while len(instances) < 10000:
        x = rng.normal(0.0, 1.5, 6)
        rho = rng.uniform(0.5, 4.0)
        thr = np.sqrt(2.0 / rho)
        if np.any(np.abs(np.abs(x) - thr) < 1e-3) or not np.any(x):
            continue
        instances.append((x, rho))

    t0 = time.perf_counter()
    for x, rho in instances:
        direct = prox_l0(x, rho)
        xs, perm = normalize(x)
        via_wrd = wrd_assemble(xs, rho, wstep_l0(xs, rho)).map_points(perm.invert)
        assert direct.contains_zero == via_wrd.contains_zero
        assert bool(direct.points) == bool(via_wrd.points)
        if not direct.points:
            continue
        a = direct.points[0].tolist()
        b = via_wrd.points[0].tolist()
        scale = max(1.0, max(abs(ai) for ai in a))
        for ai, bi, xi in zip(a, b, x.tolist()):
            if ai != 0.0:
                assert bi != 0.0  # supports match exactly
                assert ai == xi  # kept values are the inputs, bitwise
                assert abs(ai - bi) <= 1e-12 * scale
            else:
                assert bi == 0.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"equivalence run took {elapsed:.2f}s"


@report(4, "oracle equivalence for the squared ratio")
def test_04_oracle_equivalence_h2():
    rng = np.random.default_rng(2004)
    t0 = time.perf_counter()
    for trial in range(300):
        if trial < 200:
            x = sorted_desc(rng, 0.1, 2.2, 2)
            rho = rng.uniform(0.3, 4.0)
            res = 2e-4
        else:
            x = sorted_desc(rng, 0.15, 0.95, 3)
            rho = rng.uniform(1.0, 8.0)
            res = 5e-4
        ps = prox_h2(x, rho)
        u_o, f_o = brute_prox(x, rho, "h2", 0.0, res, method="sphere")
        bound = max(1e-5, 10.0 * res**2 * rho * float(x @ x))
        assert abs(best_f("h2", ps, x, rho) - f_o) <= bound
        d = min(np.linalg.norm(u_o - u) for u in candidates(ps, x.size))
        assert d <= 1e-3
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"h2 oracle run took {elapsed:.1f}s"


@report(5, "oracle equivalence for the plain ratio")
def test_05_oracle_equivalence_h1():
    rng = np.random.default_rng(2005)
    t0 = time.perf_counter()

    compared = 0
    for _ in range(500):
        x = sorted_desc(rng, 0.1, 2.2, 2)
        if x[0] - x[1] < 1e-9:
            continue
        rho = rng.uniform(0.3, 6.0)
        res = 2e-4
        ps = prox_h1_r2(x, rho)
        u_o, f_o = brute_prox(x, rho, "h1", 0.0, res, method="sphere")
        bound = max(1e-5, 10.0 * res**2 * rho * float(x @ x))
        assert abs(best_f("h1", ps, x, rho) - f_o) <= bound
        d = min(np.linalg.norm(u_o - u) for u in candidates(ps, 2))
        assert d <= 1e-3
        # projected gradient against the exact planar direction
        closed = wstep_h1_r2(x, rho)
        sol = pgd_wstep(x, rho, project_ball_cone(0.5 * x / np.linalg.norm(x)))
        if not sol.origin and sol.g_value < -1e-8 and closed.g_value < -1e-8:
            compared += 1
            assert np.linalg.norm(sol.w_star - closed.w_star) <= 1e-5
    assert compared > 100

    compared_3d = 0
    for _ in range(100):
        x = sorted_desc(rng, 0.15, 0.95, 3)
        rho = rng.uniform(1.0, 8.0)
        res = 5e-4
        ps = prox_h1(x, rho)
        u_o, f_o = brute_prox(x, rho, "h1", 0.0, res, method="sphere")
        bound = max(1e-5, 10.0 * res**2 * rho * float(x @ x))
        assert abs(best_f("h1", ps, x, rho) - f_o) <= bound
        d = min(np.linalg.norm(u_o - u) for u in candidates(ps, 3))
        assert d <= 1e-3
        # the exact support scan against projected gradient: never a higher
        # objective, and the same direction where both are decisively negative
        exact = wstep_h1(x, rho)
        for w0 in (project_ball_cone(0.5 * x / np.linalg.norm(x)), x / np.linalg.norm(x)):
            sol = pgd_wstep(x, rho, w0)
            if sol.origin:
                continue
            assert exact.g_value <= sol.g_value + 1e-9
            if sol.g_value < -1e-8:
                compared_3d += 1
                assert np.linalg.norm(sol.w_star - exact.w_star) <= 1e-5
    assert compared_3d > 100
    elapsed = time.perf_counter() - t0
    assert elapsed < 180.0, f"h1 oracle run took {elapsed:.1f}s"


@report(6, "threshold boundary flips")
def test_06_threshold_boundaries():
    eps = 1e-6
    for rho in (0.7, 2.0, 5.0):
        for n in (1, 2, 5):
            thr = np.sqrt(2.0 / rho)
            below = prox_h2_uniform(thr * (1 - eps), n, rho)
            assert below.contains_zero and below.points == []
            above = prox_h2_uniform(thr * (1 + eps), n, rho)
            assert not above.contains_zero
            at = prox_h2_uniform(thr, n, rho)
            assert at.contains_zero and len(at.points) == 1

            thr1 = np.sqrt(2.0 / (rho * np.sqrt(n)))
            below = prox_h1_uniform(thr1 * (1 - eps), n, rho)
            assert below.contains_zero and below.points == []
            above = prox_h1_uniform(thr1 * (1 + eps), n, rho)
            assert not above.contains_zero
            at = prox_h1_uniform(thr1, n, rho)
            assert at.contains_zero and len(at.points) == 1

        thr = np.sqrt(2.0 / rho)
        assert prox_h1_axis(thr * (1 - eps), rho).contains_zero
        assert not prox_h1_axis(thr * (1 + eps), rho).contains_zero
        at = prox_h1_axis(thr, rho)
        assert at.contains_zero and len(at.points) == 1


def _region_rows(fn, rho, xmax, grid):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(
            [
                "region", "--fn", fn, "--rho", str(rho), "--xmax", str(xmax),
                "--grid", str(grid), "--mode", "prox-map",
            ]
        )
    assert code == 0
    rows = []
    for line in buf.getvalue().strip().splitlines():
        parts = line.split(",")
        rows.append((float(parts[0]), float(parts[1]), parts[2], float(parts[3]), float(parts[4])))
    return rows


@report(7, "plane region maps on a 400x400 grid")
def test_07_region_maps():
    t0 = time.perf_counter()
    rho, xmax, grid = 2.0, 2.0, 400
    h = xmax / grid
    band = 1.5 * h
    thr = np.sqrt(2.0 / rho)  # = 1

    rows = _region_rows("h2", rho, xmax, grid)
    assert len(rows) == grid * (grid + 1) // 2
    for x1, x2, label, u1, u2 in rows:
        if abs(x1 - thr) <= band:
            continue
        if x1 < thr:
            assert label == "zero", f"cell ({x1},{x2})"
        else:
            assert label == "nonzero"
            hyper = 2.0 / (rho * x1)
            if x2 < hyper - band:
                assert u2 == 0.0 and u1 == x1
            elif x2 > hyper + band:
                assert u1 > 0.0 and u2 > 0.0

    rows = _region_rows("h1", rho, xmax, grid)
    for x1, x2, label, _, _ in rows:
        kappa = x2 / x1
        s2_thr = np.sqrt(2.0 * (1.0 + kappa) / (rho * (1.0 + kappa**2) ** 1.5))
        in_s1 = x1 > thr + band
        in_s2 = x1 > s2_thr + band
        if in_s1 or in_s2:
            assert label == "nonzero", f"cell ({x1},{x2})"
        if np.hypot(x1, x2) < thr - band:
            assert label == "zero", f"cell ({x1},{x2})"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"region maps took {elapsed:.1f}s"


@report(8, "curve-intersection constant")
def test_08_curve_intersection_constant():
    k = curves_intersection_kappa()
    assert abs(k - 0.6124) <= 5e-5


@report(9, "invariance suite (500 trials per operator)")
def test_09_invariance_suite():
    prox = {
        "l0": lambda x, rho: prox_l0(x, rho),
        "h1": lambda x, rho: prox_h1(x, rho),
        "h2": lambda x, rho: prox_h2(x, rho),
    }
    rng = np.random.default_rng(2009)
    for fn in ("l0", "h1", "h2"):
        for _ in range(500):
            n = int(rng.integers(2, 7))
            x = rng.normal(0.0, 1.5, n)
            rho = rng.uniform(0.4, 5.0)
            order = rng.permutation(n)
            signs = rng.choice([-1.0, 1.0], n)
            perm = SignedPermutation(order=order, signs=signs)
            a = prox[fn](perm.apply(x), rho)
            b = prox[fn](x, rho).map_points(perm.apply)
            assert_sets_close(a, b, tol=1e-8)

            alpha = rng.uniform(0.3, 3.0)
            a = prox[fn](alpha * x, rho)
            b = prox[fn](x, rho * alpha * alpha).map_points(lambda p: alpha * p)
            assert_sets_close(a, b, tol=1e-8)


@report(10, "projected-gradient behavior and sphere-relaxation diagnostic")
def test_10_pgd_behavior():
    rng = np.random.default_rng(2010)
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        x = sorted_desc(rng, 0.05, 2.0, n)
        rho = rng.uniform(0.3, 6.0)
        trace = []
        sol = pgd_wstep(x, rho, project_ball_cone(0.5 * x / np.linalg.norm(x)), trace=trace)
        vals = np.array(trace)
        assert np.all(np.diff(vals) <= 1e-12 * (1.0 + np.abs(vals[:-1])))
        assert sol.limit_norm <= 1e-6 or sol.limit_norm >= 1.0 - 1e-6

    for _ in range(200):
        n = int(rng.integers(2, 9))
        x = sorted_desc(rng, 0.05, 2.0, n)
        rho = rng.uniform(0.3, 4.0)
        lam, w = sphere_qp_lambda(x, rho)
        s1, s2 = float(x.sum()), float(x @ x)
        q = lam - rho * s2
        residual = (
            q**4
            + 2 * rho * s2 * q**3
            + (rho**2 * s2**2 - n) * q**2
            - 2 * rho * s1**2 * q
            - rho**2 * s1**2 * s2
        )
        assert abs(residual) <= 1e-9
        assert abs(np.linalg.norm(w) - 1.0) <= 1e-9
        assert np.all(w < 0.0)
