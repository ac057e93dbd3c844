import tracemalloc

import numpy as np
import pytest

from proxinv import brute_prox, brute_wstep, prox_h1, prox_h2, prox_l0, wstep_h2_r2
from helpers import best_f, f_value


class TestBruteWStep:
    def test_uniform_plane_direction(self):
        # strong coupling pulls the direction onto the diagonal
        alpha, rho = 1.4, 2.0  # rho*alpha^2*sqrt(2) > 2
        w, _ = brute_wstep(np.array([alpha, alpha]), rho, "h1", 1e-3)
        assert np.allclose(w, np.full(2, 1.0 / np.sqrt(2.0)), atol=2e-3)

    def test_weak_coupling_axis(self):
        w, g = brute_wstep(np.array([0.5, 0.1]), 1.0, "h2", 1e-3)
        assert np.allclose(w, [1.0, 0.0], atol=2e-3)
        assert g > 0.0

    def test_matches_planar_closed_form(self):
        x = np.array([2.5, 1.5])
        rho = 2.5
        w, g = brute_wstep(x, rho, "h2", 2e-4)
        sol = wstep_h2_r2(x, rho)
        assert np.linalg.norm(w - sol.w_star) <= 1e-3
        assert abs(g - sol.g_value) <= 1e-6

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            brute_wstep(np.array([1.0, 0.5, 0.3, 0.1]), 1.0, "h1", 1e-3)

    def test_resolution_guard(self):
        with pytest.raises(ValueError):
            brute_wstep(np.array([1.0, 0.5]), 1.0, "h1", 1e-2)

    @pytest.mark.parametrize("fn", ["h1", "h2"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_agrees_with_sphere_prox(self, fn, n):
        # scale invariance: F(r*w) = (rho/2)||x||^2 + G(w) at the best radius,
        # so a negative direction minimum is the proximal minimum shifted
        rng = np.random.default_rng(90 + n)
        compared = 0
        for _ in range(12):
            x = np.sort(rng.uniform(0.1, 2.0, n))[::-1].copy()
            rho = rng.uniform(0.5, 5.0)
            _, g = brute_wstep(x, rho, fn, 1e-3)
            _, f = brute_prox(x, rho, fn, 0.0, 1e-3, method="sphere")
            if g < 0.0:
                compared += 1
                assert abs(f - (0.5 * rho * float(x @ x) + g)) <= 1e-12
        assert compared >= 3


class TestBruteProx:
    def test_self_consistency_under_refinement(self):
        # halving the resolution moves the minimum by O(resolution^2)
        cases = [
            (np.array([2.5, 1.5]), 2.5, "h2"),
            (np.array([2.0, 1.0]), 1.0, "h1"),
        ]
        for x, rho, fn in cases:
            res = 4e-4
            _, f1 = brute_prox(x, rho, fn, 0.0, res, method="sphere")
            _, f2 = brute_prox(x, rho, fn, 0.0, res / 2, method="sphere")
            assert abs(f1 - f2) <= 10.0 * res**2 * rho * float(x @ x)

    def test_candidate_inclusion_input_point(self):
        # coarse grid cannot represent x, but x is scanned explicitly
        x = np.array([5.0, 5.0])
        u, f = brute_prox(x, 2.0, "l0", 6.0, 0.3)
        assert np.array_equal(u, x)
        assert f == pytest.approx(2.0)

    def test_candidate_inclusion_origin(self):
        x = np.array([0.05, 0.02])
        u, f = brute_prox(x, 1.0, "h2", 1.0, 0.3)
        assert np.array_equal(u, np.zeros(2))

    def test_box_matches_hard_threshold(self):
        rng = np.random.default_rng(81)
        for _ in range(20):
            x = np.sort(rng.uniform(0.0, 2.5, 2))[::-1].copy()
            rho = rng.uniform(0.5, 4.0)
            thr = np.sqrt(2.0 / rho)
            if np.any(np.abs(x - thr) < 5e-3):
                continue
            u, f = brute_prox(x, rho, "l0", x[0] + 1.0, 1e-3)
            ps = prox_l0(x, rho)
            ref = ps.points[0] if ps.points else np.zeros(2)
            assert np.array_equal(u != 0.0, ref != 0.0)
            assert abs(f - f_value("l0", ref, x, rho)) <= 10.0 * 1e-6 * rho * float(x @ x)

    def test_box_grid_memory_is_bounded(self):
        # the 2-D box grid runs in blocks of a fixed element count, so this
        # 3916 x 3916 grid stays within a few MiB
        x = np.array([2.5, 1.5])
        tracemalloc.start()
        try:
            brute_prox(x, 2.5, "h2", float(np.linalg.norm(x)) + 1.0, 1e-3, method="box")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    def test_sphere_and_box_agree(self):
        x = np.array([2.0, 1.0])
        rho = 1.0
        _, fb = brute_prox(x, rho, "h1", x[0] + 1.0, 1e-3, method="box")
        _, fs = brute_prox(x, rho, "h1", 0.0, 2e-4, method="sphere")
        assert abs(fb - fs) <= 1e-5

    def test_guards(self):
        with pytest.raises(ValueError):
            brute_prox(np.ones(3), 1.0, "h1", 1.0, 1e-3, method="box")
        with pytest.raises(ValueError):
            brute_prox(np.ones(4), 1.0, "h1", 1.0, 1e-3)
        with pytest.raises(ValueError):
            brute_prox(np.ones(2), 1.0, "huber", 1.0, 1e-3)

    def test_one_dimensional(self):
        u, f = brute_prox(np.array([1.7]), 2.0, "l0", 3.0, 1e-4)
        assert abs(u[0] - 1.7) <= 1e-3
        assert f == pytest.approx(1.0, abs=1e-5)

    @pytest.mark.parametrize("fn", ["l0", "h1", "h2"])
    @pytest.mark.parametrize(
        "x, method",
        [([2.0, -1.2, 0.7], "sphere"), ([0.2, -0.9, 1.6], "sphere"), ([1.7, -1.4], "box")],
    )
    def test_signed_unsorted_inputs(self, fn, x, method):
        # the grid solves |x| and gives the minimizer the signs of x
        x = np.array(x)
        rho = 1.5
        prox = {"l0": prox_l0, "h1": prox_h1, "h2": prox_h2}[fn]
        u, f = brute_prox(x, rho, fn, 3.0, 2e-3, method=method)
        assert f == pytest.approx(f_value(fn, u, x, rho), abs=1e-12)
        assert np.all(u * x >= 0.0)
        assert abs(f - best_f(fn, prox(x, rho), x, rho)) <= max(1e-5, 10.0 * 4e-6 * rho * float(x @ x))

    @pytest.mark.parametrize("x", [[0.1, 3.0, 0.2], [3.0, 0.1], [0.1, 3.0]])
    def test_l0_end_angles_count_zero(self, x):
        # cos(pi/2) rounds to about 6e-17; the coordinate still counts as zero,
        # so the minimizer keeps only the 3.0 entry: F = ||x||^2 - 9 + 1 at rho 2
        x = np.array(x)
        u, f = brute_prox(x, 2.0, "l0", 0.0, 1e-3, method="sphere")
        assert f == pytest.approx(1.0 + float(x @ x) - 9.0)
        assert np.max(np.abs(u - np.where(x == 3.0, 3.0, 0.0))) <= 1e-12

    @pytest.mark.parametrize("resolution", [0.0, -1e-3, np.inf, np.nan])
    def test_rejects_bad_resolution(self, resolution):
        with pytest.raises(ValueError, match="resolution"):
            brute_prox(np.array([1.0, 0.5]), 1.0, "h1", 2.0, resolution)

    @pytest.mark.parametrize("box", [0.0, -1.0, np.inf, np.nan])
    def test_rejects_bad_box_on_box_grid(self, box):
        with pytest.raises(ValueError, match="box"):
            brute_prox(np.array([1.0, 0.5]), 1.0, "h1", box, 1e-3, method="box")

    def test_sphere_grid_ignores_box(self):
        x = np.array([1.0, 0.5])
        _, f0 = brute_prox(x, 1.0, "h1", 0.0, 1e-3, method="sphere")
        _, f1 = brute_prox(x, 1.0, "h1", np.inf, 1e-3, method="sphere")
        assert f0 == f1
