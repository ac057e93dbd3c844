import itertools

import numpy as np
import pytest

from proxinv import normalize, prox_l0, wrd_assemble, wstep_l0
from helpers import sorted_desc


def support_oracle(x_sorted, rho):
    """Best direction objective over every nonempty support, by enumeration."""
    n = x_sorted.size
    best = np.inf
    for k in range(1, n + 1):
        for S in itertools.combinations(range(n), k):
            sub = x_sorted[list(S)]
            nrm2 = float(sub @ sub)
            if nrm2 == 0.0:
                continue
            best = min(best, k - 0.5 * rho * nrm2)
    return best


class TestComponentwise:
    def test_keep_and_drop(self):
        ps = prox_l0([2.0, 0.5], 2.0)
        assert not ps.contains_zero
        assert np.array_equal(ps.points[0], [2.0, 0.0])

    def test_threshold_tie(self):
        # first entry sits exactly on the threshold, second below
        ps = prox_l0([1.0, 0.2], 2.0)
        assert ps.contains_zero
        assert len(ps.points) == 1
        assert np.array_equal(ps.points[0], [1.0, 0.0])

    def test_zero_vector(self):
        ps = prox_l0([0.0, 0.0, 0.0], 3.0)
        assert ps.contains_zero and ps.points == []

    def test_negative_entries_kept_exactly(self):
        ps = prox_l0([-2.0, 0.1], 2.0)
        assert np.array_equal(ps.points[0], [-2.0, 0.0])

    def test_idempotence_on_kept_entries(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            n = int(rng.integers(1, 10))
            x = rng.normal(0.0, 2.0, n)
            rho = rng.uniform(0.3, 4.0)
            ps = prox_l0(x, rho)
            for p in ps.points:
                mask = p != 0.0
                assert np.array_equal(p[mask], x[mask])

    def test_two_ties_enumerated(self):
        # threshold 1: one kept entry plus two tied entries -> 4 combinations
        x = np.array([2.0, 1.0, 1.0])
        rho = 2.0
        ps = prox_l0(x, rho)
        assert not ps.contains_zero
        assert not ps.tie_truncated
        supports = sorted(tuple(p != 0.0) for p in ps.points)
        assert supports == [
            (True, False, False),
            (True, False, True),
            (True, True, False),
            (True, True, True),
        ]
        # every member attains the same objective value up to the tie band
        from helpers import f_value

        values = [f_value("l0", p, x, rho) for p in ps.points]
        assert max(values) - min(values) <= 1e-10 * (1.0 + max(values))

    def test_tie_cap_truncates(self):
        ps = prox_l0(np.ones(4), 2.0)
        assert ps.tie_truncated
        assert ps.contains_zero  # minimal support collapses to the origin
        assert len(ps.points) == 1
        assert np.array_equal(ps.points[0], np.ones(4))

    def test_tie_cap_with_kept_entry(self):
        ps = prox_l0([3.0, 1.0, 1.0, 1.0, 1.0], 2.0)
        assert ps.tie_truncated and not ps.contains_zero
        assert np.array_equal(ps.points[0], [3.0, 1.0, 1.0, 1.0, 1.0])
        assert np.array_equal(ps.points[1], [3.0, 0.0, 0.0, 0.0, 0.0])

    def test_overflowing_squares_rejected(self):
        # x^2 and the threshold 2/rho both overflow, which read every entry as a tie
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="out of range"):
            prox_l0(np.array([3.0, 2.0, 1.0]) * 1e160, 1e-320)

    def test_overflowing_square_under_finite_threshold_rejected(self):
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="out of range"):
            prox_l0(np.array([1e200, 1.0]), 1.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "x", [np.array([3.0, 2.0, 1.0]) * 1e160, np.full(3, 1.1e154)], ids=["square", "sum"]
    )
    def test_overflow_raises_without_warning(self, x):
        # a square or their sum overflows: the ValueError is the only report
        with pytest.raises(ValueError, match="out of range"):
            prox_l0(x, 1.0)

    def test_overflowing_threshold_alone_gives_origin(self):
        # 2/rho overflows, every entry is far below sqrt(2/rho), and {0} is exact
        ps = prox_l0(np.array([3.0, 2.0, 1.0]), 1e-320)
        assert ps.contains_zero and ps.points == []
        assert ps.g_value == 1.0 - 0.5 * 1e-320 * 9.0


class TestWStep:
    def test_two_above_threshold(self):
        sol = wstep_l0(np.array([2.0, 1.5, 0.5]), 2.0)
        assert np.allclose(sol.w_star, [0.8, 0.6, 0.0])
        assert sol.g_value == pytest.approx(-4.25)
        assert sol.g_value == pytest.approx(support_oracle(np.array([2.0, 1.5, 0.5]), 2.0))

    def test_below_threshold_keeps_top(self):
        sol = wstep_l0(np.array([0.5, 0.2]), 2.0)
        assert np.array_equal(sol.w_star, [1.0, 0.0])
        assert sol.g_value == pytest.approx(0.75)

    def test_uniform_all_above(self):
        sol = wstep_l0(np.ones(3), 8.0)
        assert np.allclose(sol.w_star, np.full(3, 1.0 / np.sqrt(3.0)))
        assert sol.g_value == pytest.approx(support_oracle(np.ones(3), 8.0))

    def test_matches_support_enumeration(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(2, 8))
            x = sorted_desc(rng, 0.05, 2.5, n)
            rho = rng.uniform(0.3, 5.0)
            thr = np.sqrt(2.0 / rho)
            if np.any(np.abs(x - thr) < 1e-6):
                continue
            sol = wstep_l0(x, rho)
            assert sol.g_value == pytest.approx(support_oracle(x, rho), abs=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            wstep_l0(np.zeros(3), 1.0)


class TestPathAgreement:
    def test_componentwise_equals_wrd_path(self):
        # full agreement away from the threshold (10000 trials in acceptance)
        rng = np.random.default_rng(43)
        checked = 0
        for _ in range(2000):
            n = int(rng.integers(1, 9))
            x = rng.normal(0.0, 1.5, n)
            rho = rng.uniform(0.5, 4.0)
            thr = np.sqrt(2.0 / rho)
            if np.any(np.abs(np.abs(x) - thr) < 1e-3) or not np.any(x):
                continue
            checked += 1
            direct = prox_l0(x, rho)
            xs, perm = normalize(x)
            via_wrd = wrd_assemble(xs, rho, wstep_l0(xs, rho)).map_points(perm.invert)
            assert direct.contains_zero == via_wrd.contains_zero
            a = direct.points[0] if direct.points else np.zeros(n)
            b = via_wrd.points[0] if via_wrd.points else np.zeros(n)
            assert np.array_equal(a != 0.0, b != 0.0)
            scale = max(1.0, float(np.max(np.abs(a))))
            assert np.max(np.abs(a - b)) <= 1e-12 * scale
        assert checked > 1500
