import decimal
import math
import time
import warnings

import numpy as np
import pytest

from proxinv import (
    DEFAULT_TOLERANCES,
    brute_prox,
    brute_wstep,
    effective_tie_tol,
    h2_spectrum,
    mu,
    normalize,
    prox_h2,
    prox_h2_uniform,
    uniform_value,
    wrd_assemble,
    wstep_h2,
    wstep_h2_r2,
)
from proxinv.core import UNIFORM_RTOL, UNIFORM_SPHERE, _dot, _objective_G_h2
from proxinv.h2 import _mu
from proxinv.wrd import WStepSolution
from helpers import best_f, candidates, f_value, sorted_desc

X_REF = np.array([2.5, 1.5, 1.0, 0.5])
# direction vectors printed to four decimals for the reference input above
W_REF_25 = np.array([0.8598, 0.4481, 0.2422, 0.0363])
V_REF_18 = np.array([0.8795, 0.4294, 0.2043, -0.0207])
W_REF_18 = np.array([0.8804, 0.4286, 0.2027, 0.0])


def rank2_apply(x, rho, w):
    return 2.0 * np.sum(w) * np.ones_like(x) - rho * x * float(x @ w)


def reference_prefix_walk(x, rho):
    """Per-prefix truncation walk: from the negative-entry count down, drop
    one trailing coordinate while the negative-eigenvalue direction leaves
    the nonnegative cone.  O(n^2); returns (direction head, prefix length)."""
    k = mu(x, rho)
    if k == 0:
        return np.array([1.0]), 1
    while True:
        head = x[:k]
        if uniform_value(head) is not None:
            return np.full(k, 1.0 / np.sqrt(k)), k
        if k == 2:
            return wstep_h2_r2(head, rho).w_star, 2
        spec = h2_spectrum(head, rho)
        if spec.w_lo[-1] > 0.0:
            return spec.w_lo / np.linalg.norm(spec.w_lo), k
        k -= 1


def scan_cases(rng, count):
    """Sorted inputs of n = 3..1000 with rho log-uniform on [1e-2, 1e1]:
    Gaussian magnitudes, zero-padded tails and a leading uniform block
    above a shrunk tail."""
    kinds = ("gaussian", "zero_padded", "uniform_block")
    for i in range(count):
        n = int(rng.integers(3, 1001))
        x = np.abs(rng.normal(size=n))
        kind = kinds[i % 3]
        if kind == "zero_padded":
            x[rng.integers(1, n) :] = 0.0
        elif kind == "uniform_block":
            block = rng.integers(2, n + 1)
            x[block:] *= rng.uniform()
            x[:block] = x.max()
        yield kind, np.sort(x)[::-1].copy(), float(10.0 ** rng.uniform(-2.0, 1.0))


def full_scan_wstep_h2(x, rho):
    """wstep_h2 as it was before the block walk, in its arithmetic: the
    trailing-entry expression m - sqrt(m^2 - 2 rho s1^2) over the whole
    mu-prefix, its stops (uniform prefixes, k = 2 and positive trailing
    entries) walked from the top, each confirmed from that prefix's own
    sums.  The direct discriminant cancels on near-uniform heads; elsewhere
    it is a reference for the prefix and, within rounding, the direction."""
    rho = float(rho)
    w = np.zeros(x.size)
    k = _mu(x, rho)
    if k == 0:
        w[0] = 1.0
        g = _objective_G_h2(w, x, rho)
        if x.size == 1 or x[0] - x[1] > UNIFORM_RTOL * x[0]:
            return WStepSolution(w_star=w, g_value=g), 1
        j = int(np.count_nonzero(x[0] - x <= UNIFORM_RTOL * x[0]))
        return WStepSolution(w_star=w, g_value=g, family=UNIFORM_SPHERE, family_gap=j * g), 1

    def shift_lo(s1, s2, k):
        m = 0.5 * rho * s2 + k
        return 2.0 * rho * s1 * s1 / (m + np.sqrt(np.maximum(m * m - 2.0 * rho * s1 * s1, 0.0))) / (rho * s1)

    if k > 2:
        head, ks = x[:k], np.arange(1, k + 1)
        uniform = x[0] - head <= UNIFORM_RTOL * x[0]
        stop = uniform | (ks == 2) | (head - shift_lo(np.cumsum(head), np.cumsum(head * head), ks) > 0.0)
        for k in map(int, np.flatnonzero(stop)[::-1] + 1):
            if k == 2 or uniform[k - 1]:
                break
            w_lo = x[:k] - shift_lo(float(x[:k].sum()), _dot(x[:k], x[:k]), k)
            if w_lo[-1] > 0.0:
                w[:k] = w_lo / math.sqrt(_dot(w_lo, w_lo))
                return WStepSolution(w_star=w, g_value=_objective_G_h2(w, x, rho)), k
    head = x[:k]
    if uniform_value(head) is not None:
        w[:k] = 1.0 / np.sqrt(k)
        family = UNIFORM_SPHERE if k >= 2 else None
        return WStepSolution(w_star=w, g_value=_objective_G_h2(w, x, rho), family=family), k
    sol2 = wstep_h2_r2(head, rho)
    w[:2] = sol2.w_star
    return WStepSolution(w_star=w, g_value=sol2.g_value), 2


def vector_mu(x, rho):
    """The negative-entry count of 2 - rho*x_1*x as one vector expression,
    as ``_mu`` computed it before it bisected."""
    with np.errstate(over="ignore", invalid="ignore"):
        return int(np.count_nonzero(2.0 - rho * x[0] * x < 0.0))


def block_scan_cases(rng, count):
    """Sorted inputs of n = 1025..30000, past the scan's first block of 1024
    prefixes, with rho log-uniform on [1e-2, 10^1.5]: Gaussian and Cauchy
    magnitudes, Gaussian magnitudes rounded to 1..3 decimals (long runs of
    ties) and Gaussian magnitudes under a tied top block of 2..n/2 entries."""
    kinds = ("gaussian", "cauchy", "rounded", "tied")
    for i in range(count):
        kind = kinds[i % 4]
        n = int(rng.integers(1025, 30001))
        x = np.abs(rng.standard_cauchy(n) if kind == "cauchy" else rng.normal(size=n))
        if kind == "rounded":
            x = np.round(x, int(rng.integers(1, 4)))
        x = np.sort(x)[::-1].copy()
        if kind == "tied":
            x[: int(rng.integers(2, n // 2))] = x[0]
        yield kind, x[: np.count_nonzero(x)], float(10.0 ** rng.uniform(-2.0, 1.5))


def near_uniform_cases(rng, count):
    """Sorted inputs of n = 1025..30000 (1025..6000 for near-tied heads).
    Near-uniform heads 1 + u*s at rho = 2/(x_1 x_m) put each prefix's
    trailing entry at the rounding level of the direct discriminant: s is
    log-uniform on [1e-12, 1e-2], and within 4e-12 on near-tied heads.  Every
    third input is a Gaussian head under a tied top block, which keeps the
    draws of the generator this corpus was first pinned with."""
    kinds = ("near_uniform", "near_tied", "top_block")
    for i in range(count):
        kind = kinds[i % 3]
        n = int(rng.integers(1025, 30001 if kind != "near_tied" else 6001))
        if kind == "top_block":
            x = np.sort(np.abs(rng.normal(size=n)))[::-1].copy()
            x[: int(rng.integers(2, n // 2))] = x[0]
            yield kind, x, float(10.0 ** rng.uniform(-2.0, 1.5))
            continue
        s = 10.0 ** rng.uniform(-12.0, -2.0) if kind == "near_uniform" else rng.uniform(1e-12, 4e-12)
        x = np.sort(1.0 + rng.random(n) * s)[::-1].copy()
        yield kind, x, 2.0 / (x[0] * x[int(rng.integers(1, n))])


def decimal_walk(x, rho, last):
    """The reference prefix in 50-digit decimal: the longest one, up to mu
    and above the tied top block (the first axis on an untied head), whose
    negative-eigenvalue direction keeps a positive trailing entry (that
    floor when none does), with {k: (trailing entry > 0, gap k - alpha_hi/2)}
    for each prefix walked from mu down to it and to ``last``.  The sums of
    the doubles are exact at this precision and the walk takes them apart
    one entry at a time; the direct discriminant m^2 - 2 rho s^2 loses about
    2 log10(1 / spread) digits to cancellation, at most 24 here."""
    top = _mu(x, rho)
    floor = min(top, int(np.count_nonzero(x[0] - x <= UNIFORM_RTOL * x[0])))
    k_ref, walk = floor, {}
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        v = [decimal.Decimal(e) for e in x[:top].tolist()]
        r, s, a = decimal.Decimal(rho), sum(v), sum(e * e for e in v)
        for k in range(top, floor, -1):
            m = r * a / 2 + k
            alpha_hi = m + (m * m - 2 * r * s * s).sqrt()
            walk[k] = (v[k - 1] * alpha_hi - 2 * s > 0, k - alpha_hi / 2)
            if k_ref == floor and walk[k][0]:
                k_ref = k
            if k_ref > floor and k <= last:
                break
            s, a = s - v[k - 1], a - v[k - 1] * v[k - 1]
    return k_ref, walk


class TestSpectrum:
    def test_reference_vector_rho_25(self):
        spec = h2_spectrum(X_REF, 2.5)
        w = spec.w_lo / np.linalg.norm(spec.w_lo)
        assert np.allclose(w, W_REF_25, atol=5e-5)

    def test_reference_vector_rho_18(self):
        spec = h2_spectrum(X_REF, 1.8)
        w = spec.w_lo / np.linalg.norm(spec.w_lo)
        assert np.allclose(w, V_REF_18, atol=5e-5)

    def test_two_by_two_explicit(self):
        x = np.array([1.0, 0.0])
        spec = h2_spectrum(x, 2.0)
        assert spec.delta == pytest.approx(5.0)
        assert spec.alpha_lo == pytest.approx(3.0 - np.sqrt(5.0))
        A = 2.0 * np.ones((2, 2)) - 2.0 * np.outer(x, x)
        for lam, w in ((spec.lambda_neg, spec.w_lo), (spec.lambda_pos, spec.w_hi)):
            assert np.linalg.norm(A @ w - lam * w) <= 1e-12 * np.linalg.norm(w)

    def test_random_eigen_residuals(self):
        rng = np.random.default_rng(51)
        for _ in range(300):
            n = int(rng.integers(2, 65))
            x = sorted_desc(rng, 0.01, 3.0, n)
            rho = rng.uniform(0.2, 5.0)
            spec = h2_spectrum(x, rho)
            for lam, w in ((spec.lambda_neg, spec.w_lo), (spec.lambda_pos, spec.w_hi)):
                res = rank2_apply(x, rho, w) - lam * w
                assert np.linalg.norm(res) <= 1e-9 * np.linalg.norm(w)
            assert spec.lambda_pos + spec.lambda_neg == pytest.approx(
                2.0 * n - rho * float(x @ x), abs=1e-9
            )
            assert spec.lambda_pos > 0.0 > spec.lambda_neg
            assert spec.w_lo[0] >= 0.0
            s2 = float(x @ x)
            assert spec.delta >= (0.5 * rho * s2 - n) ** 2 - 1e-9

    def test_uniform_rejected(self):
        with pytest.raises(ValueError):
            h2_spectrum(np.ones(3), 1.0)

    @pytest.mark.parametrize("x", [[1e200, 1.0], [1e160, 5e159, 1.0]])
    def test_non_finite_sums_rejected(self, x):
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="out of range"):
            h2_spectrum(np.array(x), 1.0)

    def test_infinite_discriminant_kept(self):
        # delta overflows, but the sums are finite and w_lo stays exact
        spec = h2_spectrum(np.array([1e80, 5e79, 2e79]), 1.0)
        assert spec.delta == np.inf
        assert np.array_equal(spec.w_lo, [1e80, 5e79, 2e79])


class TestMu:
    def test_reference_vector(self):
        assert mu(X_REF, 2.5) == 4
        assert mu(X_REF, 1.8) == 4

    def test_nonnegative_first_entry(self):
        assert mu(np.array([1.0, 1.0]), 1.0) == 0

    def test_prefix_count(self):
        assert mu(np.array([3.0, 1.0, 0.1]), 1.0) == 2

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "x, rho, count",
        [
            ([2.0, 1.0, 1.0, 0.5], 1.0, 1),
            ([1e300, 1e10, 0.0, 0.0], 1e10, 2),
            ([1e300, 1e-300, 0.0, -0.0], 1e10, 2),
            ([1e10, 5e-324, 5e-324, -0.0], 1e300, 3),
            ([1.0, 5e-324, -0.0, 0.0], 1e308, 1),
            ([3.0], 1.0, 1),
            ([1.0], 1.0, 0),
            ([3.0, 2.0, 2.0], 1.0, 3),
        ],
        ids=["product-exactly-2", "inf-over-zeros", "inf-over-tiny", "inf-over-subnormal", "subnormal", "n1", "n1-none", "all"],
    )
    def test_bisection_matches_count(self, x, rho, count):
        # c*x_i == 2 is not counted; an overflowing c = rho*x_1 counts every
        # positive entry and no zero (inf*0 is NaN), without a warning
        x = np.array(x)
        assert _mu(x, rho) == vector_mu(x, rho) == count

    @pytest.mark.filterwarnings("error")
    def test_bisection_matches_count_on_scan_corpus(self):
        rng = np.random.default_rng(58)
        for kind, x, rho in scan_cases(rng, 2100):
            assert _mu(x, rho) == vector_mu(x, rho), (kind, x.size, rho)


class TestUniformProx:
    def test_above_threshold(self):
        ps = prox_h2_uniform(1.1, 3, 2.0)
        assert not ps.contains_zero
        assert np.allclose(ps.points[0], np.full(3, 1.1))

    def test_at_threshold_family(self):
        ps = prox_h2_uniform(1.0, 3, 2.0)
        assert ps.contains_zero
        assert ps.family == "uniform_sphere"
        assert np.allclose(ps.points[0], np.ones(3))

    def test_below_threshold(self):
        ps = prox_h2_uniform(0.9, 3, 2.0)
        assert ps.contains_zero and ps.points == []

    @pytest.mark.parametrize("zeros", [0, 2], ids=["head", "zero-tail"])
    def test_first_axis_ties_alone(self, zeros):
        # d = 2 - rho*alpha^2 > 0: the first axis's gap d/2 = 1.0e-9 ties,
        # the uniform direction's 9*d/2 does not, so the set is {0, alpha*e1}
        # with no family, with or without zero entries
        alpha = 0.8623314707986924
        x = np.concatenate([np.full(9, alpha), np.zeros(zeros)])
        ps = prox_h2(x, 2.68956177184776)
        assert ps.contains_zero and ps.family is None
        assert len(ps.points) == 1
        assert np.array_equal(ps.points[0], alpha * np.eye(x.size)[0])

    @pytest.mark.parametrize("alpha", [np.nan, np.inf])
    def test_non_finite_level_rejected(self, alpha):
        with pytest.raises(ValueError, match="out of range"):
            prox_h2_uniform(alpha, 3, 2.0)


class TestPlanarDirection:
    def test_inactive_cross_term(self):
        sol = wstep_h2_r2(np.array([1.0, 0.5]), 1.0)  # rho*x1*x2 = 0.5 <= 2
        assert np.array_equal(sol.w_star, [1.0, 0.0])

    def test_axis_input(self):
        sol = wstep_h2_r2(np.array([1.0, 0.0]), 10.0)
        assert np.array_equal(sol.w_star, [1.0, 0.0])

    def test_matches_spectrum_ratio(self):
        # the planar angle and the negative-eigenvalue direction agree
        x = np.array([2.0, 1.5])
        rho = 2.0
        sol = wstep_h2_r2(x, rho)
        spec = h2_spectrum(x, rho)
        w_spec = spec.w_lo / np.linalg.norm(spec.w_lo)
        assert np.allclose(sol.w_star, w_spec, atol=1e-9)

    def test_angle_in_open_arc(self):
        sol = wstep_h2_r2(np.array([2.0, 1.5]), 2.0)
        assert 0.0 < sol.w_star[1] < sol.w_star[0]


class TestDirectionSolver:
    def test_reference_no_truncation(self):
        sol, k = wstep_h2(X_REF, 2.5)
        assert k == 4
        assert np.allclose(sol.w_star, W_REF_25, atol=5e-5)

    def test_reference_one_truncation(self):
        sol, k = wstep_h2(X_REF, 1.8)
        assert k == 3
        assert np.allclose(sol.w_star, W_REF_18, atol=5e-5)

    def test_inactive_matrix_column(self):
        sol, k = wstep_h2(np.array([0.5, 0.1]), 1.0)
        assert k == 1
        assert np.array_equal(sol.w_star, [1.0, 0.0])
        assert sol.g_value == pytest.approx(0.875)

    def test_direction_beats_oracle_grid(self):
        rng = np.random.default_rng(52)
        for _ in range(30):
            n = int(rng.integers(2, 4))
            x = sorted_desc(rng, 0.1, 2.0, n)
            rho = rng.uniform(0.5, 6.0)
            sol, _ = wstep_h2(x, rho)
            _, g_grid = brute_wstep(x, rho, "h2", 1e-3)
            assert sol.g_value <= g_grid + 1e-6

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            wstep_h2(np.zeros(3), 1.0)

    def test_takes_no_tolerance(self):
        # the tie test that sets the family tag belongs to the decision step
        with pytest.raises(TypeError):
            wstep_h2(np.ones(3), 2.0, None)

    def test_scan_matches_prefix_walk(self):
        # the prefix-sum scan picks the same prefix and direction as the
        # per-prefix walk it replaces
        rng = np.random.default_rng(58)
        truncated = 0
        for kind, x, rho in scan_cases(rng, 2100):
            sol, k = wstep_h2(x, rho)
            w_head, k_ref = reference_prefix_walk(x, rho)
            assert k == k_ref, (kind, x.size, rho)
            w_ref = np.zeros(x.size)
            w_ref[:k_ref] = w_head
            assert np.max(np.abs(sol.w_star - w_ref)) <= 1e-12
            truncated += k < mu(x, rho)
        assert truncated >= 500

    def test_block_walk_matches_full_scan_within_bound(self):
        # off the near-uniform heads the direct discriminant of
        # full_scan_wstep_h2 holds, and its walk picks the right prefix:
        # the same k and family, w_star within 1e-13 and g_value within 1e-3
        # tie tolerances (at most 1.3e-14 and 1.5e-4 seen on this corpus)
        rng = np.random.default_rng(60)
        kinds = ("gaussian", "cauchy", "rounded", "tied")
        seen = dict.fromkeys(("second_block", "third_block", "tied_top", *kinds), 0)
        for kind, x, rho in block_scan_cases(rng, 300):
            sol, k = wstep_h2(x, rho)
            ref, k_ref = full_scan_wstep_h2(x, rho)
            assert k == k_ref, (kind, x.size, rho)
            assert (sol.family, sol.family_gap) == (ref.family, ref.family_gap)
            assert np.max(np.abs(sol.w_star - ref.w_star)) <= 1e-13, (kind, x.size, rho)
            tol = effective_tie_tol(DEFAULT_TOLERANCES, 0.5 * rho * _dot(x, x))
            assert abs(sol.g_value - ref.g_value) <= 1e-3 * tol, (kind, x.size, rho)
            top = _mu(x, rho)
            j = int(np.count_nonzero(x[0] - x <= UNIFORM_RTOL * x[0]))
            seen["second_block"] += top - 3072 < k <= top - 1024
            seen["third_block"] += k <= top - 3072
            seen["tied_top"] += j >= 2 and k > j
            seen[kind] += k > 1  # past the first axis
        assert min(seen.values()) >= 5, seen

    def test_block_walk_matches_decimal_reference(self):
        # near-uniform heads, where the direct discriminant of
        # full_scan_wstep_h2 cancels and its picks fall up to 18.6 tie
        # tolerances short in the gap: the pick is the 50-digit reference prefix and g_value is
        # its exact gap within 1e-3 tie tolerances.  On near-tied heads the
        # spread is a few rounding units of sqrt(rho/2)*x - 1, and the pick
        # may stop short at a prefix whose exact trailing entry is positive
        # too and whose exact gap is within 1e-12 tie tolerances of it
        cases = []
        for seed in (0, 3):
            x = np.sort(1.0 + np.random.default_rng(seed).random(20000) * 1e-7)[::-1].copy()
            cases.append((f"seed {seed}", x, 2.0 / (x[0] * x[10000])))
        cases += [c for c in near_uniform_cases(np.random.default_rng(60), 90) if c[0] != "top_block"]
        picks, short = {}, 0
        for kind, x, rho in cases:
            sol, k = wstep_h2(x, rho)
            k_ref, walk = decimal_walk(x, rho, k)
            tol = effective_tie_tol(DEFAULT_TOLERANCES, 0.5 * rho * _dot(x, x))
            if k != k_ref and kind == "near_tied":
                positive, gap = walk[k]
                assert positive and float(gap - walk[k_ref][1]) <= 1e-12 * tol, (x.size, rho)
                short += 1
            else:
                assert k == k_ref, (kind, x.size, rho)
            if k in walk:
                assert abs(sol.g_value - float(walk[k][1])) <= 1e-3 * tol, (kind, x.size, rho)
            picks[kind, x.size] = k
        pinned = picks["seed 0", 20000], picks["seed 3", 20000], picks["near_uniform", 14564]
        assert pinned == (7512, 7521, 8682)
        assert short <= 2

    def test_two_entry_pick_matches_planar_closed_form(self):
        # on an untied head with mu >= 2 the walk runs down to k = 2, where the
        # exact direction is in the cone and is the planar arctangent's: the
        # pick is the 50-digit reference's, w_star is wstep_h2_r2's within
        # 1e-13 (1.1e-14 seen) and g_value its gap within 1e-3 tie tolerances
        rng = np.random.default_rng(61)
        picks = 0
        for _ in range(10000):
            n = int(rng.integers(3, 12))
            x = np.sort(np.abs(rng.normal(size=n)))[::-1].copy()
            rho = float(10.0 ** rng.uniform(-1.0, 1.5))
            sol, k = wstep_h2(x, rho)
            if k != 2:
                continue
            picks += 1
            ref = wstep_h2_r2(x[:2], rho)
            assert sol.family is None and not np.any(sol.w_star[2:])
            assert np.max(np.abs(sol.w_star[:2] - ref.w_star)) <= 1e-13, (x, rho)
            tol = effective_tie_tol(DEFAULT_TOLERANCES, 0.5 * rho * _dot(x, x))
            assert abs(sol.g_value - ref.g_value) <= 1e-3 * tol, (x, rho)
            k_ref, walk = decimal_walk(x, rho, k)
            assert k_ref == 2 and abs(sol.g_value - float(walk[2][1])) <= 1e-3 * tol, (x, rho)
        assert picks >= 500, picks


class TestProx:
    def test_zero_input(self):
        ps = prox_h2(np.zeros(4), 2.0)
        assert ps.contains_zero and ps.points == []

    def test_small_inputs_keep_origin(self):
        rng = np.random.default_rng(53)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            rho = rng.uniform(0.5, 5.0)
            x = rng.uniform(-1.0, 1.0, n) * np.sqrt(2.0 / rho) * 0.999
            ps = prox_h2(x, rho)
            assert ps.contains_zero

    def test_signed_permutation_of_reference(self):
        x = np.array([-1.5, 2.5, 0.5, -1.0])
        ps = prox_h2(x, 2.5)
        sorted_ps = prox_h2(X_REF, 2.5)
        _, perm = normalize(x)
        assert np.allclose(perm.invert(sorted_ps.points[0]), ps.points[0], atol=1e-12)
        signs = np.sign(x)
        assert np.all(np.sign(ps.points[0]) == signs)

    def test_region_closed_forms(self):
        # x1 above threshold with inactive cross term: first-axis answer;
        # active cross term: both entries positive
        rho = 2.0
        for x1 in (1.05, 1.4, 1.8):
            for frac in (0.3, 0.7, 0.98):
                x2 = frac * 2.0 / (rho * x1)
                if x2 > x1:
                    continue
                ps = prox_h2(np.array([x1, x2]), rho)
                assert not ps.contains_zero
                assert np.allclose(ps.points[0], [x1, 0.0], atol=1e-12)
        for x1, x2 in ((1.5, 1.1), (2.0, 0.8), (1.2, 1.0)):
            ps = prox_h2(np.array([x1, x2]), rho)
            assert rho * x1 * x2 > 2.0
            assert not ps.contains_zero
            assert np.all(ps.points[0] > 0.0)

    def test_two_entry_heads_take_planar_closed_form(self):
        # the driver sends a non-uniform two-entry head, zero tail and signs
        # included, to wstep_h2_r2: the set is wrd_assemble's on it, bit for bit
        rng = np.random.default_rng(62)
        for _ in range(500):
            n = int(rng.integers(2, 6))
            x = np.zeros(n)
            x[rng.choice(n, 2, replace=False)] = rng.normal(size=2) * 10.0 ** rng.uniform(-1.0, 1.0)
            rho = float(10.0 ** rng.uniform(-1.0, 1.5))
            xs, perm = normalize(x)
            if uniform_value(xs[:2]) is not None:
                continue
            ref = wrd_assemble(xs[:2], rho, wstep_h2_r2(xs[:2], rho)).map_points(perm.invert)
            ps = prox_h2(x, rho)
            assert (ps.contains_zero, ps.family, ps.g_value) == (ref.contains_zero, ref.family, ref.g_value)
            assert len(ps.points) == len(ref.points)
            assert all(np.array_equal(p, q) for p, q in zip(ps.points, ref.points))

    def test_closed_form_coefficient(self):
        # when the negative-eigenvalue direction stays positive the prox is
        # an explicit rescaling of x minus a uniform shift
        rng = np.random.default_rng(54)
        checked = 0
        for _ in range(300):
            n = int(rng.integers(3, 8))
            x = sorted_desc(rng, 0.3, 2.5, n)
            rho = rng.uniform(1.0, 6.0)
            s1 = float(x.sum())
            s2 = float(x @ x)
            spec = None
            try:
                spec = h2_spectrum(x, rho)
            except ValueError:
                continue
            shift = spec.alpha_lo / (rho * s1)
            if x[-1] <= shift:
                continue
            checked += 1
            coef = (s2 - spec.alpha_lo / rho) / (
                s2 - 2.0 * spec.alpha_lo / rho + n * spec.alpha_lo**2 / (rho**2 * s1**2)
            )
            expected = coef * (x - shift)
            ps = prox_h2(x, rho)
            assert not ps.contains_zero
            assert np.allclose(ps.points[0], expected, atol=1e-9)
        assert checked > 50

    def test_oracle_equivalence_smoke(self):
        rng = np.random.default_rng(55)
        for _ in range(20):
            x = sorted_desc(rng, 0.1, 2.2, 2)
            rho = rng.uniform(0.3, 4.0)
            ps = prox_h2(x, rho)
            u_o, f_o = brute_prox(x, rho, "h2", 0.0, 2e-4, method="sphere")
            assert best_f("h2", ps, x, rho) <= f_o + max(1e-5, 10 * (2e-4) ** 2 * rho * (x @ x))
            d = min(np.linalg.norm(u_o - u) for u in candidates(ps, 2))
            assert d <= 1e-3

    def test_large_dimension_linear_work(self):
        # the rank-2 structure is never materialized, so large inputs are fine
        rng = np.random.default_rng(57)
        n = 20000
        x = np.sort(rng.uniform(0.01, 2.0, n))[::-1].copy()
        rho = 3.0
        ps = prox_h2(x, rho)
        assert not ps.contains_zero
        p = ps.points[0]
        f0 = 0.5 * rho * float(x @ x)
        assert f_value("h2", p, x, rho) < f0

    def test_large_dimension_runtime(self):
        # one prefix-sum scan picks the prefix; a per-prefix walk drops
        # thousands of coordinates here and runs far over the budget
        x = np.random.default_rng(59).standard_normal(20000)
        best = np.inf
        for _ in range(3):
            t0 = time.perf_counter()
            for rho in (1.0, 3.0):
                prox_h2(x, rho)
            best = min(best, time.perf_counter() - t0)
        assert best < 0.2, f"n=20000 prox_h2 at rho=1 and 3 took {best:.3f}s"

    @pytest.mark.parametrize("rho", [1.0, 3.0])
    def test_large_dimension_silent(self, rho):
        x = np.random.default_rng(59).standard_normal(20000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            prox_h2(x, rho)

    @pytest.mark.parametrize(
        "x, rho, message, most",
        [
            (np.array([3.0, 2.0, 1.0]) * 1e160, 1.0, "decision gap or F\\(0\\) is not finite", 2),
            (np.array([3.0, 2.0, 1.0]) * 1e160, 1e-300, "sum or squared norm is not finite", 2),
            (np.array([3.0, 2.0, 1.0]) * 1e160, 1e-310, "sum or squared norm is not finite", 2),
            (np.array([1e200, 1.0, 0.5]), 1.0, "decision gap or F\\(0\\) is not finite", 4),
            (np.linspace(1.0, 2.0, 2000) * 1e154, 1.0, "decision gap or F\\(0\\) is not finite", 2),
        ],
        ids=["3e160-rho1", "3e160-rho1e-300", "3e160-rho1e-310", "1e200", "linspace-1e154"],
    )
    def test_out_of_range_message_and_warnings(self, x, rho, message, most):
        # one ValueError per input, after no more numpy RuntimeWarnings than
        # the walk's block arithmetic leaves on the way there; an infinite D
        # stops the walk at the first axis, whose infinite gap is rejected
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="input magnitude out of range: " + message):
                prox_h2(x, rho)
        assert len([w for w in seen if issubclass(w.category, RuntimeWarning)]) <= most

    @pytest.mark.parametrize(
        "x, rho",
        [([1.0], 2.0), ([1.0, 0.5], 2.0 * (1 + 1e-12)), ([1.0, 0.5], 2.0), ([1.0, 0.0, 0.0], 2.0)],
        ids=["single-entry", "one-entry-prefix", "first-axis", "zero-tail"],
    )
    def test_one_point_tie_has_no_family(self, x, rho):
        # the nonnegative sphere of one coordinate is a single point
        ps = prox_h2(x, rho)
        assert ps.contains_zero and len(ps.points) == 1
        assert ps.family is None

    @pytest.mark.parametrize("x", [[1.0, 1.0, 0.5], [1.0, 1.0, 1.0, 0.2]], ids=["pair", "triple"])
    @pytest.mark.parametrize("rho", [2.0, 2.0 * (1 - 1e-12)], ids=["exact", "below"])
    def test_tied_top_block_first_axis_family(self, x, rho):
        # no entry of 2 - rho*x1*x is negative, so the first axis solves the
        # direction step; G vanishes on every unit w >= 0 on the tied block
        ps = prox_h2(x, rho)
        assert ps.contains_zero and len(ps.points) == 1
        assert ps.family == "uniform_sphere"
        assert np.array_equal(ps.points[0], np.eye(len(x))[0])

    @pytest.mark.parametrize("x", [[1.0, 1.0, 0.5], [1.0, 1.0, 1.0, 0.2]], ids=["pair", "triple"])
    def test_tied_top_block_off_tie_has_no_family(self, x):
        ps = prox_h2(x, 1.9)
        assert ps.contains_zero and ps.points == []
        assert ps.family is None

    @pytest.mark.parametrize(
        "x", [[1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 0.2], [1.0, 0.0, 1.0, 1.0, 0.2]], ids=["uniform", "block", "zero"]
    )
    @pytest.mark.parametrize(
        "scale, points, family",
        [(0.1, 1, "uniform_sphere"), (0.6, 1, None), (2.0, 0, None)],
        ids=["family-ties", "axis-ties", "none-ties"],
    )
    def test_tied_block_family_band_edge(self, x, scale, points, family):
        # a tied top block of 3 ones at rho = 2 - 2*g: the first axis has the
        # gap g and the block's widest member 3g; the tag needs both to tie
        x = np.asarray(x)
        g = scale * effective_tie_tol(DEFAULT_TOLERANCES, float(x @ x))
        ps = prox_h2(x, 2.0 - 2.0 * g)
        assert ps.contains_zero and len(ps.points) == points
        assert ps.family == family
        if points:
            # a uniform x keeps alpha*e as the family's representative
            rep = x if family and x.min() == 1.0 else np.eye(x.size)[0]
            assert np.array_equal(ps.points[0], rep)

    @pytest.mark.parametrize("x", [[1e160, 3e159], [1e160, 0.0, 3e159]])
    def test_overflowing_plane_is_out_of_range(self, x):
        # rho*x1*x2 overflows and the planar angle is NaN: the direction is
        # rejected as out of range, as its NaN gap would be
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="out of range"):
            prox_h2(x, 1.0)

    def test_zero_tail_keeps_uniform_head_family(self):
        # the zeros play no part: [1, 1, 0] ties like [1, 1]
        a, b = prox_h2([1.0, 1.0], 2.0), prox_h2([1.0, 1.0, 0.0], 2.0)
        assert a.family == b.family == "uniform_sphere"
        assert np.array_equal(b.points[0], [1.0, 1.0, 0.0])

    def test_family_tag_follows_decision(self):
        # a uniform two-entry prefix whose gap ties only on the scale of the
        # full vector's F(0): the tag must agree with the tie the decision makes
        x = np.concatenate([[1.0, 1.0], np.full(100, 0.9)])
        ps = prox_h2(x, 2.0 + 2e-9)
        assert ps.contains_zero and len(ps.points) == 1
        assert ps.family == "uniform_sphere"

    def test_family_representative_consistency(self):
        # at the uniform tie every sphere direction gives an equal objective
        rho = 2.0
        x = np.ones(3)
        ps = prox_h2(x, rho)
        assert ps.family == "uniform_sphere" and ps.contains_zero
        f0 = f_value("h2", np.zeros(3), x, rho)
        assert f_value("h2", ps.points[0], x, rho) == pytest.approx(f0, abs=1e-9)
        rng = np.random.default_rng(56)
        for _ in range(10):
            w = np.abs(rng.normal(size=3))
            w /= np.linalg.norm(w)
            member = float(x @ w) * w
            assert f_value("h2", member, x, rho) == pytest.approx(f0, abs=1e-9)
