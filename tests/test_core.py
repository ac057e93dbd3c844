import dataclasses
import fractions
import re
import warnings

import numpy as np
import pytest

import proxinv
from proxinv import (
    ProxSet,
    SignedPermutation,
    Tolerances,
    WStepSolution,
    as_vector,
    denormalize,
    descending_vector,
    h1_value,
    h2_spectrum,
    h2_value,
    mu,
    normalize,
    objective_F,
    objective_G_h1,
    objective_G_h2,
    prox_h1,
    prox_h2,
    prox_l0,
    uniform_value,
    wstep_h1,
    wstep_h1_r2,
    wstep_h2,
    wstep_h2_r2,
    wrd_assemble,
)
from helpers import assert_sets_close, random_unit_nonneg, sorted_desc


class TestVectors:
    def test_as_vector_rejects_bad_input(self):
        with pytest.raises(ValueError):
            as_vector([])
        with pytest.raises(ValueError):
            as_vector([1.0, np.nan])
        with pytest.raises(ValueError):
            as_vector([[1.0, 2.0]])

    def test_as_vector_copies(self):
        src = np.array([1.0, 2.0])
        v = as_vector(src)
        v[0] = 9.0
        assert src[0] == 1.0

    def test_descending_vector_rejects_unsorted(self):
        with pytest.raises(ValueError):
            descending_vector([1.0, 2.0])
        with pytest.raises(ValueError):
            descending_vector([2.0, -1.0])

    @pytest.mark.parametrize(
        "x",
        [
            np.array([3 + 4j, 0.5]),
            [1 + 1j, 2.0],
            np.array([2.0 + 0j, 1.0]),
            np.array([1 + 1j, 2], dtype=object),
            np.array([np.complex128(1 + 1j), 2.0], dtype=object),
        ],
    )
    @pytest.mark.parametrize(
        "fn",
        [lambda x: prox_l0(x, 1.0), lambda x: prox_h1(x, 1.0), lambda x: prox_h2(x, 1.0), normalize],
        ids=["prox_l0", "prox_h1", "prox_h2", "normalize"],
    )
    def test_complex_input_rejected(self, fn, x):
        # a float cast would drop the imaginary parts, even zero ones, or
        # raise TypeError on an object array
        with pytest.raises(ValueError, match="complex"):
            fn(x)

    def test_non_number_object_rejected(self):
        with pytest.raises(ValueError, match="real numbers"):
            as_vector(np.array([{}, 2.0], dtype=object))


def _descending_vector_reference(x):
    """``descending_vector`` by the full check alone: validation of any
    input, then the order test."""
    v = proxinv.core._validated(x)[0]
    if v[-1] < 0.0 or np.count_nonzero(v[:-1] < v[1:]):
        raise ValueError("expected entries sorted in descending nonnegative order")
    return v


class TestOnePassCheck:
    """The one-pass check of a float64 head accepts and rejects what the full
    check does, with the same result, error type and message."""

    CASES = {
        "list": [3.0, 2.0, 1.0],
        "list-unsorted": [1.0, 2.0],
        "size-1": np.array([2.0]),
        "size-1-zero": np.array([0.0]),
        "size-1-negative": np.array([-1.0]),
        "empty": np.array([]),
        "2-D": np.array([[2.0, 1.0]]),
        "sorted": np.array([3.0, 2.0, 2.0, 0.0]),
        "unsorted": np.array([3.0, 1.0, 2.0]),
        "negative-last": np.array([3.0, 2.0, -1.0]),
        "nan-first": np.array([np.nan, 2.0, 1.0]),
        "nan-middle": np.array([3.0, np.nan, 1.0]),
        "nan-last": np.array([3.0, 2.0, np.nan]),
        "inf-first": np.array([np.inf, 2.0, 1.0]),
        "minus-inf-last": np.array([3.0, 2.0, -np.inf]),
        "minus-zero-last": np.array([3.0, 2.0, -0.0]),
        "sum-overflows": np.array([1e308, 1e308]),
        "sum-at-max": np.array([1e307, 1e307, 5e306]),
        "strided": np.array([3.0, 9.0, 2.0, 9.0, 1.0])[::2],
        "int": np.array([3, 2, 1]),
        "float32": np.array([3.0, 2.0, 1.0], dtype=np.float32),
        "big-endian": np.array([3.0, 2.0, 1.0], dtype=">f8"),
        "complex": np.array([3.0 + 0j, 2.0]),
        "object": np.array([3.0, 2, 1], dtype=object),
        "object-complex": np.array([3.0, 1j], dtype=object),
        "object-non-number": np.array([3.0, {}], dtype=object),
    }

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_matches_full_check(self, name):
        x = self.CASES[name]
        try:
            want = _descending_vector_reference(x)
        except Exception as exc:
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                descending_vector(x)
            return
        got = descending_vector(x)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert (got is x) == (want is x)  # x itself, uncopied, exactly where the full check returns it


class TestDot:
    PIECE = proxinv.core._DOT_PIECE

    @pytest.mark.parametrize("n", [1, 2, 7, 100, 4097, PIECE])
    def test_one_piece_matches_matmul(self, n):
        rng = np.random.default_rng(n)
        a, b = rng.normal(size=(2, n)) * 10.0 ** rng.uniform(-100, 100, size=(2, 1))
        for u, v in ((a, b), (a, a), (a[::-1], b)):
            assert proxinv.core._dot(u, v).hex() == float(u @ v).hex()

    @pytest.mark.parametrize("n", [PIECE + 1, 2 * PIECE + 17, 3 * PIECE])
    def test_longer_is_piecewise_matmul(self, n):
        rng = np.random.default_rng(n)
        a, b = rng.normal(size=(2, n))
        want = sum(float(a[i : i + self.PIECE] @ b[i : i + self.PIECE]) for i in range(0, n, self.PIECE))
        assert proxinv.core._dot(a, b).hex() == want.hex()

    def test_overflow_is_silent(self):
        a = np.array([3.0, 2.0, 1.0]) * 1e160
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert proxinv.core._dot(a, a) == np.inf
            assert proxinv.core._dot(-a, a) == -np.inf


class TestObjectiveF:
    def test_zero_point(self):
        assert objective_F([0.0, 0.0], [3.0, 4.0], 2.0, 0.0) == pytest.approx(25.0)

    def test_zero_distance(self):
        assert objective_F([1.0, 1.0], [1.0, 1.0], 5.0, 2.0) == pytest.approx(2.0)

    def test_plain_arithmetic(self):
        assert objective_F([2.0, 0.0], [2.5, 0.5], 2.0, 1.0) == pytest.approx(1.5)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            objective_F([1.0], [1.0, 2.0], 1.0, 0.0)

    def test_rho_must_be_positive(self):
        with pytest.raises(ValueError):
            objective_F([1.0], [1.0], 0.0, 0.0)


class TestObjectiveGH2:
    def test_first_axis(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = sorted_desc(rng, 0.1, 3.0, 4)
            rho = rng.uniform(0.2, 5.0)
            e1 = np.array([1.0, 0.0, 0.0, 0.0])
            assert objective_G_h2(e1, x, rho) == pytest.approx(1.0 - 0.5 * rho * x[0] ** 2)

    def test_uniform_boundary(self):
        w = np.full(2, 1.0 / np.sqrt(2.0))
        assert objective_G_h2(w, np.ones(2), 2.0) == pytest.approx(0.0, abs=1e-12)

    def test_hand_value(self):
        assert objective_G_h2([0.8, 0.6], [2.0, 1.0], 1.0) == pytest.approx(-0.46)

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            objective_G_h2([1.0, 1.0], [1.0, 1.0], 1.0)
        with pytest.raises(ValueError):
            objective_G_h2([np.nan, 0.0], [1.0, 1.0], 1.0)


class TestObjectiveGH1:
    def test_first_axis(self):
        assert objective_G_h1([1.0, 0.0], [0.7, 0.0], 3.0) == pytest.approx(1.0 - 0.5 * 3.0 * 0.49)

    def test_second_axis(self):
        assert objective_G_h1([0.0, 1.0], [0.7, 0.0], 3.0) == pytest.approx(1.0)

    def test_diagonal_value(self):
        w = np.full(2, 1.0 / np.sqrt(2.0))
        # -(rho/2)<x,w>^2 + ||w||_1 at x = e, rho = 4
        expected = -2.0 * 2.0 + np.sqrt(2.0)
        assert objective_G_h1(w, [1.0, 1.0], 4.0) == pytest.approx(expected)

    def test_negative_entry_rejected(self):
        w = np.array([1.0, -1.0]) / np.sqrt(2.0)
        with pytest.raises(ValueError):
            objective_G_h1(w, [1.0, 1.0], 1.0)


class TestNormalize:
    def test_sign_and_order(self):
        xs, perm = normalize([-3.0, 1.0, 2.0])
        assert np.array_equal(xs, [3.0, 2.0, 1.0])
        assert np.array_equal(denormalize(xs, perm), [-3.0, 1.0, 2.0])

    def test_zeros(self):
        xs, perm = normalize([0.0, 0.0])
        assert np.array_equal(xs, [0.0, 0.0])
        assert np.array_equal(perm.order, [0, 1])
        assert np.array_equal(perm.signs, [1.0, 1.0])

    def test_stable_ties(self):
        xs, perm = normalize([1.5, -1.5])
        assert np.array_equal(xs, [1.5, 1.5])
        assert np.array_equal(perm.order, [0, 1])
        assert np.array_equal(perm.signs, [1.0, -1.0])

    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(1, 12))
            x = rng.normal(0.0, 2.0, n)
            x[rng.random(n) < 0.3] = 0.0
            if n > 2 and rng.random() < 0.5:
                x[1] = -x[0]  # force a magnitude tie
            xs, perm = normalize(x)
            assert np.all(xs[:-1] >= xs[1:]) and xs[-1] >= 0.0
            assert np.array_equal(denormalize(xs, perm), x)

    def test_apply_invert_identity(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=6)
        _, perm = normalize(x)
        u = rng.normal(size=6)
        assert np.allclose(perm.invert(perm.apply(u)), u)

    def test_dimension_mismatch(self):
        _, perm = normalize([1.0, 2.0])
        with pytest.raises(ValueError):
            perm.apply([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            perm.invert([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            perm.invert([[1.0, 2.0]])

    def test_invert_head_restores_zero_tail(self):
        # a sorted head of length m <= n comes back with zeros in the other slots
        rng = np.random.default_rng(9)
        x = rng.normal(size=7)
        _, perm = normalize(x)
        u = rng.normal(size=7)
        for m in range(8):
            padded = np.concatenate([u[:m], np.zeros(7 - m)])
            assert np.array_equal(perm.invert(u[:m]), perm.invert(padded))

    @staticmethod
    def sort_cases(rng, n):
        x = rng.normal(size=n)
        pairs = rng.normal(size=(n + 1) // 2)
        third_zero = x.copy()
        third_zero[rng.choice(n, max(1, n // 3), replace=False)] = 0.0
        signed_zero = x.copy()
        signed_zero[rng.choice(n, max(1, n // 3), replace=False)] = -0.0
        signed_zero[rng.choice(n, max(1, n // 3), replace=False)] = 0.0
        top_block = x.copy()
        b = max(1, n // 4)
        top_block[rng.choice(n, b, replace=False)] = float(np.abs(x).max()) * rng.choice([-1.0, 1.0], b)
        # sorted magnitudes with one adjacent pair out of order (at even n)
        one_swap = np.sort(np.abs(x))[::-1]
        one_swap[[n // 2, (n - 1) // 2]] = one_swap[[(n - 1) // 2, n // 2]]
        # magnitudes a few ulps to a few million ulps apart: alone they span
        # few bits and the sort keys hold them whole; with zeros among them
        # the keys drop low bits, such magnitudes share their kept bits, and
        # the stable sort stands in
        narrow = (1.0 + rng.random(n) * 10.0 ** rng.uniform(-13.0, -6.0)) * rng.choice([-1.0, 1.0], n)
        narrow_zeros = narrow.copy()
        narrow_zeros[rng.choice(n, max(1, n // 10), replace=False)] = rng.choice([0.0, -0.0], max(1, n // 10))
        ulps = (1.0 + rng.integers(0, 2**20, n) * 2.0**-52) * rng.choice([-1.0, 1.0], n)
        ulps[rng.choice(n, max(1, n // 10), replace=False)] = rng.choice([0.0, -0.0], max(1, n // 10))
        return {
            "gauss": x,
            "third_zero": third_zero,
            "signed_zero": signed_zero,
            "rounded": np.round(x, 1),
            "plus_minus": rng.permutation(np.concatenate([pairs, -pairs])[:n]),
            "all_equal": np.full(n, 0.7) * rng.choice([-1.0, 1.0], n),
            "top_block": top_block,
            "presorted": np.sort(np.round(np.abs(x), 1))[::-1] * rng.choice([-1.0, 1.0], n),
            "one_swap": one_swap,
            "narrow": narrow,
            "narrow_zeros": narrow_zeros,
            "ulps": ulps,
        }

    # 1025 is the first length past the stable-sort rule of normalize; the
    # index takes 15 bits of each sort key up to 2**15 entries, 16 past it
    @pytest.mark.dispatch
    @pytest.mark.parametrize("n", [1, 2, 3, 15, 16, 17, 100, 1000, 1025, 20000, 2**15, 2**15 + 1, 30000])
    def test_matches_stable_argsort(self, n):
        rng = np.random.default_rng(n)
        for kind, x in self.sort_cases(rng, n).items():
            order = np.argsort(-np.abs(x), kind="stable")
            picked = x[order]
            signs = np.where(picked < 0.0, -1.0, 1.0)
            xs, perm = normalize(x)
            assert np.array_equal(perm.order, order), kind
            assert perm.signs.tobytes() == signs.tobytes(), kind
            assert xs.tobytes() == (signs * picked).tobytes(), kind

    def test_matches_stable_argsort_past_repair_keys(self):
        # distinct magnitudes 2**22 ulps apart in [2, 4), one zero, and one
        # pair 1 ulp apart in the wrong index order: the zero makes the
        # packed keys drop the low bits that tell the pair apart, so its
        # keys collide out of order, and the stable sort stands in
        rng = np.random.default_rng(21)
        n = 2**21 + 3
        x = 2.0 + rng.permutation(n) * 2.0**-29
        p, q, r = rng.choice(n, 3, replace=False)
        x[min(p, q)] += 2.0**-40  # off the grid, so that one ulp up shares its key
        x[max(p, q)] = np.nextafter(x[min(p, q)], 4.0)
        x[r] = 0.0
        assert np.array_equal(normalize(x)[1].order, np.argsort(-x, kind="stable"))


class TestZeroTail:
    """Zero entries inserted into x (0.0 or -0.0, the nonzero entries kept in
    order) change no operator's answer on x's entries and are zero in every
    point: every penalty here ignores a zero coordinate."""

    @staticmethod
    def cases(rng, count):
        kinds = ("random", "tied_top", "rounded")
        for i in range(count):
            n = 1500 if i % 500 == 499 else int(rng.integers(1, 25))
            x = rng.normal(0.0, 1.5, n)
            kind = kinds[i % 3]
            if kind == "tied_top":
                j = int(rng.integers(1, n + 1))
                top = float(np.abs(x).max()) * rng.uniform(1.0, 1.5)
                x[rng.choice(n, j, replace=False)] = top * rng.choice([-1.0, 1.0], j)
            elif kind == "rounded":
                x = np.round(x, 1)
            xmax = float(np.abs(x).max())
            # every other input at the h2 tie rho = 2 / max|x|^2
            if i % 2 and xmax > 0.0:
                rho = 2.0 / (xmax * xmax)
            else:
                rho = float(10.0 ** rng.uniform(-1.0, 1.0))
            z = int(rng.integers(1, 5))
            zero = np.zeros(n + z, dtype=bool)
            zero[rng.choice(n + z, z, replace=False)] = True
            y = np.empty(n + z)
            y[~zero] = x
            y[zero] = rng.choice([0.0, -0.0], z)
            yield kind, x, y, zero, rho

    def test_zero_entries_change_nothing(self):
        rng = np.random.default_rng(10)
        for kind, x, y, zero, rho in self.cases(rng, 3000):
            for prox in (prox_l0, prox_h1, prox_h2):
                a, b = prox(x, rho), prox(y, rho)
                where = (prox.__name__, kind, x.size, rho)
                assert (b.contains_zero, b.family, b.tie_truncated, len(b.points)) == (
                    a.contains_zero,
                    a.family,
                    a.tie_truncated,
                    len(a.points),
                ), where
                for p, q in zip(a.points, b.points):
                    assert q[~zero].tobytes() == p.tobytes(), where
                    assert np.all(q[zero] == 0.0), where
                if prox is prox_l0:
                    # its gap sums the kept squares over all n entries, which
                    # rounds with the length: bound the change by that sum's
                    # scale, (rho/2)||x||^2
                    assert abs(b.g_value - a.g_value) <= 1e-15 * 0.5 * rho * float(x @ x), where
                else:
                    assert repr(b.g_value) == repr(a.g_value), where


class TestGapIdentity:
    def test_h2_gap_identity(self):
        # G equals F(<x,w>w) - F(0) with the penalty value inserted
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            x = sorted_desc(rng, 0.05, 3.0, n)
            rho = rng.uniform(0.2, 5.0)
            w = random_unit_nonneg(rng, n)
            r = float(x @ w)
            point = r * w
            gap = objective_F(point, x, rho, h2_value(point)) - objective_F(
                np.zeros(n), x, rho, 0.0
            )
            assert gap == pytest.approx(objective_G_h2(w, x, rho), abs=1e-10)

    def test_h1_gap_identity(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            x = sorted_desc(rng, 0.05, 3.0, n)
            rho = rng.uniform(0.2, 5.0)
            w = random_unit_nonneg(rng, n)
            point = float(x @ w) * w
            gap = objective_F(point, x, rho, h1_value(point)) - objective_F(
                np.zeros(n), x, rho, 0.0
            )
            assert gap == pytest.approx(objective_G_h1(w, x, rho), abs=1e-9)


class TestInvariance:
    """Signed-permutation equivariance and scale covariance for all three
    operators (small sample here; the acceptance suite runs 500 trials)."""

    PROX = {
        "l0": lambda x, rho: prox_l0(x, rho),
        "h1": lambda x, rho: prox_h1(x, rho),
        "h2": lambda x, rho: prox_h2(x, rho),
    }

    @pytest.mark.parametrize("fn", ["l0", "h1", "h2"])
    def test_permutation_equivariance(self, fn):
        rng = np.random.default_rng(21)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            x = rng.normal(0.0, 1.5, n)
            rho = rng.uniform(0.4, 5.0)
            order = rng.permutation(n)
            signs = rng.choice([-1.0, 1.0], n)
            perm = SignedPermutation(order=order, signs=signs)
            a = self.PROX[fn](perm.apply(x), rho)
            b = self.PROX[fn](x, rho).map_points(perm.apply)
            assert_sets_close(a, b, tol=1e-8)

    @pytest.mark.parametrize("fn", ["l0", "h1", "h2"])
    def test_scale_covariance(self, fn):
        rng = np.random.default_rng(22)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            x = rng.normal(0.0, 1.5, n)
            rho = rng.uniform(0.4, 5.0)
            alpha = rng.uniform(0.3, 3.0)
            a = self.PROX[fn](alpha * x, rho)
            b = self.PROX[fn](x, rho * alpha * alpha).map_points(lambda p: alpha * p)
            assert_sets_close(a, b, tol=1e-8)


class TestUniformValue:
    def test_uniform_detection(self):
        assert uniform_value([2.0, 2.0, 2.0]) == 2.0
        assert uniform_value([0.0, 0.0]) == 0.0
        assert uniform_value([3.0]) == 3.0
        assert uniform_value([2.0, 1.0]) is None
        assert uniform_value([1e-300, 0.0]) is None

    @pytest.mark.parametrize("x", [[0.5, 1.0], [], 1.0, [[1.0, 0.5]]], ids=["ascending", "empty", "scalar", "2-D"])
    def test_rejects_what_is_not_a_sorted_vector(self, x):
        # an ascending pair would read as uniform on its first entry alone
        with pytest.raises(ValueError):
            uniform_value(x)


class TestTolerances:
    def test_defaults_valid(self):
        t = Tolerances()
        assert t.tie_tol > 0
        assert [f.name for f in dataclasses.fields(Tolerances)] == ["tie_tol"]

    @pytest.mark.parametrize("kw", [{"tie_tol": 0.0}, {"tie_tol": -1.0}])
    def test_rejects_nonpositive(self, kw):
        with pytest.raises(ValueError):
            Tolerances(**kw)

    @pytest.mark.parametrize("name", ["tie_tol"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_nonfinite(self, name, value):
        with pytest.raises(ValueError):
            Tolerances(**{name: value})

    @pytest.mark.parametrize("tie_tol", [1.0, 2.0])
    def test_rejects_tie_tol_at_or_above_one(self, tie_tol):
        # (1 - tie_tol) divides the l0 thresholds
        with pytest.raises(ValueError):
            Tolerances(tie_tol=tie_tol)

    @pytest.mark.parametrize("name", ["root_tol", "pgd_tol", "max_iter"])
    def test_retired_fields_rejected(self, name):
        # no operator iterates; pgd_wstep takes its own pgd_tol and max_iter
        with pytest.raises(TypeError):
            Tolerances(**{name: 1})


class TestValidateOnce:
    """The prox functions validate x and rho once; the w-step they call
    validates the sorted head once and runs trusted kernels below it."""

    @pytest.fixture
    def counted(self, monkeypatch):
        calls = []
        for mod in (proxinv.h1, proxinv.h2):
            orig = mod.descending_vector

            def counting(x, orig=orig):
                calls.append(1)
                return orig(x)

            monkeypatch.setattr(mod, "descending_vector", counting)
        return calls

    @pytest.mark.parametrize("fn", [prox_h1, prox_h2])
    def test_one_sorted_check_per_call(self, fn, counted):
        rng = np.random.default_rng(11)
        inputs = [rng.normal(size=10), np.round(rng.normal(size=10), 1), np.full(10, -0.8)]
        inputs.append(np.concatenate([[3.0, -1.0], np.zeros(8)]))  # two nonzero entries
        for x in inputs:
            for rho in (0.05, 0.5, 3.0, 30.0):
                counted.clear()
                fn(x, rho)
                assert len(counted) <= 1

    def test_prox_h1_sorts_and_checks_once(self, monkeypatch):
        # on a head of three or more entries the w-step is the trusted
        # kernel: descending_vector runs nowhere outside normalize
        outside, depth = [], [0]
        for mod in (proxinv.core, proxinv.h1, proxinv.h2):
            orig = mod.descending_vector

            def counting(x, orig=orig):
                outside.append(depth[0] == 0)
                return orig(x)

            monkeypatch.setattr(mod, "descending_vector", counting)
        orig_normalize = proxinv.wrd.normalize

        def normalizing(x):
            depth[0] += 1
            try:
                return orig_normalize(x)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(proxinv.wrd, "normalize", normalizing)
        rng = np.random.default_rng(12)
        inputs = [rng.normal(size=n) for n in (3, 10, 100, 1000)]
        inputs += [np.concatenate([[3.0, -1.0, 0.5], np.zeros(7)]), np.array([2.0, -2.0, 2.0, 1.0])]
        inputs.append(np.array([1.35, 0.95, 0.85, 0.65, 0.15]))
        for x in inputs:
            for rho in (0.05, 0.5, 0.7783515660155081, 3.0, 30.0):
                prox_h1(x, rho)
        assert not any(outside)

    @pytest.mark.parametrize(
        "x, message",
        [
            ([1.0, 2.0, 3.0], "expected entries sorted in descending nonnegative order"),
            ([2.0, 1.0, -1.0], "expected entries sorted in descending nonnegative order"),
            ([2.0, 1.0, 0.0], "entries must be strictly positive (trim zeros first)"),
        ],
        ids=["unsorted", "negative", "zero-tail"],
    )
    def test_public_wstep_h1_checks_head(self, x, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            wstep_h1(x, 1.0)

    def test_prox_h1_out_of_range_unchanged(self):
        # F(0) overflows: the same error, after the overflow warnings of the
        # squared norms
        message = "input magnitude out of range: decision gap or F(0) is not finite"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                prox_h1(np.array([3.0, 2.0, 1.0]) * 1e160, 1e-320)
        assert all(w.category is RuntimeWarning and "overflow" in str(w.message) for w in caught), caught

    #: unsorted, negative, infinite and NaN inputs, by length
    BAD_X = {
        3: ([1.0, 2.0, 3.0], [2.0, 1.0, -1.0], [np.inf, 2.0, 1.0], [2.0, np.nan, 1.0]),
        2: ([1.0, 2.0], [1.0, -1.0], [np.inf, 1.0], [2.0, np.nan]),
    }
    GOOD_X = {3: [3.0, 2.0, 1.0], 2: [2.0, 1.0]}
    WRAPPERS = {
        "mu": (mu, 3),
        "h2_spectrum": (h2_spectrum, 3),
        "wstep_h2": (wstep_h2, 3),
        "wstep_h2_r2": (wstep_h2_r2, 2),
        "wstep_h1": (wstep_h1, 3),
        "wstep_h1_r2": (wstep_h1_r2, 2),
        "objective_G_h1": (lambda x, rho: objective_G_h1([1.0, 0.0, 0.0], x, rho), 3),
        "objective_G_h2": (lambda x, rho: objective_G_h2([1.0, 0.0, 0.0], x, rho), 3),
    }

    @pytest.mark.parametrize("name", sorted(WRAPPERS))
    def test_public_wrappers_validate(self, name):
        fn, n = self.WRAPPERS[name]
        fn(self.GOOD_X[n], 1.0)
        for x in self.BAD_X[n]:
            with pytest.raises(ValueError):
                fn(x, 1.0)
        for rho in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                fn(self.GOOD_X[n], rho)


def _outcome(fn, *args):
    """What a call gives, as comparable bytes: the result's arrays, or the
    exception's type and message."""
    try:
        out = fn(*args)
    except Exception as exc:  # every type is compared, not only ValueError
        return ("raised", type(exc).__name__, str(exc))
    if isinstance(out, ProxSet):
        return (out.contains_zero, out.family, repr(out.g_value), out.tie_truncated, [p.tobytes() for p in out.points])
    if isinstance(out, tuple):  # normalize: the sorted vector, its order and signs
        xs, perm = out
        return (xs.dtype.str, xs.tobytes(), perm.order.dtype.str, perm.order.tobytes(), perm.signs.tobytes())
    return (out.dtype.str, out.shape, out.tobytes())


@pytest.mark.dispatch
class TestShortVectorCut:
    """Up to ``core._SHORT_VECTOR`` entries the checks and reductions run on
    ``tolist()`` floats, past it as numpy calls; both sides give the same
    bytes, exception types and messages."""

    CUT = proxinv.core._SHORT_VECTOR

    @staticmethod
    def inputs(n):
        """Inputs of length n: NaN in the first, middle or last slot, +-inf,
        -0.0 entries, an overflowing sum, complex objects, and good ones."""
        rng = np.random.default_rng(n)
        base = rng.standard_normal(n)
        head = np.sort(np.abs(base))[::-1].copy()
        cases = {"signed": base, "head": head, "list": base.tolist(), "float32": base.astype(np.float32)}
        for slot in sorted({0, n // 2, n - 1}):
            for name, bad in (("nan", np.nan), ("inf", np.inf), ("-inf", -np.inf)):
                for kind, v in (("signed", base), ("head", head)):
                    y = v.copy()
                    y[slot] = bad
                    cases[f"{kind}-{name}-{slot}"] = y
        zeros = base.copy()
        zeros[rng.permutation(n)[: max(1, n // 2)]] = -0.0
        cases["minus-zero"] = zeros
        cases["all-minus-zero"] = np.full(n, -0.0)
        cases["head-minus-zero-tail"] = np.concatenate([head[: n // 2], np.full(n - n // 2, -0.0)])
        cases["sum-overflows"] = [1e308] * n
        cases["sum-overflows-array"] = np.full(n, 1e308)
        cases["object-complex"] = np.array([1 + 1j] + [1.0] * (n - 1), dtype=object)
        cases["object-numpy-complex"] = np.array([1.0] * (n - 1) + [np.complex128(2.0)], dtype=object)
        return cases

    @staticmethod
    def calls(x):
        n = np.size(x)
        out = {
            "normalize": (normalize, x),
            "as_vector": (as_vector, x),
            "descending_vector": (descending_vector, x),
            "prox_l0": (prox_l0, x, 0.7),
            "prox_h1": (prox_h1, x, 0.7),
            "prox_h2": (prox_h2, x, 0.7),
        }
        if n == 2:
            out["plane"] = (proxinv.core._plane_vector, x)
        return out

    def outcomes(self, monkeypatch, cut):
        monkeypatch.setattr(proxinv.core, "_SHORT_VECTOR", cut)
        got = {}
        for n in (1, 2, self.CUT, self.CUT + 1):
            for name, x in self.inputs(n).items():
                for call, (fn, *args) in self.calls(x).items():
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore", RuntimeWarning)
                        got[n, name, call] = _outcome(fn, *args)
        return got

    def test_both_sides_agree(self, monkeypatch):
        short = self.outcomes(monkeypatch, 10**9)
        long = self.outcomes(monkeypatch, 0)
        assert short.keys() == long.keys()
        diff = [key for key in short if short[key] != long[key]]
        assert not diff, diff[:5]
        # every kind of outcome is reached on both sides
        raised = {v[2] for v in short.values() if v[0] == "raised"}
        assert {
            "vector entries must be finite",
            "vector entries must be real, not complex",
            "expected entries sorted in descending nonnegative order",
        } <= raised
        assert any(m.startswith("input magnitude out of range: sum of |x| overflows") for m in raised)

    @pytest.mark.parametrize("cut", [0, 10**9], ids=["numpy", "floats"])
    def test_nan_past_the_first_slot_is_rejected(self, monkeypatch, cut):
        # max skips a NaN that follows a number, so max alone would let it in
        assert max([1.0, float("nan")]) == 1.0
        monkeypatch.setattr(proxinv.core, "_SHORT_VECTOR", cut)
        for fn in (normalize, descending_vector, lambda x: prox_l0(x, 1.0), lambda x: prox_h2(x, 1.0)):
            with pytest.raises(ValueError, match="^vector entries must be finite$"):
                fn(np.array([1.0, np.nan]))

    @pytest.mark.parametrize("cut", [0, 10**9], ids=["numpy", "floats"])
    def test_minus_zero_keeps_its_sign_bit(self, monkeypatch, cut):
        # a -0.0 entry takes sign +1 and stays -0.0 in the sorted vector
        monkeypatch.setattr(proxinv.core, "_SHORT_VECTOR", cut)
        xs, perm = normalize(np.array([-0.0, -2.0, 0.0]))
        assert xs.tobytes() == np.array([2.0, -0.0, 0.0]).tobytes()
        assert perm.signs.tolist() == [-1.0, 1.0, 1.0] and perm.order.tolist() == [1, 0, 2]

    @pytest.mark.parametrize("n", [1, 2, CUT, CUT + 1])
    def test_member_sign_test_agrees(self, monkeypatch, n):
        # the nonnegativity test of wrd_assemble: -5e-13 is rounding, -2e-12 is not
        x = np.linspace(2.0, 1.0, n)
        for tail in (0.0, -5e-13, -2e-12):
            w = np.zeros(n)
            w[0] = 1.0
            if n > 1:
                w[-1] = tail
            sol = WStepSolution(w_star=w, g_value=-1.0)
            got = []
            for cut in (0, 10**9):
                monkeypatch.setattr(proxinv.core, "_SHORT_VECTOR", cut)
                got.append(_outcome(wrd_assemble, x, 1.0, sol))
            assert got[0] == got[1], (n, tail)
        if n > 1:
            assert got[0] == ("raised", "ValueError", "w_star must be nonnegative")


class TestArgumentTypes:
    """A rho that is not a real number, or a tol that is neither None nor a
    ``Tolerances``, raises ``ValueError`` at every public boundary."""

    @staticmethod
    def boundaries(rho, tol):
        x = np.array([1.0, 0.5, 0.2])
        sol = WStepSolution(w_star=np.array([1.0, 0.0, 0.0]), g_value=-1.0)
        return {
            "prox_l0": lambda: prox_l0(x, rho, tol),
            "prox_h1": lambda: prox_h1(x, rho, tol),
            "prox_h2": lambda: prox_h2(x, rho, tol),
            "prox_h1_uniform": lambda: proxinv.prox_h1_uniform(0.5, 3, rho, tol),
            "prox_h2_uniform": lambda: proxinv.prox_h2_uniform(0.5, 3, rho, tol),
            "wrd_assemble": lambda: wrd_assemble(x, rho, sol, tol),
        }

    BAD_RHO = {
        "array": np.array([2.0]),
        "0-d-array": np.array(2.0),
        "none": None,
        "complex": 2 + 0j,
        "numpy-complex": np.complex128(2.0),
        "list": [2.0],
        "str": "2",
    }
    BAD_TOL = {"float": 0.5, "zero": 0, "false": False, "str": "1e-10", "tuple": (1e-10,)}
    NAMES = ["prox_l0", "prox_h1", "prox_h2", "prox_h1_uniform", "prox_h2_uniform", "wrd_assemble"]

    @pytest.mark.parametrize("name", NAMES)
    @pytest.mark.parametrize("key", sorted(BAD_RHO))
    def test_rho_not_a_real_number(self, name, key):
        rho = self.BAD_RHO[key]
        message = f"rho must be a real number, not {type(rho).__name__}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            self.boundaries(rho, None)[name]()

    @pytest.mark.parametrize("name", NAMES)
    @pytest.mark.parametrize("key", sorted(BAD_TOL))
    def test_tol_not_tolerances(self, name, key):
        tol = self.BAD_TOL[key]
        message = f"tol must be a Tolerances or None, not {type(tol).__name__}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            self.boundaries(2.0, tol)[name]()

    @pytest.mark.parametrize("name", NAMES)
    def test_real_numbers_read_as_floats(self, name):
        # ints, numpy scalars, fractions and None as tol: the results of 2.0 and the defaults
        want = _outcome(self.boundaries(2.0, Tolerances())[name])
        for rho in (2, np.float32(2.0), np.int64(2), np.float64(2.0), fractions.Fraction(2)):
            assert _outcome(self.boundaries(rho, None)[name]) == want, rho


class TestMagnitudeRange:
    """Far from unit scale every public entry point returns or raises
    ``ValueError``; no stray exception type escapes."""

    #: rho * ||x||^2 underflows in the planar factor's 2 sqrt(2)/(rho ||x||^2)
    H1_PAIR = ([1.4763095254365288e-220, 1.8629634518955913e-220], 5.802385473390564e118)
    #: rho * sum(x) underflows in the spectrum's w_hi = x - alpha_hi/(rho sum(x))
    H2_TRIPLE = (
        [1.4948621633604623e-168, -3.4358367471440997e-168, 3.023915939200362e-168],
        1.5028922017406157e-249,
    )

    def test_h1_planar_factor_underflow_keeps_origin(self):
        # the factor's term is +inf, so the first axis is the direction
        # and its gap 1 - rho x1^2/2 = 1 keeps the origin alone
        x, rho = self.H1_PAIR
        ps = prox_h1(x, rho)
        assert ps.contains_zero and ps.points == [] and ps.g_value == 1.0
        assert wstep_h1_r2(normalize(x)[0], rho).w_star.tolist() == [1.0, 0.0]

    def test_h2_spectrum_underflow_out_of_range(self):
        x, rho = self.H2_TRIPLE
        message = "input magnitude out of range: rho * sum(x) underflows to zero"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            h2_spectrum(normalize(x)[0], rho)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("op", ["prox_l0", "prox_h1", "prox_h2"])
    @pytest.mark.parametrize(
        "x, top",
        [(np.full(3, 1e308), "1e+308"), (np.array([-1e308, 0.0, 9e307]), "1e+308"), (np.full(20, 1e307), "1e+307")],
    )
    def test_overflowing_sum_rejected(self, op, x, top):
        # finite entries whose |x| sum overflows: a magnitude error naming the
        # largest entry, with no overflow warning before it
        message = f"input magnitude out of range: sum of |x| overflows (max |x| = {top})"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            getattr(proxinv, op)(x, 1.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("x", [np.full(10, 1e307), np.array([1.7e308, 1e-300]), np.array([1e308, -7e307])])
    def test_largest_finite_sums_accepted(self, x):
        # past n * max|x| = 1e307 the sum decides, quietly
        assert as_vector(x).tobytes() == x.tobytes()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("rho", [1.0, 1e-320])
    def test_prox_h1_overflow_is_quiet(self, rho):
        # the screen's squared norm and rho x1^2 overflow: no warning
        # before the decision step's error
        message = "input magnitude out of range: decision gap or F(0) is not finite"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            prox_h1(np.array([3.0, 2.0, 1.0]) * 1e160, rho)

    def test_every_entry_point_returns_or_rejects(self):
        rng = np.random.default_rng(4000)
        for _ in range(1000):
            n = int(rng.integers(2, 7))
            x = rng.choice([-1.0, 1.0], n) * 10.0 ** (rng.uniform(-320, 307) + rng.uniform(-3, 0, n))
            rho = 10.0 ** rng.uniform(-320, 307)
            head = np.sort(np.abs(x))[::-1].copy()
            plane = head[:2].copy()
            calls = [
                (proxinv.prox_l0, x, rho),
                (prox_h1, x, rho),
                (prox_h2, x, rho),
                (proxinv.prox_h1_r2, plane, rho),
                (proxinv.prox_h1_axis, head[0], rho),
                (proxinv.prox_h1_uniform, head[0], n, rho),
                (proxinv.prox_h2_uniform, head[0], n, rho),
                (proxinv.wstep_l0, head, rho),
                (wstep_h1, head, rho),
                (wstep_h2, head, rho),
                (wstep_h1_r2, plane, rho),
                (wstep_h2_r2, plane, rho),
                (h2_spectrum, head, rho),
                (mu, head, rho),
                (proxinv.classify_r2, plane, rho),
                (proxinv.sphere_qp_lambda, head, rho),
            ]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                for fn, *args in calls:
                    try:
                        fn(*args)
                    except ValueError:
                        pass
                    except Exception as exc:
                        pytest.fail(f"{fn.__name__}{tuple(args)} raised {exc!r}")

    OPS = ["prox_l0", "prox_h1", "prox_h2"]

    @pytest.mark.parametrize("op", OPS)
    @pytest.mark.parametrize("x", [[10**400, 1], [1.0, -(10**400)], np.array([10**400, 1], dtype=object)])
    def test_integer_past_float_range_rejected(self, op, x):
        # the float cast raised OverflowError
        with pytest.raises(ValueError, match="^vector entries must be finite$"):
            getattr(proxinv, op)(x, 1.0)

    @pytest.mark.parametrize("op", OPS)
    @pytest.mark.parametrize("rho", [10**400, -(10**400)])
    def test_rho_past_float_range_rejected(self, op, rho):
        with pytest.raises(ValueError, match="^rho must be a positive finite number$"):
            getattr(proxinv, op)([1.0, 0.5], rho)

    def test_tie_tol_past_float_range_rejected(self):
        # np.isfinite raised TypeError on the integer
        with pytest.raises(ValueError, match="^tie_tol must be below 1$"):
            Tolerances(10**400)
        with pytest.raises(ValueError, match="^tie_tol must be a positive finite number$"):
            Tolerances(-(10**400))

    @pytest.mark.parametrize("op", OPS)
    @pytest.mark.parametrize(
        "x",
        [np.array(["2020-01-01", "2020-01-02"], dtype="datetime64[D]"), np.array([3, 1], dtype="timedelta64[s]")],
        ids=["datetime64", "timedelta64"],
    )
    def test_dates_and_durations_rejected(self, op, x):
        # a float cast read them as counts of their unit and returned a set
        with pytest.raises(ValueError, match="^vector entries must be real numbers$"):
            getattr(proxinv, op)(x, 1.0)


def test_proxset_fields():
    names = [f.name for f in dataclasses.fields(ProxSet)]
    assert names == ["contains_zero", "points", "family", "g_value", "tie_truncated"]
