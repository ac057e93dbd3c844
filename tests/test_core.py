import dataclasses

import numpy as np
import pytest

from proxinv import (
    ProxSet,
    SignedPermutation,
    Tolerances,
    as_vector,
    denormalize,
    descending_vector,
    h1_value,
    h2_value,
    normalize,
    objective_F,
    objective_G_h1,
    objective_G_h2,
    prox_h1,
    prox_h2,
    prox_l0,
    uniform_value,
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


def test_proxset_fields():
    names = [f.name for f in dataclasses.fields(ProxSet)]
    assert names == ["contains_zero", "points", "family", "g_value", "tie_truncated"]
