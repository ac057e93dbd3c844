"""The failure rule passes the package as it is and fires on broken operators."""

import numpy as np
import pytest

import proxinv
import proxinv.cli
from proxinv import ProxSet

import checker
from workloads import ApiWorkload, PlaneRegion

SMALL = ApiWorkload(9, 2, ("short",), ("h2", "l0"), ((3, 4), (10, 4), (100, 2)))
SMALL_H1 = ApiWorkload(8, 2, ("short",), ("h1",), ((3, 4), (10, 4)))


def failures(wl, seed=3, r=0):
    ops = wl.make_round(seed, r)
    run = wl.run_round(ops)
    attempted, reasons = wl.check_round(ops, run)
    return attempted, reasons


class TinyPlane(PlaneRegion):
    GRID = (9, 9)  # odd: the cells at x1 = 1 tie for l0 and h2


@pytest.mark.parametrize("wl", [SMALL, SMALL_H1, TinyPlane()], ids=["h2-l0", "h1", "plane"])
def test_package_passes(wl):
    attempted, reasons = failures(wl)
    assert attempted > 0
    assert reasons == []


def test_plane_round_has_ties():
    wl = TinyPlane()
    invs = wl.make_round(1, 0)
    run = wl.run_round(invs)
    labels = [line.split(",")[2] for line in "".join(run.outcomes[0][1].parts).splitlines()]
    assert "tie" in labels


def test_zero_stub_fails(monkeypatch):
    monkeypatch.setattr(proxinv.h2, "prox_h2", lambda x, rho, tol=None: ProxSet(True, []))
    attempted, reasons = failures(SMALL)
    assert 0 < len(reasons) <= attempted


def _dropping(prox, keep_origin: bool):
    """Wrap ``prox`` so that tie sets lose the origin or their nonzero points."""

    def stub(x, rho, tol=None, **kw):
        ps = prox(x, rho, tol, **kw)
        if ps.contains_zero and ps.points:
            return ProxSet(keep_origin, [] if keep_origin else ps.points, g_value=ps.g_value)
        return ps

    return stub


@pytest.mark.parametrize("keep_origin", [True, False])
@pytest.mark.parametrize("fn", ["l0", "h2"])
def test_dropping_a_tied_member_fails(monkeypatch, fn, keep_origin):
    name = f"prox_{fn}"
    monkeypatch.setattr(proxinv.cli, name, _dropping(getattr(proxinv.cli, name), keep_origin))
    _, reasons = failures(TinyPlane())
    assert any("tie" in why for why in reasons)


def test_members_that_do_not_tie_fail():
    x = np.array([2.0, 0.1])
    bad = checker.SetView(True, [x.copy()])  # F(x) = 2 < F(0) = 4.01
    assert "do not tie" in checker.failure("l0", x, 2.0, bad)


def test_wrong_shape_and_non_finite_fail():
    x = np.array([2.0, 1.0, 0.5])
    assert "shape" in checker.failure("h2", x, 1.0, checker.SetView(False, [np.ones(2)]))
    assert "non-finite" in checker.failure("h2", x, 1.0, checker.SetView(False, [np.array([np.nan, 1.0, 0.0])]))


def test_brute_oracle_fires_and_passes():
    x = np.array([-2.0, 1.5, 0.25])
    good = proxinv.prox_h1(x, 1.3)
    assert checker.brute_failure("h1", x, 1.3, good) is None
    # a far-off nonzero point: the oracle's grid beats it
    assert checker.brute_failure("h1", x, 1.3, checker.SetView(False, [np.array([0.1, 0.1, 0.1])]))


def test_candidates_are_exact_for_l0():
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = rng.standard_normal(6)
        rho = float(rng.uniform(0.5, 4.0))
        ps = proxinv.prox_l0(x, rho)
        best = min([checker.objective("l0", p, x, rho) for p in ps.points] + [0.5 * rho * float(x @ x)])
        assert checker.best_candidate("l0", x, rho) >= best - 1e-12
