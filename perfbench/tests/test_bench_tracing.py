"""Traced mode: wrappers are restored, counts repeat, self time is exclusive."""

import proxinv
import proxinv.cli
from proxinv import core

import tracing
from test_bench_checker import SMALL, SMALL_H1, TinyPlane


def snapshot():
    """The objects the traced names are bound to right now."""
    names = {
        (mod_name, attr): getattr(getattr(proxinv, mod_name), attr)
        for mod_name, attrs in tracing.TARGETS.items()
        for attr in attrs
    }
    names[("SignedPermutation", "invert")] = core.SignedPermutation.__dict__["invert"]
    return names


def traced_counts(wl, seed=5):
    ops = wl.make_round(seed, 0)
    tracer = tracing.Tracer()
    with tracer:
        wl.run_round(ops, tracer)
    return tracer


def test_every_name_is_restored():
    before = snapshot()
    tracer = tracing.Tracer()
    with tracer:
        assert all(snapshot()[key] is not orig for key, orig in before.items())
        for wl in (SMALL, SMALL_H1, TinyPlane()):
            wl.run_round(wl.make_round(1, 0), tracer)
    after = snapshot()
    assert all(after[key] is orig for key, orig in before.items())


def test_names_are_restored_when_an_op_raises():
    before = snapshot()
    try:
        with tracing.Tracer():
            proxinv.h2.prox_h2([1.0, float("nan")], 1.0)
    except ValueError:
        pass
    after = snapshot()
    assert all(after[key] is orig for key, orig in before.items())


def test_counts_repeat_for_a_seed():
    for wl in (SMALL, SMALL_H1, TinyPlane()):
        a, b = traced_counts(wl), traced_counts(wl)
        assert a.calls == b.calls
        assert (a.truncation_steps, a.spectrum_accepted, a.pgd_iterations, a.pgd_wins) == (
            b.truncation_steps,
            b.spectrum_accepted,
            b.pgd_iterations,
            b.pgd_wins,
        )
        assert sum(a.calls.values()) > 0


def test_layers_are_seen():
    t = traced_counts(SMALL)
    assert t.calls["h2.prox_h2"] > 0 and t.calls["l0.prox_l0"] > 0
    assert t.calls["core.descending_vector"] > 0 and t.calls["core.invert"] > 0
    assert t.calls["h2.h2_spectrum"] >= t.spectrum_accepted
    t = traced_counts(SMALL_H1)
    assert t.calls["h1.pgd_wstep"] == len(t.pgd_iterations) > 0
    assert t.pgd_wins >= 1
    t = traced_counts(TinyPlane())
    assert t.calls["cli.region"] == 6
    assert t.calls["h1.pgd_wstep"] == 0 and t.calls["h2.h2_spectrum"] == 0


def test_self_time_excludes_children():
    t = tracing.Tracer()
    outer = t.enter("a")
    inner = t.enter("b")
    t.leave(inner)
    t.leave(outer)
    (_, _, a_start, a_end, a_parent, _), (b_id, _, b_start, b_end, b_parent, _) = sorted(
        t.spans, key=lambda s: s[1]
    )
    assert a_parent is None and b_parent == 0
    assert t.self_ns["a"] == (a_end - a_start) - (b_end - b_start)
    assert t.self_ns["b"] == t.total_ns["b"]


def test_span_store_is_bounded_but_counts_are_not():
    t = tracing.Tracer(max_spans=3)
    for _ in range(10):
        t.leave(t.enter("x"))
    assert len(t.spans) == 3 and t.dropped == 7
    assert t.calls["x"] == 10
