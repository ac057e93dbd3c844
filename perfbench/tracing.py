"""Traced mode: spans around the calls into each layer, from outside.

Wrappers go over public names in each module's namespace (for example
``proxinv.h2.h2_spectrum`` and ``proxinv.cli.prox_h1``), because the modules
call each other through those names.  They are installed only for the traced
pass and restored afterwards.  Nothing inside the package is edited.

Each span records a name, a start, an end, its parent span and the op id.
Spans are kept in memory up to ``max_spans`` and written out when the run
ends; the per-layer aggregates are updated on every span, so the cap never
changes a metric.  Self time is a span's duration minus the time its
children cover (calls are sequential, so children never overlap).
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import Counter

import proxinv
import proxinv.cli
from proxinv import core

#: (module, name) pairs to wrap; the span is named after the defining layer
TARGETS = {
    "core": ("normalize", "descending_vector"),
    "l0": ("prox_l0",),
    "h2": (
        "prox_h2",
        "normalize",
        "descending_vector",
        "mu",
        "h2_spectrum",
        "wstep_h2",
        "wstep_h2_r2",
        "prox_h2_uniform",
        "wrd_assemble",
    ),
    "h1": (
        "prox_h1",
        "normalize",
        "descending_vector",
        "trim_zeros",
        "wstep_h1_r2",
        "pgd_wstep",
        "project_ball_cone",
        "wrd_assemble",
    ),
    "cli": ("prox_l0", "prox_h1", "prox_h2"),
}

_SPAN_NAMES = {"wrd_assemble": "wrd.assemble", "invert": "core.invert"}


def span_name(fn) -> str:
    name = fn.__name__
    return _SPAN_NAMES.get(name, f"{fn.__module__.rsplit('.', 1)[-1]}.{name}")


class Tracer:
    """Span recorder with per-name aggregates and the solver counters."""

    def __init__(self, max_spans: int = 50_000):
        self.max_spans = max_spans
        self.spans: list[tuple] = []
        self.dropped = 0
        self.op = 0
        self._stack: list[list] = []
        self._next_id = 0
        self.calls: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.truncation_steps = 0
        self.spectrum_accepted = 0
        self.pgd_iterations: list[int] = []
        self.pgd_uncertified = 0
        self.pgd_wins = 0
        self._pgd_pending: list = []
        self.rows = 0  # CSV rows and bytes written by region commands
        self.nbytes = 0
        self._mu = proxinv.h2.mu  # the untraced public mu
        self._saved: list[tuple] = []

    # spans -------------------------------------------------------------
    def enter(self, name: str) -> list:
        parent = self._stack[-1][2] if self._stack else None
        frame = [name, 0, self._next_id, parent, self.op, 0]
        self._next_id += 1
        self._stack.append(frame)
        frame[1] = time.perf_counter_ns()
        return frame

    def leave(self, frame: list) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        name, start, span_id, parent, op, child_ns = frame
        dur = end - start
        if self._stack:
            self._stack[-1][5] += dur
        self.calls[name] += 1
        self.total_ns[name] += dur
        self.self_ns[name] += dur - child_ns
        if len(self.spans) < self.max_spans:
            self.spans.append((span_id, name, start, end, parent, op))
        else:
            self.dropped += 1

    def wrap(self, fn, post=None):
        name = span_name(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self.enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.leave(frame)
            if post is not None:
                post(args, out)
            return out

        return traced

    # counters read from arguments and results, outside the spans ---------
    def _after_wstep_h2(self, args, out):
        x, rho = args[0], args[1]
        _, k = out
        self.truncation_steps += max(self._mu(x, rho) - k, 0)

    def _after_spectrum(self, args, out):
        self.spectrum_accepted += int(out.w_lo[-1] > 0.0)

    def _after_pgd(self, args, out):
        self.pgd_iterations.append(int(out.iterations))
        self.pgd_uncertified += int(not out.certified)
        self._pgd_pending.append(0.0 if out.origin else float(out.g_value))

    def _after_prox_h1(self, args, out):
        self.pgd_wins += sum(gap == out.g_value for gap in self._pgd_pending)
        self._pgd_pending.clear()

    # installation --------------------------------------------------------
    def install(self) -> None:
        """Replace the target names with traced wrappers."""
        posts = {
            "wstep_h2": self._after_wstep_h2,
            "h2_spectrum": self._after_spectrum,
            "pgd_wstep": self._after_pgd,
            "prox_h1": self._after_prox_h1,
        }
        for mod_name, names in TARGETS.items():
            mod = getattr(proxinv, mod_name)
            for attr in names:
                if not hasattr(mod, attr):
                    continue
                orig = getattr(mod, attr)
                self._saved.append((mod, attr, orig))
                setattr(mod, attr, self.wrap(orig, post=posts.get(attr)))
        cls = core.SignedPermutation
        orig = cls.__dict__["invert"]
        self._saved.append((cls, "invert", orig))
        cls.invert = self.wrap(orig)

    def restore(self) -> None:
        while self._saved:
            obj, attr, orig = self._saved.pop()
            setattr(obj, attr, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # output ----------------------------------------------------------------
    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span_id, name, start, end, parent, op in self.spans:
                fh.write(
                    json.dumps(
                        {"id": span_id, "name": name, "start_ns": start, "end_ns": end, "parent": parent, "op": op}
                    )
                    + "\n"
                )

    def layer_metrics(self, ops: int) -> dict:
        """Per-layer metrics as ``{name: (value, unit)}``."""

        def s(name: str) -> float:
            return self.total_ns[name] / 1e9

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        spectrum_calls = self.calls["h2.h2_spectrum"]
        pgd_calls = self.calls["h1.pgd_wstep"]
        its = self.pgd_iterations
        return {
            "core.descending_vector.calls_per_op": (ratio(self.calls["core.descending_vector"], ops), "count/op"),
            "core.descending_vector.s": (s("core.descending_vector"), "s"),
            "core.normalize.s": (s("core.normalize"), "s"),
            "core.invert.s": (s("core.invert"), "s"),
            "wrd.assemble.calls": (self.calls["wrd.assemble"], "count"),
            "wrd.assemble.s": (s("wrd.assemble"), "s"),
            "l0.prox_l0.s": (s("l0.prox_l0"), "s"),
            "h2.wstep_h2.self_s": (self.self_ns["h2.wstep_h2"] / 1e9, "s"),
            "h2.h2_spectrum.calls": (spectrum_calls, "count"),
            "h2.h2_spectrum.s": (s("h2.h2_spectrum"), "s"),
            "h2.mu.s": (s("h2.mu"), "s"),
            "h2.truncation_steps": (self.truncation_steps, "count"),
            "h2.spectrum_accept_ratio": (ratio(self.spectrum_accepted, spectrum_calls), "ratio"),
            "h2.wstep_h2_r2.calls": (self.calls["h2.wstep_h2_r2"], "count"),
            "h2.prox_h2_uniform.calls": (self.calls["h2.prox_h2_uniform"], "count"),
            "h1.pgd_wstep.calls": (pgd_calls, "count"),
            "h1.pgd_wstep.s": (s("h1.pgd_wstep"), "s"),
            "h1.pgd_wstep.iterations": (sum(its), "count"),
            "h1.pgd_wstep.iterations_p50": (float(statistics.median(its)) if its else 0.0, "count"),
            "h1.pgd_wstep.uncertified": (self.pgd_uncertified, "count"),
            "h1.project_ball_cone.calls": (self.calls["h1.project_ball_cone"], "count"),
            "h1.pgd_win_ratio": (ratio(self.pgd_wins, pgd_calls), "ratio"),
            "h1.wstep_h1_r2.s": (s("h1.wstep_h1_r2"), "s"),
            "h1.trim_zeros.s": (s("h1.trim_zeros"), "s"),
            "cli.region.self_s": (self.self_ns["cli.region"] / 1e9, "s"),
            "cli.region.rows": (self.rows, "count"),
            "cli.region.bytes": (self.nbytes, "B"),
        }
