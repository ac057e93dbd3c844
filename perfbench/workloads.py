"""The three closed-loop workloads.

A workload is a sequence of rounds.  Round ``r`` of seed ``s`` is generated
from ``numpy.random.default_rng([s, workload id, r])``, so the inputs of a
round never depend on timing, and every round has the same composition:
the same operators, sizes and rho strata, with fresh random values.  One
client runs the ops of a round back to back (closed loop, no think time);
input generation and checking happen between rounds, off the clock.

``run_round`` returns per-op latencies, the round's wall time and the
outcomes; ``check_round`` applies the failure rule of ``checker`` to them.
"""

from __future__ import annotations

import contextlib
import time
from typing import NamedTuple

import numpy as np

import proxinv
import proxinv.cli
from proxinv import DEFAULT_TOLERANCES

import checker

RHO_RANGE = (1e-2, 1e1)

#: input kinds, rotated over the ops of a size class
KINDS = ("gauss", "zeros", "gauss", "block")

PROX = {"l0": (proxinv.l0, "prox_l0"), "h1": (proxinv.h1, "prox_h1"), "h2": (proxinv.h2, "prox_h2")}


def call_prox(fn: str, x: np.ndarray, rho: float):
    # looked up on every call, so traced wrappers take effect
    mod, attr = PROX[fn]
    return getattr(mod, attr)(x, rho, DEFAULT_TOLERANCES)


def stratified_rho(rng, m: int, r: int, k: int) -> np.ndarray:
    """Log-uniform rho for ``m`` ops of round ``r`` in a pass of ``k`` rounds.

    RHO_RANGE is cut into m*k equal slices in log scale, one draw from each.
    Op j of round r takes slice j*k + r: every round spans the whole range
    and a pass covers it evenly, so the mix of cheap and costly inputs is the
    same for every seed.
    """
    lo, hi = np.log10(RHO_RANGE[0]), np.log10(RHO_RANGE[1])
    u = (np.arange(m) * k + r % k + rng.random(m)) / (m * k)
    return 10.0 ** (lo + (hi - lo) * u)


def make_input(rng, n: int, kind: str) -> np.ndarray:
    x = rng.standard_normal(n)
    if kind == "zeros":
        # a third of the entries (at least one) are exact zeros, for trim_zeros
        x[rng.choice(n, max(1, n // 3), replace=False)] = 0.0
    elif kind == "block":
        # a uniform block of top magnitudes: the whole vector at n = 3, so the
        # uniform closed forms run, and a quarter of it at larger n
        b = n if n <= 3 else n // 4
        idx = rng.choice(n, b, replace=False)
        x[idx] = float(np.abs(x).max()) * rng.choice([-1.0, 1.0], b)
    return x


class Op(NamedTuple):
    fn: str
    x: np.ndarray
    rho: float


class Outcome(NamedTuple):
    result: object  # the ProxSet, or the exception the op raised
    raised: bool


class RoundRun(NamedTuple):
    latencies_ns: list
    elapsed_ns: int
    outcomes: list


class ApiWorkload:
    """Direct calls to the public ``prox_*`` functions; one op is one call."""

    def __init__(
        self, wid: int, rounds_per_pass: int, calibration: tuple, fns: tuple, sizes: tuple, fixed: tuple = ()
    ):
        self.wid = wid
        self.calibration = calibration  # the calibration loops its ops resemble
        self.rounds_per_pass = rounds_per_pass
        self.fns = fns
        self.sizes = sizes  # (n, inputs per round)
        self.fixed = fixed  # (n, rho) cases present in every round

    def make_round(self, seed: int, r: int) -> list[Op]:
        rng = np.random.default_rng([seed, self.wid, r])
        cases = []
        for n, count in self.sizes:
            for j, rho in enumerate(stratified_rho(rng, count, r, self.rounds_per_pass)):
                cases.append((n, float(rho), KINDS[(j + r) % len(KINDS)]))
        cases += [(n, rho, "gauss") for n, rho in self.fixed]
        ops = []
        for i, (n, rho, kind) in enumerate(cases):
            x = make_input(rng, n, kind)
            # the second operator runs on every other input only
            ops += [Op(fn, x, rho) for fn in self.fns[: 1 + (i % 2 == 0)]]
        return ops

    def run_round(self, ops: list[Op], tracer=None) -> RoundRun:
        lat = []
        outcomes = []
        clock = time.perf_counter_ns
        start = clock()
        for op in ops:
            if tracer is not None:
                tracer.op += 1
            t0 = clock()
            try:
                out = Outcome(call_prox(op.fn, op.x, op.rho), False)
            except Exception as exc:  # a raising op is a failed op
                out = Outcome(exc, True)
            lat.append(clock() - t0)
            outcomes.append(out)
        return RoundRun(lat, clock() - start, outcomes)

    def check_round(self, ops: list[Op], run: RoundRun) -> tuple[int, list[str]]:
        reasons = []
        for op, out in zip(ops, run.outcomes):
            why = f"raised {out.result!r}" if out.raised else checker.failure(op.fn, op.x, op.rho, out.result)
            if why:
                reasons.append(f"{op.fn} n={op.x.size} rho={op.rho:.6g}: {why}")
        return len(ops), reasons

    def fingerprint(self, run: RoundRun) -> list:
        """Per-op digest of the outcomes, to compare repeats of a round."""
        fp = []
        for out in run.outcomes:
            if out.raised:
                fp.append(repr(out.result))
            else:
                ps = out.result
                fp.append(hash((ps.contains_zero, tuple(p.tobytes() for p in ps.points))))
        return fp

    def repeat_failures(self, first: list, again: list) -> list[str]:
        return [f"op {i}: result differs from the round's first run" for i, (a, b) in enumerate(zip(first, again)) if a != b]

    def brute_sample(self, ops: list[Op], run: RoundRun) -> list[tuple]:
        """Every successful op with n <= 3 of the round."""
        return [
            (op.fn, op.x, op.rho, out.result)
            for op, out in zip(ops, run.outcomes)
            if op.x.size <= 3 and not out.raised
        ]


class RowSink:
    """Stand-in for stdout that timestamps each row the CLI writes."""

    def __init__(self, tracer=None):
        self.parts: list[str] = []
        self.stamps: list[int] = []
        self.tracer = tracer
        if tracer is not None:
            self.first_op = tracer.op + 1
            tracer.op = self.first_op

    def write(self, s: str) -> int:
        self.stamps.append(time.perf_counter_ns())
        self.parts.append(s)
        if self.tracer is not None:
            self.tracer.rows += 1
            self.tracer.nbytes += len(s)
            # spans after this write belong to the next row
            self.tracer.op = self.first_op + len(self.stamps)
        return len(s)

    def flush(self) -> None:
        pass


class Invocation(NamedTuple):
    fn: str
    mode: str
    grid: int


class PlaneRegion:
    """In-process ``proxinv region`` runs; one op is one CSV row.

    Each round runs l0, h2 and h1 in prox-map and then zero-map mode at
    rho=2 and xmax=2 on one seeded grid size (odd sizes put cell centres on
    the x1 = 1 threshold, where the sets tie).  The first row of a command
    also carries argument parsing and the grid set-up.
    """

    wid = 0
    rounds_per_pass = 6
    calibration = ("short",)
    RHO = 2.0
    XMAX = 2.0
    GRID = (31, 46)  # seeded grid size range, inclusive
    BRUTE_ROWS = 3  # rows per operator in the brute-force subsample

    def make_round(self, seed: int, r: int) -> list[Invocation]:
        # the grid range is cut into one slice per round of a pass, as rho is
        # for the other workloads, so every seed sees the same spread of sizes
        rng = np.random.default_rng([seed, self.wid, r])
        span = self.GRID[1] - self.GRID[0] + 1
        grid = self.GRID[0] + int((r % self.rounds_per_pass + rng.random()) * span / self.rounds_per_pass)
        return [Invocation(fn, mode, grid) for fn in ("l0", "h2", "h1") for mode in ("prox-map", "zero-map")]

    def argv(self, inv: Invocation) -> list[str]:
        return [
            "region", "--fn", inv.fn, "--rho", repr(self.RHO), "--xmax", repr(self.XMAX),
            "--grid", str(inv.grid), "--mode", inv.mode,
        ]  # fmt: skip

    def run_round(self, invs: list[Invocation], tracer=None) -> RoundRun:
        main = proxinv.cli.main
        lat = []
        outcomes = []
        clock = time.perf_counter_ns
        start = clock()
        for inv in invs:
            sink = RowSink(tracer)
            argv = self.argv(inv)
            t0 = clock()
            with contextlib.redirect_stdout(sink):
                if tracer is not None:
                    frame = tracer.enter("cli.region")
                try:
                    code = main(argv)
                except Exception as exc:
                    code = exc
                finally:
                    if tracer is not None:
                        tracer.leave(frame)
            prev = t0
            for t in sink.stamps:
                lat.append(t - prev)
                prev = t
            outcomes.append((code, sink))
        return RoundRun(lat, clock() - start, outcomes)

    def cells(self, grid: int):
        h = self.XMAX / grid
        return [((i + 0.5) * h, (j + 0.5) * h) for i in range(grid) for j in range(i + 1)]

    def _rows(self, inv: Invocation, code, sink: RowSink) -> tuple[list, list[str]]:
        """Parsed rows as (x, label, u) and the reasons for failed rows."""
        cells = self.cells(inv.grid)
        tag = f"region {inv.fn} {inv.mode} grid={inv.grid}"
        if code != 0:
            return [], [f"{tag}: exit {code!r}"] * len(cells)
        lines = "".join(sink.parts).splitlines()
        reasons = [f"{tag}: missing row"] * max(len(cells) - len(lines), 0)
        rows = []
        for (x1, x2), line in zip(cells, lines):
            f = line.split(",")
            try:
                got = np.array([float(f[0]), float(f[1])])
                label = f[2]
                u = np.array([float(f[3]), float(f[4])]) if inv.mode == "prox-map" else None
            except (IndexError, ValueError):
                reasons.append(f"{tag}: malformed row {line!r}")
                rows.append(None)
                continue
            x = np.array([x1, x2])
            if np.abs(got - x).max() > 1e-8 * (1.0 + np.abs(x).max()) or label not in ("zero", "tie", "nonzero"):
                reasons.append(f"{tag}: unexpected row {line!r}")
                rows.append(None)
                continue
            rows.append((x, label, u))
        reasons += [f"{tag}: extra row"] * max(len(lines) - len(cells), 0)
        return rows, reasons

    @staticmethod
    def as_set(label: str, u) -> checker.SetView:
        if label == "zero":
            return checker.SetView(True, [])
        return checker.SetView(label == "tie", [u])

    def check_round(self, invs: list[Invocation], run: RoundRun) -> tuple[int, list[str]]:
        attempted = 0
        reasons = []
        labels = {}
        for inv, (code, sink) in zip(invs, run.outcomes):
            rows, bad = self._rows(inv, code, sink)
            attempted += len(self.cells(inv.grid))
            reasons += bad
            tag = f"region {inv.fn} {inv.mode} grid={inv.grid}"
            if inv.mode == "prox-map":
                labels[inv.fn] = [row and row[1] for row in rows]
                for row in rows:
                    if row is None:
                        continue
                    x, label, u = row
                    why = None
                    if label == "zero" and u.any():
                        why = "zero label with a nonzero point"
                    why = why or checker.failure(inv.fn, x, self.RHO, self.as_set(label, u))
                    if why:
                        reasons.append(f"{tag} x={x.tolist()}: {why}")
            else:
                # zero-map rows must carry the labels the checked prox-map rows carry
                ref = labels.get(inv.fn, [])
                for k, row in enumerate(rows):
                    if row is not None and (k >= len(ref) or ref[k] != row[1]):
                        reasons.append(f"{tag} x={row[0].tolist()}: label differs from prox-map")
        return attempted, reasons

    def fingerprint(self, run: RoundRun) -> list:
        """Exit code and output lines of each invocation."""
        return [(code if code == 0 else repr(code), "".join(sink.parts).splitlines()) for code, sink in run.outcomes]

    def repeat_failures(self, first: list, again: list) -> list[str]:
        reasons = []
        for k, ((code_a, rows_a), (code_b, rows_b)) in enumerate(zip(first, again)):
            bad = sum(a != b for a, b in zip(rows_a, rows_b)) + abs(len(rows_a) - len(rows_b))
            if code_a != code_b:
                bad = max(bad, 1)
            reasons += [f"invocation {k}: output differs from the round's first run"] * bad
        return reasons

    def brute_sample(self, invs: list[Invocation], run: RoundRun) -> list[tuple]:
        """A few evenly spaced prox-map rows per operator."""
        sample = []
        for inv, (code, sink) in zip(invs, run.outcomes):
            if inv.mode != "prox-map" or code != 0:
                continue
            rows, _ = self._rows(inv, code, sink)
            step = max(len(rows) // (self.BRUTE_ROWS + 1), 1)
            for row in rows[step::step][: self.BRUTE_ROWS]:
                if row is not None:
                    x, label, u = row
                    sample.append((inv.fn, x, self.RHO, self.as_set(label, u)))
        return sample


WORKLOADS = {
    "plane-region": PlaneRegion(),
    "h1-dims": ApiWorkload(
        wid=1,
        rounds_per_pass=24,
        calibration=("short",),
        fns=("h1",),
        sizes=((3, 4), (10, 8), (100, 8), (1000, 1)),
    ),
    "h2-l0-dims": ApiWorkload(
        wid=2,
        rounds_per_pass=8,
        calibration=("short", "long"),
        fns=("h2", "l0"),
        sizes=((3, 8), (10, 8), (100, 8), (1000, 4), (20000, 1)),
        fixed=((20000, 1.0), (20000, 3.0)),
    ),
}
