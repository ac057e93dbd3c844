"""Timed and traced passes over a workload's rounds, and their metrics.

A workload is K fixed rounds (``rounds_per_pass``), generated once from the
seed.  A pass runs every round once.  The calibration loop is timed before
each round run; a round's first run is checked in full by the failure rule
and every repeat must give the same outputs.  The reported latency of an op
is the median over its repeats of its latency scaled to the reference host
(see ``calibration``).
"""

from __future__ import annotations

import resource

import numpy as np

import calibration
import checker


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tally:
    """Attempted and failed ops plus the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, attempted: int, reasons: list[str]) -> None:
        self.attempted += attempted
        self.failed += len(reasons)
        self.reasons += reasons[: max(0, 20 - len(self.reasons))]


class Passes:
    """Runs rounds 0 .. K-1 of a workload over and over, one pass at a time."""

    def __init__(self, wl, seed: int, tally: Tally):
        self.wl = wl
        self.tally = tally
        self.rounds = [wl.make_round(seed, r) for r in range(wl.rounds_per_pass)]
        k = len(self.rounds)
        self.first: list = [None] * k
        self.attempted = [0] * k
        self.refs: list[int] = []  # calibration time before each round run
        self.runs: list[tuple] = []  # (round, latencies in ns) in run order
        self.sample: list = []  # round 0's small ops, for the grid oracle
        self.passes = 0

    def run_pass(self, tracer=None) -> tuple[int, int]:
        """One pass over all rounds; returns (ops, busy ns)."""
        wl = self.wl
        ops_done = busy = 0
        for r, ops in enumerate(self.rounds):
            self.refs.append(calibration.measure_ns(wl.calibration))
            run = wl.run_round(ops, tracer)
            fp = wl.fingerprint(run)
            if self.first[r] is None:
                self.attempted[r], reasons = wl.check_round(ops, run)
                self.first[r] = fp
                if r == 0:
                    self.sample = wl.brute_sample(ops, run)
            else:
                reasons = wl.repeat_failures(self.first[r], fp)
            self.tally.add(self.attempted[r], reasons)
            self.runs.append((r, np.asarray(run.latencies_ns, dtype=np.float64)))
            ops_done += len(run.latencies_ns)
            busy += run.elapsed_ns
        self.passes += 1
        return ops_done, busy

    def latencies(self) -> tuple[list, list]:
        """Each op's median latency (ns) over its repeats, one array per
        round: (raw, scaled to the reference host)."""
        raw: dict = {}
        scaled: dict = {}
        for (r, lat), factor in zip(self.runs, calibration.scale_factors(self.refs, self.wl.calibration)):
            first = raw.setdefault(r, [])
            if not first or lat.size == first[0].size:  # a run with missing rows already failed
                first.append(lat)
                scaled.setdefault(r, []).append(lat * factor)
        return tuple([np.median(d[r], axis=0) for r in sorted(d)] for d in (raw, scaled))


def brute_check(sample: list, tally: Tally) -> None:
    """Grid-oracle check of the sampled small ops, off the clock."""
    reasons = []
    for fn, x, rho, result in sample:
        why = checker.brute_failure(fn, x, rho, result)
        if why:
            reasons.append(f"brute {fn} x={x.tolist()} rho={rho:.6g}: {why}")
    tally.failed += len(reasons)
    tally.reasons += reasons


def latency_metrics(per_round: list[np.ndarray]) -> dict:
    """ops/s, median and tail (ms) of per-op latencies.

    A round's throughput is its ops over their summed latency; ops/s is the
    mean of the middle half of the rounds' throughputs.  So one near-critical
    input that takes seconds moves the tail, not the throughput of the run.
    The tail is the latency at the highest percentile with at least 10
    samples beyond it (the 11th largest).
    """
    s = np.sort(np.concatenate(per_round))
    n = s.size
    k = max(n - 11, 0)
    rates = np.sort([lat.size / (float(lat.sum()) / 1e9) for lat in per_round])
    q = len(rates) // 4
    return {
        "ops_per_s": float(rates[q : len(rates) - q].mean()),
        "latency_p50_ms": float(np.median(s)) / 1e6,
        "latency_tail_ms": float(s[k]) / 1e6,
        "tail_percentile": 100.0 * (n - 10) / n if n > 10 else 100.0,
        "samples": n,
    }


def timed(passes: Passes, seconds: float) -> tuple[dict, dict]:
    """Whole passes until the ops have been busy for ``seconds``."""
    busy = 0
    while busy < seconds * 1e9:
        busy += passes.run_pass()[1]
    rss = peak_rss_mb()
    raw, m = (latency_metrics(lat) for lat in passes.latencies())
    metrics = {
        "ops_per_s": (m["ops_per_s"], "1/s"),
        "latency_p50_ms": (m["latency_p50_ms"], "ms"),
        "latency_tail_ms": (m["latency_tail_ms"], "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    info = {
        "samples": m["samples"],
        "tail_percentile": m["tail_percentile"],
        "passes": passes.passes,
        "busy_s": busy / 1e9,
        "raw_ops_per_s": raw["ops_per_s"],
        "raw_latency_p50_ms": raw["latency_p50_ms"],
        "raw_latency_tail_ms": raw["latency_tail_ms"],
        "calibration_ms_median": float(np.median(passes.refs)) / 1e6,
    }
    return metrics, info


def traced(passes: Passes, spans_path) -> tuple[dict, dict]:
    """One untraced pass, then the same pass traced (raw times)."""
    from tracing import Tracer

    plain_ops, plain_ns = passes.run_pass()
    tracer = Tracer()
    with tracer:
        ops, traced_ns = passes.run_pass(tracer)
    tracer.write_spans(spans_path)
    metrics = tracer.layer_metrics(ops)
    plain_rate = plain_ops / (plain_ns / 1e9)
    traced_rate = ops / (traced_ns / 1e9)
    metrics["trace.ops"] = (ops, "count")
    metrics["trace.overhead_ops_per_s"] = (traced_rate - plain_rate, "1/s")
    info = {
        "untraced_ops_per_s": plain_rate,
        "traced_ops_per_s": traced_rate,
        "spans_kept": len(tracer.spans),
        "spans_dropped": tracer.dropped,
    }
    return metrics, info
