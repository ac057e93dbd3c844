"""Calibration loops that track the speed of the host.

On a shared machine the speed of one core drifts (by up to 2x over tens of
seconds on the 2-vCPU virtual machine this benchmark was written on) with
load from other tenants.  The benchmark times a fixed loop between rounds
and scales the op latencies by ``nominal / loop time``, so the figures it
reports are those of a host on which the loop takes its nominal time.

There are two loops, for the two kinds of work the workloads do; a workload
names the ones that resemble its ops (``calibration`` in ``workloads``):

* ``short``: short-vector numpy calls with Python glue, like validation,
  the planar closed forms and small-n projected gradient (n = 2 .. 15);
* ``long``: long-vector prefix scans like the h2 truncation loop (n ~ 10^4).

Neither uses proxinv code, so no change to the package can change them.
"""

from __future__ import annotations

import time

import numpy as np

#: loop times, in ms, of the reference host; on the 2-vCPU Intel Xeon
#: virtual machine the benchmark was written on (Python 3.11, numpy 2.4) each
#: loop took about 1.6 to 3.3 ms, depending on the load from other tenants
NOMINAL_MS = {"short": 3.0, "long": 3.0}

_SHORT = np.random.default_rng(7).standard_normal(64)
_LONG = np.sort(np.abs(np.random.default_rng(8).standard_normal(20000)))[::-1].copy()


def _short() -> float:
    acc = 0.0
    for i in range(200):
        v = np.asarray(_SHORT[: 2 + i % 14], dtype=float)
        order = np.argsort(-np.abs(v), kind="stable")
        p = v[order]
        w = np.where(p < 0.0, -1.0, 1.0) * p
        acc += float(np.abs(v).sum()) + float(w @ w) + len(f"{acc:.9g}")
    return acc


def _long() -> float:
    acc = 0.0
    for k in range(12000, 8000, -20):
        head = _LONG[:k]
        w = head - 0.01
        acc += float(head.sum()) + float(head @ head) + float(w[-1]) + float(np.any(head[:-1] < head[1:]))
    return acc


_LOOPS = {"short": _short, "long": _long}


def measure_ns(parts: tuple) -> int:
    """Wall time of one run of the named loops, in ns."""
    t0 = time.perf_counter_ns()
    for part in parts:
        _LOOPS[part]()
    return time.perf_counter_ns() - t0


def scale_factors(refs: list[int], parts: tuple, half: int = 3) -> list[float]:
    """Factor that takes a time measured next to ``refs[i]`` to the reference
    host: the nominal time of ``parts`` over the median of the loop times
    within ``half`` places of i, so one disturbed calibration does not move
    a round."""
    nominal = sum(NOMINAL_MS[part] for part in parts) * 1e6
    out = []
    for i in range(len(refs)):
        window = sorted(refs[max(0, i - half) : i + half + 1])
        out.append(nominal / window[len(window) // 2])
    return out
