"""proxinv benchmark: one closed-loop workload per run, checked for correctness.

    python3 perfbench/run.py --workload h1-dims --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the last line of stdout is a JSON object with
the end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
pass (see perfbench/README.md).  The lines before it give the same figures
for people, with sample counts, raw times and the run record.  Exit code 2
means the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

#: one client on one core: BLAS/OpenMP pools are pinned to a single thread
PINNED = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "BLIS_NUM_THREADS",
    )
}

SETUP_REPEATS = 9

#: round index of the warm-up round; timed rounds count up from 0
WARMUP_ROUND = 2**32 - 1

#: the set-up a fresh interpreter pays before the first op of each workload
SETUP_CODE = {
    "plane-region": (
        "import contextlib, io, proxinv, proxinv.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        "        proxinv.cli.main(['region', '--help'])\n"
        "    except SystemExit:\n"
        "        pass\n"
    ),
    "h1-dims": "import proxinv\n",
    "h2-l0-dims": "import proxinv\n",
}


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def measure_setup(workload: str) -> list[float]:
    """Seconds from launching a fresh interpreter until it is ready for the
    first op.  Not scaled by the calibration loop: the child may run on
    the other core, whose load the parent's loop does not see."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **PINNED)
    code = SETUP_CODE[workload] + "print('ready', flush=True)\n"
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", code], cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True
        ) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            if proc.wait(timeout=60) != 0 or line.strip() != "ready":
                fail(f"set-up interpreter failed (exit {proc.returncode})")
        times.append(elapsed)
    return times


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_record(args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "threads": {k: os.environ.get(k) for k in PINNED},
        "git_commit": git_commit(),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(SETUP_CODE))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "proxinv" / "__init__.py").is_file():
        fail(f"no proxinv sources under {SRC}; run from a source checkout")
    os.environ.update(PINNED)  # before numpy is imported
    sys.path.insert(0, str(SRC))

    setup = None if args.trace else measure_setup(args.workload)

    import harness
    import proxinv
    import workloads

    if Path(proxinv.__file__).resolve().parent != SRC / "proxinv":
        fail(f"imported proxinv from {proxinv.__file__}, expected {SRC / 'proxinv'}")
    wl = workloads.WORKLOADS[args.workload]
    record = run_record(args)
    print(f"# run record {json.dumps(record)}")

    # warm-up: one untimed, unchecked round from a stream no timed round uses
    wl.run_round(wl.make_round(args.seed, WARMUP_ROUND))

    OUT_DIR.mkdir(exist_ok=True)
    tally = harness.Tally()
    passes = harness.Passes(wl, args.seed, tally)
    if args.trace:
        metrics, extra = harness.traced(passes, OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics, extra = harness.timed(passes, args.seconds)
        metrics["setup_s"] = (statistics.median(setup), "s")
    harness.brute_check(passes.sample, tally)
    extra["brute_checked"] = len(passes.sample)
    extra["failed_frac"] = tally.failed / max(tally.attempted, 1)

    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>16.6g} {unit}")
    print(f"{'failed_frac':40s} {extra['failed_frac']:>16.6g} ({tally.failed}/{tally.attempted})")
    print(f"# details {json.dumps(extra)}")
    for why in tally.reasons:
        print(f"# FAILED {why}")

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps({"record": record, "details": extra, **result}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
