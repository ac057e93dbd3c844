"""Where the code lives: the names the benchmark tracer wraps resolve, and
the reference solvers of ``oracle.py`` stay off every operator's path."""

import ast
import sys
from pathlib import Path

import numpy as np

import proxinv
from proxinv import cli, oracle, prox_h1, prox_h2, prox_l0

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def tracer_targets() -> dict:
    """``TARGETS`` of the benchmark tracer, read from its source (importing
    it would import the benchmark harness)."""
    tree = ast.parse(TRACING.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("no TARGETS assignment in perfbench/tracing.py")


def test_tracer_targets_resolve():
    targets = tracer_targets()
    assert targets
    missing = [
        f"{mod}.{name}"
        for mod, names in targets.items()
        for name in names
        if not hasattr(getattr(proxinv, mod, None), name)
    ]
    assert not missing, missing


def operator_corpus():
    """Inputs at ordinary magnitudes: Gaussian heads of n = 1..12 and one of
    2,000 entries, uniform, tied-top and zero-tailed inputs."""
    rng = np.random.default_rng(31)
    xs = [rng.normal(size=n) for n in range(1, 13)]
    xs.append(rng.normal(size=2000))
    xs += [np.full(n, -0.7) for n in (1, 2, 5)]
    xs += [np.array([2.0, -2.0, 2.0, 1.0, 0.5]), np.array([1.5, 1.5, 0.2])]
    xs += [np.array([3.0, -1.0, 0.0, 0.0, 0.0]), np.array([0.0, 2.0, 0.0, 1.0, 0.5, 0.0])]
    return xs


def called(run) -> set:
    """(source file, name) of every Python function that ``run()`` calls."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add((frame.f_code.co_filename, frame.f_code.co_name))

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return seen


def test_operators_never_run_the_references(capsys):
    def operators():
        for x in operator_corpus():
            for rho in (0.1, 1.0, 3.0, 10.0):
                for prox in (prox_l0, prox_h1, prox_h2):
                    prox(x, rho)

    def regions():
        for fn in ("l0", "h1", "h2"):
            argv = ["region", "--fn", fn, "--rho", "2", "--xmax", "2", "--grid", "24"]
            assert cli.main([*argv, "--mode", "prox-map", "--include-boundary"]) == 0

    # each run's l1/l2 w-step shows that the trace sees the operators
    for run, wstep in ((operators, "_wstep_h1"), (regions, "wstep_h1_r2")):
        seen = called(run)
        assert (proxinv.h1.__file__, wstep) in seen
        assert not [name for file, name in seen if file == oracle.__file__]
    capsys.readouterr()
