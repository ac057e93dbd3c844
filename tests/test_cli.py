import hashlib
import json

import numpy as np
import pytest

from proxinv.cli import main
from helpers import f_value


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestProxCommand:
    def test_counting_example(self, capsys):
        code, out, _ = run_cli(capsys, ["prox", "--fn", "l0", "--rho", "2", "--x", "2,0.5"])
        assert code == 0
        payload = json.loads(out)
        assert payload["contains_zero"] is False
        assert payload["points"] == [[2.0, 0.0]]
        assert payload["family"] is None
        assert set(payload) == {"contains_zero", "points", "family", "g_value", "tie_truncated"}

    def test_reference_vector(self, capsys):
        code, out, _ = run_cli(
            capsys, ["prox", "--fn", "h2", "--rho", "2.5", "--x", "2.5,1.5,1,0.5"]
        )
        assert code == 0
        payload = json.loads(out)
        point = np.array(payload["points"][0])
        w = np.array([0.8598, 0.4481, 0.2422, 0.0363])
        r = float(np.array([2.5, 1.5, 1.0, 0.5]) @ w)
        assert np.allclose(point, r * w, atol=5e-3)
        # the planar l1/l2 angle near the first axis: u2 within 1e-9 of its
        # 50-digit value (a bisection of the angle to a width of 1e-12
        # printed 9.374356712592944e-05)
        code, out, _ = run_cli(capsys, ["prox", "--fn", "h1", "--rho", "2", "--x", "1.3425,0.3725"])
        assert code == 0
        (point,) = json.loads(out)["points"]
        assert abs(point[1] / 9.3743567585419566e-05 - 1.0) <= 1e-9

    def test_zero_vector(self, capsys):
        code, out, _ = run_cli(capsys, ["prox", "--fn", "h1", "--rho", "1", "--x", "0,0"])
        assert code == 0
        payload = json.loads(out)
        assert payload["contains_zero"] is True and payload["points"] == []

    @pytest.mark.parametrize(
        "rho, xs, g",
        [
            # rho ||x||^2 underflows in the planar factor
            ("5.802385473390564e+118", "1.4763095254365288e-220,1.8629634518955913e-220", 1.0),
            # the screen keeps two pieces with both ends negative, each giving
            # one rising root; the winning direction, the root of the
            # support-3 piece, loses to the origin
            ("0.7783515660155081", "1.35,0.95,0.85,0.65,0.15", 0.28795874148314327),
        ],
        ids=["underflow", "screen"],
    )
    def test_h1_keeps_origin_alone(self, capsys, rho, xs, g):
        code, out, _ = run_cli(capsys, ["prox", "--fn", "h1", "--rho", rho, "--x", xs])
        assert code == 0
        payload = json.loads(out)
        assert payload["contains_zero"] is True and payload["points"] == []
        assert abs(payload["g_value"] / g - 1.0) <= 1e-12

    def test_malformed_vector(self, capsys):
        code, _, err = run_cli(capsys, ["prox", "--fn", "l0", "--rho", "2", "--x", "2,oops"])
        assert code == 2
        assert "malformed" in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("fn", ["l0", "h1", "h2"])
    def test_overflowing_sum(self, capsys, fn):
        # finite entries: no "malformed" tag and no overflow warning
        code, _, err = run_cli(capsys, ["prox", "--fn", fn, "--rho", "1", "--x", "1e308,1e308,1e308"])
        assert code == 2
        assert err.strip() == "input magnitude out of range: sum of |x| overflows (max |x| = 1e+308)"

    def test_nonpositive_rho(self, capsys):
        code, _, err = run_cli(capsys, ["prox", "--fn", "l0", "--rho", "-1", "--x", "1,2"])
        assert code == 2

    @pytest.mark.parametrize("rho", ["0", "nan", "inf"])
    @pytest.mark.parametrize("command", ["prox", "region"])
    def test_bad_rho_exits_2_before_output(self, capsys, command, rho):
        # one rule for every subcommand: nan and inf fail as 0 does
        argv = {
            "prox": ["--x", "1,2"],
            "region": ["--xmax", "2", "--grid", "3", "--mode", "zero-map", "--include-boundary"],
        }[command]
        code, out, err = run_cli(capsys, [command, "--fn", "h1", "--rho", rho, *argv])
        assert code == 2 and out == ""
        assert err.strip() == "rho must be a positive finite number"

    def test_missing_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["prox", "--fn", "l0", "--x", "1,2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", ["--pgd-tol", "--max-iter", "--init-fraction"])
    def test_solver_tuning_flags_are_gone(self, flag):
        # every direction step is exact, so no operator has a knob to turn
        with pytest.raises(SystemExit) as exc:
            main(["prox", "--fn", "h1", "--rho", "1", "--x", "2,-1.2,0.7", flag, "1"])
        assert exc.value.code == 2

    def test_tie_tol_flag_widens_ties(self, capsys):
        # a huge tie tolerance turns a decisive keep into a keep-or-drop tie
        code, out, _ = run_cli(
            capsys,
            ["prox", "--fn", "l0", "--rho", "2", "--x", "1.05,0.1", "--tie-tol", "0.5"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["contains_zero"] is True
        assert payload["points"] == [[1.05, 0.0]]
        # a uniform l1/l2 pair whose first axis ties at a large tie_tol: the
        # axis point is a member, as it is for a pair 1e-9 apart
        xs = "0.31622776601683794,0.31622776601683794"
        code, out, _ = run_cli(capsys, ["prox", "--fn", "h1", "--rho", "1", "--x", xs, "--tie-tol", "0.9"])
        assert code == 0
        assert json.loads(out)["points"] == [[0.31622776601683794, 0.0]]

    def test_tie_tol_one_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, ["prox", "--fn", "l0", "--rho", "2", "--x", "1,1", "--tie-tol", "1"]
        )
        assert code == 2
        assert out == ""
        assert "tie_tol" in err and "Traceback" not in err

    def test_tie_truncated_emitted(self, capsys):
        # four entries tied at the threshold: 2^4 supports, cut to two
        code, out, _ = run_cli(capsys, ["prox", "--fn", "l0", "--rho", "2", "--x", "1,1,1,1"])
        assert code == 0
        payload = json.loads(out)
        assert payload["tie_truncated"] is True
        assert payload["contains_zero"] is True
        assert payload["points"] == [[1.0, 1.0, 1.0, 1.0]]
        code, out, _ = run_cli(capsys, ["prox", "--fn", "l0", "--rho", "2", "--x", "2,0.5"])
        assert json.loads(out)["tie_truncated"] is False

    def test_json_roundtrip_identity(self, capsys):
        # re-evaluating the emitted points recovers g_value + F(0)
        for fn, rho, xs in (("h2", 2.5, "2.5,1.5,1,0.5"), ("h1", 1.0, "2,1"), ("l0", 2.0, "2,0.5")):
            code, out, _ = run_cli(capsys, ["prox", "--fn", fn, "--rho", str(rho), "--x", xs])
            assert code == 0
            payload = json.loads(out)
            x = np.array([float(t) for t in xs.split(",")])
            f0 = 0.5 * rho * float(x @ x)
            for pt in payload["points"]:
                f = f_value(fn, np.array(pt), x, rho)
                assert abs(f - (payload["g_value"] + f0)) <= 1e-8


class TestRegionCommand:
    def test_deterministic_output(self, capsys):
        argv = ["region", "--fn", "h2", "--rho", "2", "--xmax", "2", "--grid", "24", "--mode", "zero-map"]
        _, out1, _ = run_cli(capsys, argv)
        _, out2, _ = run_cli(capsys, argv)
        assert out1 == out2

    def test_zero_map_labels(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["region", "--fn", "h2", "--rho", "2", "--xmax", "2", "--grid", "40", "--mode", "zero-map"],
        )
        assert code == 0
        for line in out.strip().splitlines():
            x1, x2, label = line.split(",")
            x1, x2 = float(x1), float(x2)
            assert x2 <= x1 <= 2.0
            if x1 < 0.95:
                assert label == "zero"
            elif x1 > 1.05:
                assert label == "nonzero"

    def test_prox_map_axis_region(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["region", "--fn", "l0", "--rho", "2", "--xmax", "2", "--grid", "20", "--mode", "prox-map"],
        )
        assert code == 0
        for line in out.strip().splitlines():
            x1, x2, label, u1, u2 = line.split(",")
            x1, x2, u1, u2 = map(float, (x1, x2, u1, u2))
            if x1 > 1.05 and x2 < 0.95:  # keep-first, drop-second region
                assert label == "nonzero" and u1 == x1 and u2 == 0.0

    def test_include_boundary_emits_ties(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "region", "--fn", "h2", "--rho", "2", "--xmax", "2", "--grid", "16",
                "--mode", "zero-map", "--include-boundary",
            ],
        )
        assert code == 0
        labels = [line.split(",")[2] for line in out.strip().splitlines()]
        assert "tie" in labels

    def test_include_boundary_overflow_writes_no_rows(self, capsys):
        # sqrt(2/rho) overflows: the boundary points are checked before the
        # first grid row is written
        code, out, err = run_cli(
            capsys,
            [
                "region", "--fn", "l0", "--rho", "1e-320", "--xmax", "2", "--grid", "3",
                "--mode", "zero-map", "--include-boundary",
            ],
        )
        assert code == 2 and out == ""
        assert "out of range" in err

    @pytest.mark.parametrize("xmax", ["nan", "inf"])
    def test_non_finite_xmax_writes_no_rows(self, capsys, xmax):
        # rejected with its own message, not as a non-finite vector entry
        code, out, err = run_cli(
            capsys,
            ["region", "--fn", "h1", "--rho", "2", "--xmax", xmax, "--grid", "3", "--mode", "zero-map"],
        )
        assert code == 2 and out == ""
        assert "xmax positive and finite" in err and "Traceback" not in err

    #: sha256 prefixes of the six maps at --rho 2 --xmax 2 --grid 41
    #: --include-boundary; a changed row changes its map's hash
    MAP_HASHES = {
        ("l0", "zero-map"): "345c10f517835016",
        ("l0", "prox-map"): "eba3c5265baad57d",
        ("h1", "zero-map"): "b1d4fe5e660090ba",
        ("h1", "prox-map"): "18d9af27727c473e",
        ("h2", "zero-map"): "345c10f517835016",
        ("h2", "prox-map"): "c8ae2bb96444eb6e",
    }

    @pytest.mark.parametrize("fn, mode", sorted(MAP_HASHES))
    def test_region_maps_are_pinned(self, capsys, fn, mode):
        argv = ["region", "--fn", fn, "--rho", "2", "--xmax", "2", "--grid", "41", "--mode", mode, "--include-boundary"]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == self.MAP_HASHES[fn, mode]

    def test_include_boundary_ratio_tie(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "region", "--fn", "h1", "--rho", "2", "--xmax", "2", "--grid", "16",
                "--mode", "zero-map", "--include-boundary",
            ],
        )
        assert code == 0
        labels = [line.split(",")[2] for line in out.strip().splitlines()]
        assert "tie" in labels


class TestSpectrumCommand:
    def test_reference_values(self, capsys):
        code, out, _ = run_cli(capsys, ["spectrum", "--rho", "2.5", "--x", "2.5,1.5,1,0.5"])
        assert code == 0
        payload = json.loads(out)
        assert np.allclose(payload["w_lo"], [0.8598, 0.4481, 0.2422, 0.0363], atol=5e-5)
        assert payload["lambda_pos"] > 0 > payload["lambda_neg"]

    def test_second_rho(self, capsys):
        code, out, _ = run_cli(capsys, ["spectrum", "--rho", "1.8", "--x", "2.5,1.5,1,0.5"])
        assert code == 0
        payload = json.loads(out)
        assert np.allclose(payload["w_lo"], [0.8795, 0.4294, 0.2043, -0.0207], atol=5e-5)

    def test_uniform_input_exit_3(self, capsys):
        code, _, err = run_cli(capsys, ["spectrum", "--rho", "2", "--x", "1,1,1"])
        assert code == 3
        assert "degenerate" in err

    @pytest.mark.parametrize("xs", ["1e200,1", "1e80,5e79"])
    def test_out_of_range_exit_2(self, capsys, xs):
        # the first overflows the squared norm, the second only the discriminant
        with np.errstate(over="ignore"):
            code, out, err = run_cli(capsys, ["spectrum", "--rho", "1", "--x", xs])
        assert code == 2
        assert out == ""
        assert "out of range" in err

    def test_underflow_exit_2(self, capsys):
        # rho * sum(x) underflows to zero: out of range, not a traceback
        xs = "1.4948621633604623e-168,-3.4358367471440997e-168,3.023915939200362e-168"
        code, out, err = run_cli(capsys, ["spectrum", "--rho", "1.5028922017406157e-249", "--x", xs])
        assert code == 2
        assert out == ""
        assert "out of range" in err and "Traceback" not in err


class TestOracleCommand:
    def test_pass_case(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["oracle", "--fn", "h2", "--rho", "2.5", "--x", "2.5,1.5", "--resolution", "1e-3"],
        )
        assert code == 0
        assert "PASS" in out

    def test_reference_prefixes_pass(self, capsys):
        # leading subvectors of the reference input, plane and space versions
        for xs, res in (("2.5,1.5", "1e-3"), ("2.5,1.5,1", "1e-3")):
            code, out, _ = run_cli(
                capsys,
                ["oracle", "--fn", "h2", "--rho", "2.5", "--x", xs, "--resolution", res],
            )
            assert code == 0
            assert "PASS" in out

    def test_corrupted_tolerance_fails(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "oracle", "--fn", "h2", "--rho", "2.5", "--x", "2.5,1.5",
                "--resolution", "1e-3", "--tolerance", "1e-300",
            ],
        )
        assert code == 1
        assert "FAIL" in out

    def test_dimension_guard(self, capsys):
        code, _, err = run_cli(
            capsys, ["oracle", "--fn", "h1", "--rho", "1", "--x", "1,2,3,4"]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["--fn", "h1", "--rho", "1", "--x=2,-1.2,0.7"],
            ["--fn", "l0", "--rho", "2", "--x", "0.1,3,0.2"],
            ["--fn", "h2", "--rho", "2.5", "--x=-1.5,2.5"],
        ],
        ids=["h1-signed", "l0-unsorted", "h2-signed-plane"],
    )
    def test_signed_and_unsorted_inputs_pass(self, capsys, argv):
        code, out, _ = run_cli(capsys, ["oracle", *argv])
        assert code == 0
        assert "PASS" in out

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--box", "-1"), ("--box", "0"), ("--box", "inf"),
            ("--resolution", "inf"), ("--resolution", "nan"), ("--resolution", "0"),
        ],
    )
    def test_bad_grid_settings_exit_2(self, capsys, flag, value):
        code, out, err = run_cli(
            capsys, ["oracle", "--fn", "h1", "--rho", "1", "--x", "1,0.5", flag, value]
        )
        assert code == 2
        assert "PASS" not in out and "FAIL" not in out
        assert "positive finite" in err

    def test_unallocatable_box_exits_2(self, capsys):
        # the box grid would need about 700 PiB, more than any address space,
        # so the allocation fails at once; exit 1 would read as a mismatch
        code, out, err = run_cli(
            capsys, ["oracle", "--fn", "h2", "--rho", "1", "--x", "1,0.5", "--box", "1e14"]
        )
        assert code == 2
        assert "PASS" not in out and "FAIL" not in out
        assert "allocate" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--x", "1,0.7", "--box", "1e308"],
            ["--x", "1,0.7", "--box", "1e300", "--resolution", "1e-10"],
            ["--x", "1,0.7,0.5", "--resolution", "1e-320"],
        ],
        ids=["box", "box-resolution", "sphere"],
    )
    def test_overflowing_grid_count_exits_2(self, capsys, argv):
        # box / resolution (or (pi/2) / resolution on the sphere) overflows to
        # inf; exit 1 would read as a mismatch
        code, out, err = run_cli(capsys, ["oracle", "--fn", "h1", "--rho", "2", *argv])
        assert code == 2
        assert "PASS" not in out and "FAIL" not in out
        assert "grid too large" in err

    @pytest.mark.parametrize("value", ["nan", "-1", "inf"])
    def test_bad_tolerance_exits_2(self, capsys, value):
        # nan and -1 would read as a mismatch and inf as a pass for any result
        code, out, err = run_cli(
            capsys, ["oracle", "--fn", "h2", "--rho", "2.5", "--x", "2.5,1.5,1", "--tolerance", value]
        )
        assert code == 2
        assert "PASS" not in out and "FAIL" not in out
        assert "tolerance" in err and "finite" in err
