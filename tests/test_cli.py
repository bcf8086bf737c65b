"""End-to-end CLI behaviour: parsing, exit codes, output formats."""

import hashlib
import json
import math
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import thetachar
from thetachar import amplitude, theta
from thetachar import boundary as bnd
from thetachar import picard as pic
from thetachar.amplitude import P_i_g, xi_g
from thetachar.cli import GENUS_CAP, _emit, main, parse_period_matrix, run
from thetachar.picard import slope_combination
from thetachar.theta import PeriodMatrix
from thetachar.verify import run_acceptance

TAU_1_JSON = "[[0, 1]]"
TAU_2_JSON = "[[[0, 1.1], [0.2, 0.1]], [[0.2, 0.1], [0, 1.3]]]"

BANANA = {
    "vertices": [{"id": "a", "genus": 1}, {"id": "b", "genus": 2}],
    "edges": [
        {"id": "e0", "u": "a", "v": "b"},
        {"id": "e1", "u": "a", "v": "b"},
    ],
}


def test_usage_errors_exit_2(capsys):
    assert run([]) == 2
    assert run(["no-such-command"]) == 2
    assert run(["forms"]) == 2  # --genus required
    capsys.readouterr()


def test_forms_count_and_listing(capsys):
    assert run(["forms", "--genus", "3", "--parity", "even", "--count"]) == 0
    assert capsys.readouterr().out == "36\n"

    assert run(["forms", "--genus", "1"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["count"] == 4
    assert {f["arf"] for f in data["forms"]} == {0, 1}
    assert all(set(f) == {"qe", "qf", "arf"} for f in data["forms"])


def test_systems_counts(capsys):
    assert run(["systems", "--genus", "2", "--kind", "fundamental", "--count"]) == 0
    assert capsys.readouterr().out == "16\n"
    assert run(["systems", "--genus", "2", "--kind", "gopel", "--count"]) == 0
    assert capsys.readouterr().out == "60\n"
    assert run(["systems", "--genus", "3", "--kind", "aronhold", "--count"]) == 0
    assert capsys.readouterr().out == "288\n"


def test_systems_listing_is_frozen(capsys):
    # sha256 of the full JSON listing: member order, system order, keys and
    # formatting are part of the output contract
    frozen = {
        ("systems", "--genus", "2", "--kind", "gopel"):
            "8b6701dca048c7ca21c817285e5b8e25d5decd79eaa45abdf9ff2a99caabe8db",
        ("systems", "--genus", "3", "--kind", "tetrads"):
            "58c4d14a00fb205d12875dd85fbf1b3771460e626890315b85f3c38f4268f0ca",
        ("systems", "--genus", "2", "--kind", "fundamental"):
            "ce6b1524a6daf8acbab8b3ab7cf09c090592ea8e5698d019139519e495233977",
        ("systems", "--genus", "3", "--kind", "aronhold"):
            "a76613f68e343f4b2c78cb60f803ea0d210b3e4c200b6d92cd8d70465e3d1637",
        ("forms", "--genus", "2"):
            "f4b736e50a8abbc649b3aaee703f9aa0b61d7f10e61e0f8bbcc5f18e28a7eb6c",
        ("forms", "--genus", "3", "--parity", "odd"):
            "a8648ab27a79bce67abd735b20e07ca5d99b6949a43f968ef736d763a4ced172",
    }
    for argv, digest in frozen.items():
        assert run(list(argv)) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_systems_listing_shape(capsys):
    assert run(["systems", "--genus", "1", "--kind", "fundamental"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["count"] == 1
    members = data["systems"][0]["members"]
    assert len(members) == 4
    assert members[0].keys() == {"eps", "delta", "parity"}


def test_aronhold_needs_genus_3(capsys):
    assert run(["systems", "--genus", "2", "--kind", "aronhold"]) == 1
    assert "error:" in capsys.readouterr().err


def test_theta_evaluation(capsys):
    assert run(["theta", "--genus", "1", "--tau", TAU_1_JSON, "--char", "0;0"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert abs(data["re"] - 1.08643481121330801) < 1e-10
    assert abs(data["im"]) < 1e-12
    assert data["est_error"] <= data["tolerance"] == 1e-12

    args = ["theta", "--genus", "2", "--tau", TAU_2_JSON, "--char", "00;11"]
    assert run(args) == 0
    data = json.loads(capsys.readouterr().out)
    assert abs(data["re"] - 0.9039885325299508) < 1e-10


def test_theta_input_errors(capsys):
    bad_char = ["theta", "--genus", "2", "--tau", TAU_2_JSON, "--char", "0;0"]
    assert run(bad_char) == 1
    assert "genus" in capsys.readouterr().err
    bad_tau = ["theta", "--genus", "2", "--tau", "[[0.5], [1]]", "--char", "00;00"]
    assert run(bad_tau) == 1
    assert "tau row" in capsys.readouterr().err
    huge_z = ["theta", "--genus", "1", "--tau", TAU_1_JSON, "--char", "0;0", "--z", "[[0, 40]]"]
    assert run(huge_z) == 1
    assert capsys.readouterr().err.startswith("error: cannot reach the requested tolerance")


def test_large_real_parts_give_true_values(capsys):
    # Re tau is reduced mod 2 and Re z mod 1 exactly before summing; at
    # Re tau = 1e17 or Re z = 1e300 the unreduced sums lost every digit
    tau_17 = "[[[1e17, 1], [0, 0]], [[0, 0], [0, 1]]]"
    assert run(["theta", "--genus", "2", "--tau", tau_17, "--char", "00;00"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert abs(complex(data["re"], data["im"]) - 1.1803405990160962) < 1e-12  # theta(i I_2)
    args = ["theta", "--genus", "1", "--tau", TAU_1_JSON, "--char", "0;0", "--z", "[[1e300, 0]]"]
    assert run(args) == 0
    data = json.loads(capsys.readouterr().out)
    assert abs(complex(data["re"], data["im"]) - 1.0864348112133082) < 1e-12  # theta_3(i)
    assert run(["amplitude", "--genus", "1", "--tau", "[[[1e308, 1]]]"]) == 0
    data = json.loads(capsys.readouterr().out)
    want = xi_g(PeriodMatrix([[1j]]), 1)
    assert abs(complex(data["xi_re"], data["xi_im"]) - want) < 1e-12


def test_an_overflowing_im_z_is_an_error(capsys):
    # |Im z| = 1e308 squared overflows; its norm does not, and the tail
    # bound then reports the tolerance as unreachable
    args = ["theta", "--genus", "1", "--tau", TAU_1_JSON, "--char", "0;0", "--z", "[[0, 1e308]]"]
    assert run(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot reach the requested tolerance")


# theta[1; 0] at Im tau = 1e200 and Im z = 0.4e200: the box admits z, and
# the kept term's weight exceeds the largest double
_NON_FINITE_THETA = ["theta", "--genus", "1", "--tau", "[[0, 1e200]]", "--char", "1;0", "--z", "[[0, 0.4e200]]"]


def test_a_non_finite_report_exits_1_and_prints_nothing():
    # a child process, with and without warnings as errors: the sum is
    # refused before its exp overflows, so no numpy warning and no traceback
    # reaches stderr, only the one error line
    src = str(Path(thetachar.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    for flags in ([], ["-W", "error"]):
        for output in ("json", "table"):
            proc = subprocess.run([sys.executable, *flags, "-m", "thetachar.cli", *_NON_FINITE_THETA, "--output",
                                   output], capture_output=True, text=True, env=env, timeout=60)
            assert (proc.returncode, proc.stdout) == (1, ""), (flags, output, proc.stdout)
            errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
            assert len(errors) == 1 and errors[0].startswith("error: theta exceeds the largest double"), proc.stderr
            assert "Warning" not in proc.stderr, proc.stderr


@pytest.mark.parametrize("output", ["json", "table"])
def test_emit_refuses_a_non_finite_value_and_prints_nothing(output, capsys):
    # no report the library makes reaches the printer with an inf any more;
    # the printer still refuses one
    with pytest.raises(ValueError, match="Out of range float values"):
        _emit({"re": math.inf}, output)
    assert capsys.readouterr().out == ""


def test_parse_period_matrix_conventions():
    tau = parse_period_matrix(TAU_2_JSON, 2)
    assert isinstance(tau, PeriodMatrix)
    assert tau.tau[0, 1] == 0.2 + 0.1j
    # genus 1 accepts one bare [re, im] row
    assert parse_period_matrix("[[0.5, 2]]", 1).tau[0, 0] == 0.5 + 2j
    with pytest.raises(ValueError):
        parse_period_matrix("[[true, 1]]", 1)
    with pytest.raises(ValueError):
        parse_period_matrix('{"no": "rows"}', 1)


def test_amplitude_report(capsys):
    assert run(["amplitude", "--genus", "1", "--tau", TAU_1_JSON]) == 0
    data = json.loads(capsys.readouterr().out)
    want = xi_g(PeriodMatrix([[1j]]), 1)
    assert abs(complex(data["xi_re"], data["xi_im"]) - want) < 1e-12
    assert [entry["i"] for entry in data["per_i"]] == [0, 1]
    assert run(["amplitude"]) == 1  # --genus/--tau missing
    capsys.readouterr()


def test_amplitude_report_computes_each_P_i_once(capsys, monkeypatch):
    # one pass sums P_0..P_g per tau and table; the report's Xi and P_i,
    # and the library's xi_g then P_i_g for every i, all read that pass
    passes = []
    sum_levels = amplitude._sum_levels

    def counted(table, g):
        passes.append(g)
        return sum_levels(table, g)

    monkeypatch.setattr(amplitude, "_sum_levels", counted)
    for g, tau in ((1, TAU_1_JSON), (2, TAU_2_JSON)):
        theta._table.cache_clear()
        amplitude._level_sums.cache_clear()
        passes.clear()
        assert run(["amplitude", "--genus", str(g), "--tau", tau]) == 0
        data = json.loads(capsys.readouterr().out)
        assert passes == [g]
        tau = parse_period_matrix(tau, g)
        assert complex(data["xi_re"], data["xi_im"]) == xi_g(tau, g)
        assert [complex(p["re"], p["im"]) for p in data["per_i"]] == [P_i_g(tau, g, i) for i in range(g + 1)]
        assert passes == [g]
    tau = PeriodMatrix([[1.2j, 0.1, 0], [0.1, 1j, 0.05j], [0, 0.05j, 0.9j]])
    theta._table.cache_clear()
    amplitude._level_sums.cache_clear()
    passes.clear()
    xi = xi_g(tau, 3)
    terms = [P_i_g(tau, 3, i) for i in range(4)]
    assert passes == [3]
    assert (xi_g(tau, 3, 1e-12), [P_i_g(tau, 3, i, 1e-12) for i in range(4)]) == (xi, terms)
    assert passes == [3]


def test_amplitude_genus_4_is_byte_identical_across_processes():
    tau = [[[0, 0.9], [0.1, 0.05], [0, 0], [-0.1, 0]],
           [[0.1, 0.05], [0.2, 1.0], [0, 0.05], [0, 0]],
           [[0, 0], [0, 0.05], [-0.3, 0.8], [0.05, 0]],
           [[-0.1, 0], [0, 0], [0.05, 0], [0, 1.1]]]
    src = str(Path(thetachar.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "thetachar.cli", "amplitude", "--genus", "4",
           "--tau", json.dumps(tau)]
    procs = [
        subprocess.Popen(cmd, env={**os.environ, "PYTHONPATH": path},
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        for _ in range(2)
    ]
    outs = [p.communicate(timeout=120) for p in procs]
    assert [p.returncode for p in procs] == [0, 0], outs
    assert outs[0][0] == outs[1][0]
    assert json.loads(outs[0][0])["genus"] == 4


def test_amplitude_check_factorization(capsys):
    args = [
        "amplitude",
        "check-factorization",
        "--g", "2", "--k", "1",
        "--tau1", TAU_1_JSON,
        "--tau2", TAU_1_JSON,
    ]
    assert run(args) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["g"] == 2 and data["k"] == 1
    assert data["residual"] < 1e-8


def test_amplitude_checks_the_genus_before_any_tau(capsys):
    # each tau below has the wrong shape too; the range error comes first
    for args, message in (
        (["check-factorization", "--g", "2", "--k", "2", "--tau1", TAU_1_JSON, "--tau2", "[]"],
         "need 1 <= k < g <= 4, got g=2, k=2"),
        (["check-factorization", "--g", "6", "--k", "1", "--tau1", TAU_1_JSON, "--tau2", "[]"],
         "need 1 <= k < g <= 4, got g=6, k=1"),
        (["--genus", "5", "--tau", TAU_1_JSON], "need 1 <= g <= 4, got 5"),
    ):
        assert run(["amplitude", *args]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


def test_check_factorization_tol_in_both_positions(capsys):
    # the reported tolerance is the one given; given twice, the inner one wins
    tail = ["--g", "2", "--k", "1", "--tau1", TAU_1_JSON, "--tau2", TAU_1_JSON]
    tolerances = []
    for args in (
        ["amplitude", "--tol", "1e-6", "check-factorization", *tail],
        ["amplitude", "check-factorization", "--tol", "1e-7", *tail],
        ["amplitude", "check-factorization", *tail, "--tol", "1e-8"],
        ["amplitude", "--tol", "1e-6", "check-factorization", *tail, "--tol", "1e-9"],
        ["amplitude", "check-factorization", *tail],
    ):
        assert run(args) == 0
        tolerances.append(json.loads(capsys.readouterr().out)["tolerance"])
    assert tolerances == [1e-6, 1e-7, 1e-8, 1e-9, 1e-12]


def test_boundary_reports(tmp_path, capsys):
    path = tmp_path / "banana.json"
    path.write_text(json.dumps(BANANA))
    assert run(["boundary", "--graph", str(path)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["total_length"] == 256
    assert data["reduced"] is False

    assert run(["boundary", "--graph", str(path), "--report", "degrees"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["genus"] == 4
    assert data["degrees"][0] == {"i": 0, "deg_A": 64, "deg_B": 28}

    assert run(["boundary", "--graph", str(tmp_path / "missing.json")]) == 1
    assert "error:" in capsys.readouterr().err


def test_boundary_refuses_too_many_cycles(tmp_path, capsys):
    # the components report lists all 2^b even sets, 4x the time and memory
    # per two more cycles; past the cap it exits 1 before listing any.  The
    # degrees report is arithmetic on g and has no cap.
    loops = {
        "vertices": [{"id": "v", "genus": 0}],
        "edges": [{"id": f"e{i}", "u": "v", "v": "v"} for i in range(17)],
    }
    path = tmp_path / "loops.json"
    path.write_text(json.dumps(loops))
    start = time.perf_counter()
    assert run(["boundary", "--graph", str(path)]) == 1
    assert time.perf_counter() - start < 0.5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: need b <= 16 to list the 2^b even edge sets, got b = 17\n"
    assert run(["boundary", "--graph", str(path), "--report", "degrees"]) == 0
    assert json.loads(capsys.readouterr().out)["genus"] == 17


def test_picard_reports(capsys):
    assert run(["picard", "--genus", "9", "--space", "even", "--report", "verdict"]) == 0
    assert capsys.readouterr().out == "general_type\n"

    assert run(["picard", "--genus", "12", "--space", "odd"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["lambda_slope"] == "13"
    assert data["c_coefficient"] == "3/5"
    assert data["bn_applicable"] is False

    assert run(["picard", "--genus", "8", "--space", "even", "--report", "classes"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["bn_applicable"] is True
    assert data["classes"]["ThetaNull"]["coeffs"]["alpha_0"] == "-1/16"
    assert "BN_pullback" in data["classes"]

    # each class only in its range: Z_odd from g = 3, ThetaNull from g = 2
    assert run(["picard", "--genus", "2", "--space", "odd", "--report", "classes"]) == 0
    assert json.loads(capsys.readouterr().out)["classes"] == {}
    # below g = 2 the classes report stops at picard.basis_symbols' own check
    for space in ("odd", "even"):
        assert run(["picard", "--genus", "1", "--space", space, "--report", "classes"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: need g >= 2, got 1\n" and captured.out == ""


def test_picard_slopes_and_verdicts_are_frozen(capsys):
    # sha256 of the concatenated stdout for g = 4..30, odd then even cover
    frozen = {
        "slope": "c0fc049b67ae18e646153de1039004c4c8fdc401c6cc6fff963cbc7c85e6b8a1",
        "verdict": "ec7ff5574e64dd23a5462d473b014454c719b39a2e8c0c5eaf9f23ee28f1f99f",
    }
    for report, digest in frozen.items():
        out = []
        for g in range(4, 31):
            for space in ("odd", "even"):
                assert run(["picard", "--genus", str(g), "--space", space, "--report", report]) == 0
                out.append(capsys.readouterr().out)
        assert hashlib.sha256("".join(out).encode()).hexdigest() == digest, report


def _written(c):
    # a class as the removed DivClass.__str__ wrote it, "11*lambda -
    # 5/4*alpha_0 - 2*beta_0" ("0" when empty): the text a digest pins
    out = ""
    for sym, val in c.coeffs:
        term = sym if abs(val) == 1 else f"{abs(val)}*{sym}"
        out += (("-" if val < 0 else "") if not out else (" - " if val < 0 else " + ")) + term
    return out or "0"


def test_picard_classes_and_combinations_are_frozen(capsys):
    # sha256 of every classes report (exit code, then stdout) for g = 2..31,
    # odd then even cover, and of each combined class written out for
    # g = 4..30; both taken when a class was still a tuple of (symbol,
    # Fraction) pairs, the first taken again when g = 2 on the odd cover
    # became an empty report
    out = []
    for g in range(2, 32):
        for space in ("odd", "even"):
            code = run(["picard", "--genus", str(g), "--space", space, "--report", "classes"])
            out.append(f"{code}\n{capsys.readouterr().out}")
    digest = hashlib.sha256("".join(out).encode()).hexdigest()
    assert digest == "80bca10f866b8a92774cd8cb3ebdddca43bba594b45e05866ca942ccf0506df2"
    combined = "".join(
        f"{_written(slope_combination(g, space).combined)}\n"
        for g in range(4, 31)
        for space in ("odd", "even")
    )
    digest = hashlib.sha256(combined.encode()).hexdigest()
    assert digest == "77026608bfcfa655b4b285c3aa414d800f88ba2d5c4689bc0cea5720a0025a86"


def test_output_table_flag_in_both_positions(capsys):
    # before, inside and after the subcommands; given twice, the inner one wins
    factorization = ["check-factorization", "--g", "2", "--k", "1",
                     "--tau1", TAU_1_JSON, "--tau2", TAU_1_JSON]
    for command, key in (
        (["picard", "--genus", "12", "--space", "odd"], "lambda_slope"),
        (["amplitude", *factorization], "residual"),
    ):
        outs = []
        for args in (
            ["--output", "table", *command],
            [command[0], "--output", "table", *command[1:]],
            [*command, "--output", "table"],
            ["--output", "json", *command, "--output", "table"],
        ):
            assert run(args) == 0
            outs.append(capsys.readouterr().out)
        assert outs == [outs[0]] * len(outs)
        assert key in outs[0]
        with pytest.raises(json.JSONDecodeError):
            json.loads(outs[0])


def _table(payload: dict) -> str:
    # table mode as the CLI documents it: one padded key per line, scalars
    # as they are, lists and objects as JSON
    width = max(map(len, payload))
    return "".join(
        f"{key:<{width}}  {value if isinstance(value, (str, int, float)) else json.dumps(value)}\n"
        for key, value in payload.items()
    )


def test_table_output_is_frozen(tmp_path, capsys):
    # sha256 of every exact-valued table report (exit code, then stdout),
    # taken before the CLI held the one report encoder
    path = tmp_path / "banana.json"
    path.write_text(json.dumps(BANANA))
    commands = [
        ["forms", "--genus", "1"],
        ["forms", "--genus", "2", "--parity", "even"],
        ["systems", "--genus", "2", "--kind", "fundamental"],
        ["systems", "--genus", "2", "--kind", "gopel"],
        ["systems", "--genus", "3", "--kind", "tetrads"],
        ["systems", "--genus", "3", "--kind", "aronhold"],
        ["boundary", "--graph", str(path)],
        ["boundary", "--graph", str(path), "--report", "degrees"],
    ]
    commands += [
        ["picard", "--genus", str(g), "--space", space, "--report", report]
        for report in ("classes", "slope", "verdict")
        for g in range(2, 32)
        for space in ("odd", "even")
    ]
    out = []
    for argv in commands:
        code = run(["--output", "table", *argv])
        out.append(f"{code}\n{capsys.readouterr().out}")
    digest = hashlib.sha256("".join(out).encode()).hexdigest()
    assert digest == "5ff7c9eed79ff61a4a4cb2a3c07a0b42a9ed50ddc1ababeca886f2690cab5256"
    # the floating-point reports: numpy's exp may differ in the last bit
    # from one build to the next, so these are held to their JSON reports
    factorization = ["check-factorization", "--g", "2", "--k", "1",
                     "--tau1", TAU_1_JSON, "--tau2", TAU_1_JSON]
    for argv in (
        ["theta", "--genus", "1", "--tau", TAU_1_JSON, "--char", "0;0"],
        ["theta", "--genus", "2", "--tau", TAU_2_JSON, "--char", "00;11", "--z", "[0.1, 0.2]"],
        ["amplitude", "--genus", "2", "--tau", TAU_2_JSON],
        ["amplitude", *factorization],
    ):
        assert run(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert run(["--output", "table", *argv]) == 0
        assert capsys.readouterr().out == _table(payload), argv


def test_deeply_nested_json_is_an_input_error(tmp_path, capsys):
    # json raises RecursionError on nesting past the interpreter's recursion
    # limit; every JSON input reports it as an error line with exit 1
    deep = "[" * 100_000 + "]" * 100_000
    path = tmp_path / "deep.json"
    path.write_text('{"vertices": ' + deep + ', "edges": []}')
    for argv, what in (
        (["theta", "--genus", "1", "--tau", deep, "--char", "0;0"], "tau"),
        (["theta", "--genus", "1", "--tau", TAU_1_JSON, "--char", "0;0", "--z", deep], "z"),
        (["amplitude", "check-factorization", "--g", "2", "--k", "1",
          "--tau1", deep, "--tau2", TAU_1_JSON], "tau"),
        (["boundary", "--graph", str(path)], "graph"),
    ):
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {what} JSON is nested too deeply\n"
    # around the limit, where the parse may succeed and the error message
    # quotes the nested entry, nothing escapes either
    limit = sys.getrecursionlimit()
    for depth in range(limit - 40, limit + 5):
        nested = "[" * depth + "]" * depth
        path.write_text('{"vertices": [' + nested + '], "edges": []}')
        for argv in (
            ["theta", "--genus", "1", "--tau", f"[{nested}]", "--char", "0;0"],
            ["boundary", "--graph", str(path)],
        ):
            assert run(argv) == 1
            assert capsys.readouterr().err.startswith("error: ")


def test_genus_caps_come_before_any_work(tmp_path, capsys, monkeypatch):
    # picard's genus and boundary's vertex and total genus are checked
    # against cli.GENUS_CAP first: past it nothing is built
    def unreachable(*args):
        pytest.fail("reached past the genus cap")

    for name in ("named_class", "canonical_class", "slope_combination", "general_type_test"):
        monkeypatch.setattr(pic, name, unreachable)
    for name in ("boundary_degrees_odd", "th_components"):
        monkeypatch.setattr(bnd, name, unreachable)
    assert GENUS_CAP >= 31  # picard's frozen reports run to g = 31
    for g in (GENUS_CAP + 1, 10**11):
        for report in ("classes", "slope", "verdict"):
            assert run(["picard", "--genus", str(g), "--space", "odd", "--report", report]) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err == f"error: need g <= {GENUS_CAP}, got {g}\n"
    path = tmp_path / "graph.json"
    for vertices, loops, err in (
        ([("a", 99_999_999_999)], 0, f"need the genus of vertex 'a' <= {GENUS_CAP}, got 99999999999"),
        ([("a", GENUS_CAP), ("b", 1)], 0, f"need total genus <= {GENUS_CAP}, got {GENUS_CAP + 1}"),
        ([("a", GENUS_CAP - 2)], 3, f"need total genus <= {GENUS_CAP}, got {GENUS_CAP + 1}"),
    ):
        edges = [{"id": f"e{i}", "u": "a", "v": "a"} for i in range(loops)]
        if len(vertices) == 2:
            edges.append({"id": "bridge", "u": "a", "v": "b"})
        graph = {"vertices": [{"id": v, "genus": k} for v, k in vertices], "edges": edges}
        path.write_text(json.dumps(graph))
        for report in ("components", "degrees"):
            assert run(["boundary", "--graph", str(path), "--report", report]) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err == f"error: {err}\n"
    monkeypatch.undo()
    # at the cap both commands still answer
    assert run(["picard", "--genus", str(GENUS_CAP), "--space", "even", "--report", "verdict"]) == 0
    assert capsys.readouterr().out == "general_type\n"
    path.write_text(json.dumps({"vertices": [{"id": "a", "genus": GENUS_CAP}], "edges": []}))
    assert run(["boundary", "--graph", str(path), "--report", "degrees"]) == 0
    assert json.loads(capsys.readouterr().out)["genus"] == GENUS_CAP


@pytest.mark.parametrize("graph", [
    [{"a": 1}],
    {"vertices": 5, "edges": []},
    {"vertices": [["a", 1]], "edges": []},
    {"vertices": [{"id": "a", "genus": True}], "edges": []},
    {"vertices": [{"id": "a", "genus": 1}], "edges": [{"id": "e", "u": ["a"], "v": "a"}]},
])
def test_malformed_graph_is_an_error(tmp_path, capsys, graph):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(graph))
    assert run(["boundary", "--graph", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_removed_knobs(capsys, monkeypatch):
    # --config is no longer a flag, before or after the subcommand;
    # THETACHAR_THREADS is ignored
    assert run(["forms", "--genus", "1", "--config", "cfg.json"]) == 2
    assert "unrecognized arguments: --config" in capsys.readouterr().err
    assert run(["--config", "cfg.json", "forms", "--genus", "1"]) == 2
    capsys.readouterr()
    monkeypatch.setenv("THETACHAR_THREADS", "0")
    assert run(["forms", "--genus", "1", "--count"]) == 0
    assert capsys.readouterr().out == "4\n"


def test_each_setting_is_read_by_the_command_that_takes_it(capsys):
    # verify pins its tolerance and forms draws nothing at random, so
    # neither accepts the flag
    assert run(["verify", "--tol", "1e-9"]) == 2
    assert run(["forms", "--genus", "1", "--seed", "1"]) == 2
    capsys.readouterr()
    # check-factorization reads its own --g and --k, not amplitude's flags
    assert run(["amplitude", "--genus", "3", "--tau", TAU_1_JSON, "check-factorization",
                "--g", "2", "--k", "1", "--tau1", TAU_1_JSON, "--tau2", TAU_1_JSON]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: thetachar ") and "\nthetachar: error: check-factorization" in err
    assert run(["theta", "--genus", "1", "--tau", TAU_1_JSON, "--char", "0;0"]) == 0
    assert json.loads(capsys.readouterr().out)["tolerance"] == 1e-12
    assert run(["verify", "--only", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 0
    with pytest.raises(TypeError):
        run_acceptance(7)


def test_verify_subset_is_deterministic(capsys):
    args = ["verify", "--seed", "5", "--only", "1", "12", "--output", "table"]
    assert run(args) == 0
    first = capsys.readouterr().out
    assert run(args) == 0
    assert capsys.readouterr().out == first
    lines = first.splitlines()
    assert lines[0].startswith("[ 1] PASS")
    assert lines[1].startswith("[12] PASS")
    assert "overall: PASS (2/2 criteria, seed 5)" in lines[-1]


def test_verify_rejects_unknown_criterion(capsys):
    assert run(["verify", "--only", "15"]) == 1
    assert "error:" in capsys.readouterr().err


def test_main_raises_system_exit():
    with pytest.raises(SystemExit) as exc:
        main(["forms", "--genus", "1", "--count"])
    assert exc.value.code == 0


# The CLI fuzz test runs every draw in one child process, which calls
# cli.run once per draw with stdout and stderr captured, under its own
# address-space and CPU limits.
_FUZZ_CHILD = """
import contextlib, io, json, sys, traceback
from thetachar.cli import run
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except Exception:
            code = None
            traceback.print_exc()
    results.append([code, out.getvalue(), err.getvalue()])
json.dump(results, sys.__stdout__)
"""


def _diag_tau(g, im):
    return json.dumps([[[0, im] if j == k else 0 for k in range(g)] for j in range(g)])


_CHARS = {"1": ["0;0", "1;1", "1;0"], "2": ["01;10", "11;11", "00;01"]}
_CAP = theta._IM_CAP
_CAP_ERROR = "error: the eigenvalues of Im tau must be at most"
# Im tau that PeriodMatrix refuses, with its error: above the cap (1e307 I,
# 1e308 I, diag(0.4, 4e307)), or rank one and so not positive definite
# (1e50 J; at g = 4 eigvalsh reads its lambda_min as 2.2e18)
_REFUSED = {_diag_tau(g, im): _CAP_ERROR for g in (1, 2, 3, 4) for im in (1e307, 1e308)}
_MIXED_OVER_CAP = "[[[0, 0.4], 0], [0, [0, 4e307]]]"
_RANK_ONE = {g: json.dumps([[[0, 1e50]] * g] * g) for g in (2, 4)}
_REFUSED[_MIXED_OVER_CAP] = _CAP_ERROR
_REFUSED.update((tau, "error: Im tau must be positive definite") for tau in _RANK_ONE.values())
# (cap/4) I, under the cap: a table where theta[0; delta] = 1 and every other entry is 0 exactly
_EXACT = [["amplitude", "--genus", str(g), "--tau", _diag_tau(g, _CAP / 4)] for g in (1, 2, 3, 4)]


def _domain_error(argv):
    """The error a theta or amplitude draw must end in when its --tol or Im tau is out of domain.

    The handlers check the tolerance first, then (theta) the
    characteristic, then tau; a refused Im tau ends in its own error once
    every earlier input is valid.  None when the draw is in domain or an
    earlier input decides its error.
    """
    if argv[0] not in ("theta", "amplitude") or "check-factorization" in argv:
        return None
    opts = dict(zip(argv[1::2], argv[2::2]))
    tol = opts.get("--tol", "1e-12")
    if tol == "-inf":  # argparse reads it as an option: a usage error
        return None
    if not 1e-13 < float(tol) < 1:
        return "error: tolerance must be in (1e-13, 1)"
    tau, g = opts["--tau"], opts["--genus"]
    if tau not in _REFUSED or g != str(len(json.loads(tau))):
        return None
    if argv[0] == "theta" and opts["--char"] not in _CHARS.get(g, []):
        return None
    return _REFUSED[tau]


def _fuzz_draws(rng, tmp_path):
    """Seeded argv for every subcommand, each draw with the output mode it prints in."""
    ints = ["0", "-1", str(2**63), str(10**11), "1", "2", "3"]
    floats = ["nan", "inf", "-inf", "0", "-1", "1e-13", "1e-12", "1e-6", "0.5", str(2**63), "1e11"]
    deep = "[" * 100_000 + "]" * 100_000
    junk = ["", "[]", "{}", "null", deep, "[[NaN]]", "[[Infinity]]", "[[0, -1]]", "[1, [2]]"]
    taus = {g: [_diag_tau(g, 1), _diag_tau(g, 0.8), _diag_tau(g, 1e307), _diag_tau(g, 1e308)]
            for g in (1, 2, 3, 4)}
    taus[1] += ["[[0, 1]]", "[[[0.3, 1.2]]]", "[[[1e308, 1]]]"]
    # mixed scales under and over the cap, and a rank-one Im tau
    mixed = [json.dumps([[[0, 0.4], 0], [0, [0, _CAP / 2]]]), json.dumps([[[0.3, 0.5], 0], [0, [-2.5, 1e250]]])]
    taus[2] += [TAU_2_JSON, TAU_2_JSON, *mixed, _MIXED_OVER_CAP, _RANK_ONE[2]]
    taus[4].append(_RANK_ONE[4])
    chars = _CHARS
    zs = {"1": ["[0]", "[[0, 0.2]]", "[Infinity]", "[[0, 1e308]]"],
          "2": ["[0, 0]", "[[0, 0.1], 0.3]", "[Infinity, 0]", "[[NaN, 0], 0]"]}

    def tau(g):
        g = int(g) if g in ("1", "2", "3", "4") else rng.choice((1, 2, 3))
        return rng.choice(taus[g] if rng.random() < 0.7 else junk)

    graphs = {"missing": tmp_path / "missing.json"}
    for name, text in (("banana", json.dumps(BANANA)), ("empty", ""), ("deep", deep),
                       ("huge", json.dumps({"vertices": [{"id": "a", "genus": 10**11}], "edges": []})),
                       ("negative", json.dumps({"vertices": [{"id": "a", "genus": -1}], "edges": []}))):
        graphs[name] = tmp_path / f"{name}.json"
        graphs[name].write_text(text, encoding="utf-8")

    def forms():
        argv = ["forms", "--genus", rng.choice(ints)]
        argv += ["--parity", rng.choice(("even", "odd", "all"))] if rng.random() < 0.5 else []
        return argv + (["--count"] if rng.random() < 0.3 else [])

    def systems():
        kind = rng.choice(("tetrads", "fundamental", "gopel", "aronhold"))
        g = rng.choice(ints if kind in ("aronhold", "fundamental") else ["0", "-1", str(2**63), "1", "2"])
        return ["systems", "--genus", g, "--kind", kind] + (["--count"] if rng.random() < 0.3 else [])

    def theta():
        g = rng.choice(["1", "2", "1", "2", "0", "-1", str(2**63)])
        argv = ["theta", "--genus", g, "--tau", tau(g)]
        argv += ["--char", rng.choice(chars.get(g, []) * 3 + ["", "2;0", "0;", "0;0", "00;00"])]
        if rng.random() < 0.4:
            argv += ["--z", rng.choice(zs.get(g, []) * 2 + junk)]
        return argv + (["--tol", rng.choice(floats)] if rng.random() < 0.3 else [])

    def amplitude():
        g = rng.choice(["1", "2", "3", "1", "2", "3", "4", "0", "-1", "5", str(2**63), str(10**11)])
        argv = ["amplitude", "--genus", g, "--tau", tau(g)]
        return argv + (["--tol", rng.choice(floats)] if rng.random() < 0.3 else [])

    def factorization():
        g, k = rng.choice([("2", "1"), ("3", "1"), ("3", "2"), ("2", "2"), ("0", "-1"), (str(2**63), "1")])
        return ["amplitude", "check-factorization", "--g", g, "--k", k, "--tau1", tau(k), "--tau2",
                tau(str(int(g) - int(k)) if g in ("2", "3") else g)]

    def boundary():
        graph = graphs[rng.choice(sorted(graphs))]
        return ["boundary", "--graph", str(graph), "--report", rng.choice(("components", "degrees"))]

    def picard():
        g = rng.choice(["0", "-1", "1", "2", "4", "12", "13", "31", "1000", str(2**63), str(10**11)])
        space = rng.choice(("odd", "even", "Sbar_minus", "Sbar_plus"))
        return ["picard", "--genus", g, "--space", space, "--report", rng.choice(("classes", "slope", "verdict"))]

    def verify():
        # every criterion but 14, the one that costs some 0.3 s
        only = rng.sample(["0", "-1", "15", str(2**63), *map(str, range(1, 14))], rng.randint(1, 3))
        return ["verify", "--only", *only] + (["--seed", rng.choice(ints)] if rng.random() < 0.3 else [])

    grammars = (forms, systems, theta, amplitude, factorization, boundary, picard, verify)
    draws = [rng.choice(grammars)() for _ in range(400)]
    # Im tau = 1e307 I and 1e308 I, both above the cap, at g = 1..4, the
    # rank-one Im tau at g = 4, and theta at each mixed-scale and the
    # rank-one Im tau at g = 2
    draws += [["amplitude", "--genus", str(g), "--tau", _diag_tau(g, im)] for g in (1, 2, 3, 4) for im in (1e307, 1e308)]
    draws.append(["amplitude", "--genus", "4", "--tau", _RANK_ONE[4]])
    draws += [["theta", "--genus", "2", "--tau", tau, "--char", "01;10"] for tau in taus[2][-4:]]
    out = []
    for argv in draws:
        output = rng.choice(("json", "table", None))
        if output is not None:
            at = rng.choice((0, len(argv))) if argv[:2] != ["amplitude", "check-factorization"] else len(argv)
            argv = argv[:at] + ["--output", output] + argv[at:]
        out.append((argv, output or "json"))
    # (cap/4) I at g = 1..4, whose tables must be exact: read in json
    out += [(argv, "json") for argv in _EXACT]
    # a theta value past the double range, in both output modes
    out += [(_NON_FINITE_THETA + ["--output", output], output) for output in ("json", "table")]
    return out


def _refuse_constant(name):
    raise ValueError(f"{name} in a report")


def test_cli_fuzz(tmp_path):
    def limits():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
        resource.setrlimit(resource.RLIMIT_CPU, (60, 60))

    draws = _fuzz_draws(random.Random(20261020), tmp_path)
    src = str(Path(thetachar.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", _FUZZ_CHILD], input=json.dumps([a for a, _ in draws]),
                          capture_output=True, text=True, env=env, preexec_fn=limits, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    results = json.loads(proc.stdout)
    assert len(results) == len(draws)
    exact = 0
    for (argv, output), (code, out, err) in zip(draws, results):
        where = f"{[a[:60] for a in argv]}: exit {code}, stderr {err[-300:]!r}"
        assert code in (0, 1, 2), where
        assert "Traceback" not in out + err, where
        flagged = any(line.startswith(("error:", "usage:")) for line in err.splitlines())
        assert flagged == (code != 0), where
        assert not flagged or out == "", where  # an error prints no report
        assert code != 0 or err == "", where  # no warning on a run that succeeds
        at = argv.index("--output") if "--output" in argv else len(argv)
        domain = _domain_error(argv[:at] + argv[at + 2:])
        if domain is not None:
            assert code == 1 and err.startswith(domain), where
        if argv in _EXACT:
            # theta[0; delta] = 1 and every other constant 0: Xi = 0, and P_i
            # counts the i-dimensional subspaces of F_2^g, a Gaussian binomial
            g = int(argv[2])
            data = json.loads(out)
            binomials = [math.prod(2 ** (g - j) - 1 for j in range(i)) // math.prod(2 ** (j + 1) - 1 for j in range(i))
                         for i in range(g + 1)]
            assert code == 0 and (data["xi_re"], data["xi_im"]) == (0.0, 0.0), where
            assert [(p["re"], p["im"]) for p in data["per_i"]] == [(b, 0.0) for b in binomials], where
            exact += 1
        if code == 0 and output == "json":
            if "verdict" in argv:  # a verdict prints as one bare word
                assert out.strip() in ("general_type", "threshold", "inconclusive"), where
            else:  # every float in a report is finite: no Infinity, no NaN
                try:
                    json.loads(out, parse_constant=_refuse_constant)
                except ValueError as exc:
                    pytest.fail(f"{where}: {exc}")
    codes = [code for code, _, _ in results]
    assert codes.count(0) > 50 and codes.count(1) > 50 and codes.count(2) > 0
    assert exact == 4
