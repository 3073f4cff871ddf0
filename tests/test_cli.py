from __future__ import annotations

import concurrent.futures
import json
import os
import subprocess
import sys

import pytest

from toricstab import thresholds
from toricstab.cli import MAX_CANDIDATES, MAX_SAMPLES, ProblemFile, build_parser, main

from test_toric import PINNED_FANS


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main([*argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_good_fan(capsys, problems_dir):
    code, out, err = run(capsys, "validate", str(problems_dir / "p2.json"))
    assert code == 0
    assert "complete" in out and "True" in out
    assert err == ""


def test_validate_bad_fan_exit_2(capsys, problems_dir):
    code, out, err = run(capsys, "validate", str(problems_dir / "bad_fan.json"))
    assert code == 2
    # the diagnostics table is still printed
    assert out.splitlines()[2].split() == ["complete", "False"]
    assert "not complete" in err
    payload = json.loads(err)
    assert payload["error"] == "validation"


def test_validate_schema_violation(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"fan": {"rays": [[1, 0]], "cones": [[0]]}}))
    code, _out, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert "schema" in err


def test_unknown_divisor_exit_2(capsys, problems_dir):
    code, _out, err = run(
        capsys, "curve", str(problems_dir / "p2.json"),
        "--direction", "nope",
    )
    assert code == 2
    assert "unknown divisor" in err


def test_volume_value(capsys, problems_dir):
    code, out, _err = run(
        capsys, "volume", str(problems_dir / "p2.json")
    )
    assert code == 0
    assert "9" in out


def test_volume_curve_csv(capsys, problems_dir):
    code, out, _err = run(
        capsys, "volume", str(problems_dir / "f1.json"),
        "--curve", "E", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,volume,decimal"
    assert lines[1].startswith("0,8,")


def test_delta_table(capsys, problems_dir):
    code, out, _err = run(
        capsys, "delta", str(problems_dir / "f1.json"), "--radius", "2"
    )
    assert code == 0
    assert out.splitlines()[0] == "delta = 6/7 (exact) at u=(1, 1)"


def test_delta_json_roundtrip(capsys, problems_dir):
    code, out, _err = run(
        capsys, "delta", str(problems_dir / "p2.json"),
        "--radius", "2", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["delta"] == "1"
    # every rational in the payload parses back exactly
    for row in payload["candidates"]:
        from fractions import Fraction

        Fraction(row["quotient"])


def test_curve_functionals(capsys, problems_dir):
    code, out, _err = run(
        capsys, "curve", str(problems_dir / "p2.json"),
        "--direction", "H", "--functionals", "E,Jt,Ent",
    )
    assert code == 0
    lines = out.splitlines()
    assert any(line.startswith("E ") and " 1 " in line for line in lines)
    assert any(line.startswith("Jt") for line in lines)
    assert any(line.startswith("Ent") for line in lines)


def test_curve_all_functionals_json(capsys, problems_dir):
    code, out, _err = run(
        capsys, "curve", str(problems_dir / "p2.json"),
        "--direction", "H", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["energy"] == "1"
    assert payload["omega_energy"] == "3/2"
    assert payload["jtilde"] == "1"
    assert payload["entropy"] == "1"
    assert payload["ricci_energy"] == "-3"
    assert payload["twisted_mabuchi"] == "-2"


def test_dh_json_and_plot(capsys, tmp_path, problems_dir):
    svg = tmp_path / "dh.svg"
    code, out, _err = run(
        capsys, "dh", str(problems_dir / "p2.json"),
        "--u", "1,0", "--format", "json", "--plot", str(svg),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["energy"] == "1"
    assert payload["measure"]["density"]["pieces"] == [["2/3", "-2/9"]]
    text = svg.read_text()
    assert text.startswith("<svg") and "polyline" in text


@pytest.mark.parametrize("argv", [
    ["volume", "f1.json", "--curve", "E"],
    ["dh", "f1.json", "--u", "1,0"],
])
def test_plot_to_unwritable_path_exit_2(capsys, tmp_path, problems_dir, argv):
    svg = tmp_path / "missing" / "c.svg"
    code, out, err = run(
        capsys, argv[0], str(problems_dir / argv[1]), *argv[2:], "--plot", str(svg),
    )
    assert code == 2
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "validation"
    assert "cannot write plot" in payload["message"]
    assert not svg.parent.exists()


def test_report_command(capsys, problems_dir):
    code, out, _err = run(
        capsys, "report", str(problems_dir / "f1.json"),
        "--directions", "E,EplusF", "--radius", "2",
    )
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_byte_identical_output(capsys, problems_dir):
    _code, first, _ = run(
        capsys, "report", str(problems_dir / "f1.json"),
        "--directions", "E,half_E", "--radius", "2", "--format", "json",
    )
    _code, second, _ = run(
        capsys, "report", str(problems_dir / "f1.json"),
        "--directions", "E,half_E", "--radius", "2", "--format", "json",
    )
    assert first == second


def test_computation_error_exit_3(tmp_path, capsys):
    spec = {
        "fan": {"rays": [[1, 0], [0, 1], [-1, -1]], "cones": [[0, 1], [1, 2], [2, 0]]},
        "polarization": "anticanonical",
        "divisors": {"Z": {"coeffs": [0, 0, 0]}},
    }
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(spec))
    code, _out, err = run(capsys, "curve", str(path), "--direction", "Z")
    assert code == 3
    assert json.loads(err)["error"] == "ZeroDivisor"


def test_refinements_are_applied(tmp_path, capsys):
    spec = {
        "fan": {"rays": [[1, 0], [0, 1], [-1, -1]], "cones": [[0, 1], [1, 2], [2, 0]]},
        "polarization": "anticanonical",
        "divisors": {"H": {"coeffs": [1, 0, 0]}},
        "refinements": [[1, 1]],
    }
    path = tmp_path / "refined.json"
    path.write_text(json.dumps(spec))
    problem = ProblemFile.load(str(path))
    assert len(problem.fan.rays) == 4
    assert problem.polarization.coeffs == (1, 1, 1, 2)
    assert problem.k_rel.coeffs == (0, 0, 0, 1)
    # functionals computed on the refined model agree with the base model
    code, out, _err = run(
        capsys, "curve", str(path), "--direction", "H",
        "--functionals", "E,Jt,Ent", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["energy"] == "1" and payload["jtilde"] == "1" and payload["entropy"] == "1"


P3_FAN = {
    "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]],
    "cones": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]],
}


@pytest.mark.parametrize("model, center, radius, delta", [
    ("f1", [1, 2], 2, "6/7"),
    ("p3", [-1, -1, 0], 1, "1"),
    ("f1", [-1, 0], 2, "6/7"),
])
def test_refining_leaves_delta_unchanged(tmp_path, capsys, problems_dir, model, center, radius, delta):
    # the search used to run on the refined fan with its own log discrepancies:
    # refined F1 printed delta = 4/9 and refined P3 delta = 1/2; and report
    # tested anticanonicity on the refined fan, where the pulled-back -K_X is
    # not -K_X', so it dropped its verdict row for the minimizing ray
    if model == "f1":
        spec = json.loads((problems_dir / "f1.json").read_text())
    else:
        spec = {"fan": P3_FAN, "polarization": "anticanonical"}
    base = tmp_path / "base.json"
    base.write_text(json.dumps(spec))
    refined = tmp_path / "refined.json"
    refined.write_text(json.dumps({**spec, "refinements": [center]}))
    search = ["--radius", str(radius)]

    outs = [run(capsys, "delta", str(path), *search) for path in (base, refined)]
    assert outs[0] == outs[1]
    assert outs[0][1].startswith(f"delta = {delta} (exact)")

    direction_sets = ["polarization"] + (["E,F,EplusF,half_E"] if model == "f1" else [])
    for directions in direction_sets:
        for fmt in ("json", "table"):
            reports = [
                run(capsys, "report", str(path), "--directions", directions, "--format", fmt, *search)
                for path in (base, refined)
            ]
            assert reports[0] == reports[1]
            assert reports[0][0] == 0
        lines = reports[0][1].splitlines()
        assert lines[0] == outs[0][1].splitlines()[0]
        assert lines[-1].startswith("min pp-quotient over directions + minimizing ray equals delta")
        assert lines[-1].split()[-3:] == [delta, delta, "PASS"]


def test_rational_coefficients_parse(capsys, problems_dir):
    code, out, _err = run(
        capsys, "curve", str(problems_dir / "f1.json"),
        "--direction", "half_E", "--functionals", "E", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["tau_plus"] == "4"


def test_bad_radius_exit_2(capsys, problems_dir):
    for argv in (
        ["delta", str(problems_dir / "f1.json"), "--radius", "0"],
        ["delta", str(problems_dir / "f1.json"), "--radius=-1"],
        ["report", str(problems_dir / "f1.json"), "--directions", "E", "--radius", "0"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "validation"
        assert "--radius: must be at least 1" in payload["message"]


def test_empty_name_list_exit_2(capsys, problems_dir):
    f1 = str(problems_dir / "f1.json")
    for argv, option in (
        (["report", f1, "--directions", ","], "--directions"),
        (["report", f1, "--directions", ""], "--directions"),
        (["report", f1, "--directions", " , "], "--directions"),
        (["curve", f1, "--direction", "E", "--functionals", ","], "--functionals"),
        (["curve", f1, "--direction", "E", "--functionals", ""], "--functionals"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "validation"
        assert f"{option}: expected at least one comma-separated name" in payload["message"]


def test_bad_samples_exit_2(capsys, problems_dir):
    f1 = str(problems_dir / "f1.json")
    for argv in (
        ["volume", f1, "--curve", "polarization", "--samples", "-3"],
        ["volume", f1, "--curve", "polarization", "--samples", "0"],
        ["dh", f1, "--u=1,0", "--samples", "0"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "validation"
        assert "--samples: must be at least 1" in payload["message"]


def test_samples_above_maximum_exit_2(capsys, problems_dir):
    for argv in (
        ["volume", str(problems_dir / "f1.json"), "--curve", "polarization", "--samples", "10001"],
        ["dh", str(problems_dir / "p2.json"), "--u=1,1", "--samples", "1000000000"],
    ):
        payload = assert_validation_error(*run(capsys, *argv))
        assert "--samples: must be at most 10000" in payload["message"]
    args = build_parser().parse_args(["dh", "problem.json", "--u=1,1", "--samples", "10000"])
    assert args.samples == MAX_SAMPLES == 10000


class CandidatesListed(Exception):
    """Raised by the primitive_candidates spy: the search got past the radius check."""


def test_radius_ball_above_candidate_limit_exit_2(capsys, problems_dir, monkeypatch):
    def spy(dimension, radius):
        raise CandidatesListed(dimension, radius)

    monkeypatch.setattr(thresholds, "primitive_candidates", spy)
    f1 = str(problems_dir / "f1.json")
    # (2r+1)^2 candidates on a surface: 101^2 = 10201 is above the limit
    for argv in (
        ["delta", f1, "--radius", "100000"],
        ["delta", f1, "--radius", "50"],
        ["report", f1, "--directions", "E", "--radius", "100000"],
    ):
        payload = assert_validation_error(*run(capsys, *argv))
        assert f"at most {MAX_CANDIDATES} candidates" in payload["message"]
    # 99^2 = 9801 is within it: the search starts listing candidates
    with pytest.raises(CandidatesListed):
        main(["delta", f1, "--radius", "49"])
    assert MAX_CANDIDATES == 10000


def assert_validation_error(code, out, err) -> dict:
    assert code == 2
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "validation"
    return payload


def test_dh_bad_u_exit_2(capsys, problems_dir):
    path = str(problems_dir / "f1.json")
    payload = assert_validation_error(*run(capsys, "dh", path, "--u", "a,b"))
    assert "expected comma-separated integers" in payload["message"]
    # a 3-vector on a surface
    payload = assert_validation_error(*run(capsys, "dh", path, "--u", "1,0,0"))
    assert "--u has 3 coordinates" in payload["message"]
    # the zero vector is no direction
    payload = assert_validation_error(*run(capsys, "dh", path, "--u=0,0"))
    assert "nonzero" in payload["message"]


def p2_problem(tmp_path, rays=([1, 0], [0, 1], [-1, -1]),
               cones=([0, 1], [1, 2], [2, 0]), **fields) -> str:
    """A problem file on the fan of P^2 with a divisor H, some fields replaced."""
    spec = {
        "fan": {"rays": rays, "cones": cones},
        "polarization": "anticanonical",
        "divisors": {"H": {"coeffs": [1, 0, 0]}},
        **fields,
    }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(spec))
    return str(path)


@pytest.mark.parametrize("name", sorted(PINNED_FANS))
def test_validate_pinned_fans(tmp_path, capsys, name):
    (rays, cones), flags, messages = PINNED_FANS[name]
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(
        {"fan": {"rays": rays, "cones": cones}, "polarization": "anticanonical"}
    ))
    keys = ["complete", "smooth", "simplicial", "primitive_rays", "proper_intersections"]
    expected = {**dict(zip(keys, flags)), "messages": list(messages)}
    code, out, err = run(capsys, "validate", str(path), "--format", "json")
    assert json.loads(out) == expected
    code_table, table, err_table = run(capsys, "validate", str(path))
    rows = [line.split(None, 1) for line in table.splitlines()[2:]]
    assert rows == [[k, str(v)] for k, v in zip(keys, flags)] + [["message", m] for m in messages]
    assert err_table == err
    if name == "p123":
        assert (code, code_table, err) == (0, 0, "")
    else:
        assert code == code_table == 2
        assert json.loads(err) == {"error": "validation", "message": "; ".join(messages)}


def test_report_radius_missing_a_ray_exit_2(tmp_path, capsys):
    # P(1,2,3): the ray (-2, -3) lies outside the radius-1 and radius-2 balls,
    # whose minimum of A/S, 3/4, only bounds delta = 1/2 from above
    path = p2_problem(tmp_path, rays=[[-2, -3], [1, 0], [0, 1]],
                      divisors={"D0": {"coeffs": [1, 0, 0]}, "D2": {"coeffs": [0, 0, 1]}})
    report = ["report", path, "--directions", "D0,D2", "--radius"]
    for radius in ("1", "2"):
        payload = assert_validation_error(*run(capsys, *report, radius))
        assert "report needs --radius 3" in payload["message"]
    code, out, _err = run(capsys, *report, "3")
    assert code == 0
    assert out.startswith("delta = 1/2 (exact) at u=(-2, -3)\n")
    assert "PASS" in out and "FAIL" not in out


def test_cone_index_out_of_range_exit_2(tmp_path, capsys):
    path = p2_problem(tmp_path, cones=[[0, 1], [1, 2], [0, 9]])
    for command in (["validate"], ["curve", "--direction", "H"]):
        payload = assert_validation_error(*run(capsys, command[0], path, *command[1:]))
        assert "references a missing ray" in payload["message"]


def test_zero_denominator_exit_2(tmp_path, capsys):
    path = p2_problem(tmp_path, divisors={"H": {"coeffs": ["1/0", 0, 0]}})
    for command in (["validate"], ["curve", "--direction", "H"]):
        payload = assert_validation_error(*run(capsys, command[0], path, *command[1:]))
        assert "schema" in payload["message"]


def test_mixed_dimension_rays_exit_2(tmp_path, capsys):
    path = p2_problem(tmp_path, rays=[[1, 0], [0, 1, 0], [-1, -1]])
    for command in (["validate"], ["volume"]):
        payload = assert_validation_error(*run(capsys, command[0], path, *command[1:]))
        assert "mixed dimension" in payload["message"]


def test_refinement_of_wrong_dimension_exit_2(tmp_path, capsys):
    path = p2_problem(tmp_path, refinements=[[1]])
    payload = assert_validation_error(*run(capsys, "volume", path))
    assert "has 1 coordinates" in payload["message"]


@pytest.mark.parametrize("center, reason", [
    ([1, 0], "is already a ray"),
    ([2, 2], "is not primitive"),
    ([0, 0], "zero vector"),
])
def test_bad_refinement_center_exit_2(tmp_path, capsys, center, reason):
    path = p2_problem(tmp_path, refinements=[center])
    payload = assert_validation_error(*run(capsys, "volume", path))
    assert f"refinement {center}" in payload["message"] and reason in payload["message"]


@pytest.mark.parametrize("argv", [
    ["validate"],
    ["volume", "--curve", "E"],
    ["curve", "--direction", "E"],
    ["dh", "--u=1,0"],
    ["delta", "--radius", "1"],
    ["report", "--directions", "E", "--radius", "1"],
])
def test_jobs_only_on_searches(capsys, problems_dir, argv):
    # no command has a --jobs: the searches of delta and report run serially
    payload = assert_validation_error(
        *run(capsys, argv[0], str(problems_dir / "f1.json"), *argv[1:], "--jobs=1")
    )
    assert "unrecognized arguments: --jobs=1" in payload["message"]


class PoolStarted(Exception):
    """Raised by the ProcessPoolExecutor stand-in: a command started a process pool."""


@pytest.mark.parametrize("argv", [
    ["delta", "--radius", "2"],
    ["report", "--directions", "E,EplusF", "--radius", "2"],
])
def test_searches_start_no_pool(capsys, problems_dir, monkeypatch, argv):
    # the candidates are evaluated in the command's own process, whatever the core count
    def no_pool(*args, **kwargs):
        raise PoolStarted

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    code, out, err = run(capsys, argv[0], str(problems_dir / "f1.json"), *argv[1:])
    assert (code, err) == (0, "")
    assert out.startswith("delta = 6/7 (exact) at u=(1, 1)\n")


# ---- start-up and the process boundary --------------------------------------

def run_python(src_env, script: str, *flags: str, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *flags, "-c", script], env=src_env, **kwargs)


def test_cli_import_loads_neither_jsonschema_nor_the_pool(src_env):
    # nor dataclasses, whose classes exec generated methods at import, nor logging
    # and csv, which only TORICSTAB_LOG and --format csv use, nor typing; a command
    # imports toricstab.cli and a library worker a bare toricstab.  site may load
    # any of these itself (a .pth file of an installed package), so -S leaves only
    # what the package imports
    for module in ("toricstab.cli", "toricstab"):
        script = (
            f"import sys, {module}\n"
            "print([m for m in ('jsonschema', 'concurrent.futures.process', 'dataclasses',"
            " 'logging', 'csv', 'typing') if m in sys.modules])\n"
        )
        result = run_python(src_env, script, "-S", capture_output=True, text=True, check=True)
        assert result.stdout == "[]\n", module


def test_validate_without_jsonschema(src_env, problems_dir):
    # an import of jsonschema would raise ImportError here
    script = (
        "import sys\n"
        "sys.modules['jsonschema'] = None\n"
        "from toricstab.cli import main\n"
        f"raise SystemExit(main(['validate', {str(problems_dir / 'p2.json')!r}]))\n"
    )
    result = run_python(src_env, script, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert "complete" in result.stdout


def test_broken_pipe_exits_quietly(src_env, problems_dir):
    # the read end is closed before the command starts, so its first write fails
    read, write = os.pipe()
    os.close(read)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "toricstab.cli", "delta", str(problems_dir / "f1.json"),
             "--radius", "1"],
            stdout=write, stderr=subprocess.PIPE, env=src_env,
        )
    finally:
        os.close(write)
    assert result.returncode == 141
    assert result.stderr == b""


# ---- files past the interpreter's limits, and the log level --------------------

BIG = "1" + "0" * 5000  # 5,001 digits, past the digit limit of 4,300
CONES = "[[0, 1], [1, 2], [2, 0]]"
BIG_RAY = '{"fan": {"rays": [[%s, 0], [0, 1], [-1, -1]], "cones": %s}, "polarization": "anticanonical"}' % (
    BIG, CONES)
BIG_COEFF = '{"fan": {"rays": [[1, 0], [0, 1], [-1, -1]], "cones": %s}, "polarization": {"coeffs": ["%s", 1, 1]}}' % (
    CONES, BIG)
NESTED = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("command, text", [
    pytest.param("volume", BIG_RAY, id="volume-big-ray"),
    pytest.param("validate", BIG_RAY, id="validate-big-ray"),
    pytest.param("volume", BIG_COEFF, id="volume-big-coeff"),
    pytest.param("volume", NESTED, id="volume-nested"),
    pytest.param("validate", NESTED, id="validate-nested"),
])
def test_files_past_the_interpreter_limits_exit_2(tmp_path, src_env, command, text):
    # json.load raises ValueError on the ray and RecursionError on the nesting,
    # and Fraction raises ValueError on the coefficient string, which the schema admits
    path = tmp_path / "problem.json"
    path.write_text(text)
    result = subprocess.run(
        [sys.executable, "-X", "int_max_str_digits=4300", "-m", "toricstab.cli", command, str(path)],
        capture_output=True, text=True, env=src_env,
    )
    assert result.returncode == 2, result.stderr[-300:]
    assert json.loads(result.stderr)["error"] == "validation"


def big_p2(tmp_path, digits: int):
    """P2 with polarization (1, 1, 10^digits - 1), of volume (10^digits + 1)^2, and H = D_0."""
    path = tmp_path / "big.json"
    path.write_text(json.dumps({
        "fan": {"rays": [[1, 0], [0, 1], [-1, -1]], "cones": [[0, 1], [1, 2], [2, 0]]},
        "polarization": {"coeffs": ["1", "1", "9" * digits]},
        "divisors": {"H": {"coeffs": [1, 0, 0]}},
    }))
    return path


@pytest.mark.parametrize("digits, argv", [
    (400, ["volume"]),
    (400, ["volume", "--format", "json"]),
    (400, ["volume", "--curve", "H"]),
    (400, ["curve", "--direction", "H"]),
    (400, ["volume", "--curve", "H", "--plot"]),
    (400, ["dh", "--u=1,0", "--plot"]),
    (2500, ["volume"]),
    (2500, ["volume", "--format", "json"]),
    (2500, ["dh", "--u=1,0"]),
], ids=lambda value: "_".join(value) if isinstance(value, list) else str(value))
def test_results_beyond_float_range_and_the_digit_limit(tmp_path, src_env, digits, argv):
    # exact columns print in full past the limit of 4,300 digits (the volume has
    # 2 * digits + 1), the decimal column is rounded without float, and a plot,
    # which needs floats, is refused
    plot = argv[-1] == "--plot"
    args = [*argv, str(tmp_path / "curve.svg")] if plot else argv
    result = subprocess.run(
        [sys.executable, "-X", "int_max_str_digits=4300", "-m", "toricstab.cli",
         args[0], str(big_p2(tmp_path, digits)), *args[1:]],
        capture_output=True, text=True, env=src_env,
    )
    if plot:
        assert result.returncode == 2, result.stderr[-300:]
        error = json.loads(result.stderr)
        assert error["error"] == "validation" and "beyond float range" in error["message"]
        assert not (tmp_path / "curve.svg").exists()
        return
    assert (result.returncode, result.stderr) == (0, "")
    if argv[0] == "volume":
        zeros = "0" * (digits - 1)
        assert f"1{zeros}2{zeros}1" in result.stdout
        assert f"1e+{2 * digits}" in result.stdout


@pytest.mark.parametrize("level, logged", [
    ("basic_format", False), ("debug", True), ("nonsense", False), ("warning", False), ("", False),
])
def test_log_level_takes_level_names_only(src_env, problems_dir, level, logged):
    # logging.BASIC_FORMAT is a format string, not a level: it falls back to WARNING,
    # as does a set but empty TORICSTAB_LOG
    result = subprocess.run(
        [sys.executable, "-m", "toricstab.cli", "delta", str(problems_dir / "f1.json"), "--radius", "1"],
        capture_output=True, text=True, env=dict(src_env, TORICSTAB_LOG=level),
    )
    assert result.returncode == 0, result.stderr[-300:]
    assert ("candidate search: radius 1" in result.stderr) == logged
    assert logged or result.stderr == ""


def test_library_caller_that_configures_logging_gets_the_records(src_env, problems_dir):
    # the CLI loads logging only under TORICSTAB_LOG; a caller that loaded and
    # configured it itself still gets ProblemFile.load's records
    path = str(problems_dir / "f1.json")
    script = (
        "import logging\n"
        "logging.basicConfig(level=logging.DEBUG)\n"
        "from toricstab.cli import ProblemFile\n"
        f"ProblemFile.load({path!r})\n"
    )
    result = run_python(src_env, script, capture_output=True, text=True, check=True)
    assert f"INFO:toricstab:loaded {path}: " in result.stderr
