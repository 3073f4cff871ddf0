"""Fuzzing the command line: malformed problem files and bad arguments.

Every run must end in exit 0, 2 (validation error) or 3 (computation error),
with exactly one JSON object on stderr for 2 and 3, and never a traceback.
The problem files are mutations of the repository's examples; commands run
in-process, searches with radius at most 1, so each example is cheap.
Examples are drawn deterministically, so the suite is reproducible.
The same files check the CLI's schema validator against `jsonschema`.
"""

from __future__ import annotations

import copy
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from toricstab import cli
from toricstab.cli import PROBLEM_SCHEMA, main, schema_violations

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
MISSING_DIR = PROBLEMS / "no-such-directory"
BASES = [json.loads((PROBLEMS / f"{name}.json").read_text()) for name in ("p2", "f1", "p1xp1")]

FUZZ = settings(
    max_examples=150,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)

small = st.integers(-3, 3)
junk = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(-3, 3, allow_nan=False, width=16),
    st.text(max_size=3),
    st.just([]),
    st.just({}),
    small,
)
well_formed = st.one_of(small, st.builds("{}/{}".format, small, st.integers(1, 3)))
# zero and negative denominators and values of the wrong type among them
coefficient = st.one_of(well_formed, st.builds("{}/{}".format, small, st.integers(-2, 0)), junk)
lattice_point = st.lists(small, min_size=1, max_size=3)


def drop_key(draw, spec) -> None:
    path = draw(st.sampled_from([
        (), ("fan",), ("fan", "rays"), ("fan", "cones"), ("divisors",), ("refinements",),
    ]))
    key = draw(st.sampled_from(["fan", "polarization", "divisors", "refinements", "rays",
                                "cones", "coeffs"]))
    target = spec
    for part in path:
        target = target[part]
    if isinstance(target, dict):
        target.pop(key, None)


def wrong_type(draw, spec) -> None:
    value = draw(junk)
    where = draw(st.sampled_from(["fan", "polarization", "rays", "cones", "ray", "cone",
                                  "divisors", "coeffs", "refinements"]))
    if where in ("fan", "polarization", "divisors", "refinements"):
        spec[where] = value
    elif where in ("rays", "cones"):
        spec["fan"][where] = value
    elif where in ("ray", "cone"):
        items = spec["fan"][where + "s"]
        items[draw(st.integers(0, len(items) - 1))] = value
    else:
        spec.setdefault("divisors", {})["X"] = {"coeffs": value}


def cone_index(draw, spec) -> None:
    cones = spec["fan"]["cones"]
    cone = cones[draw(st.integers(0, len(cones) - 1))]
    cone[draw(st.integers(0, len(cone) - 1))] = draw(st.integers(-2, len(spec["fan"]["rays"]) + 2))


def coefficients(draw, spec) -> None:
    count = len(spec["fan"]["rays"]) + draw(st.sampled_from([0, 0, 0, -1, 1]))
    # half the lists keep the schema, so that many files reach the computation
    entries = draw(st.sampled_from([well_formed, coefficient]))
    coeffs = draw(st.lists(entries, min_size=max(count, 0), max_size=max(count, 0)))
    name = draw(st.sampled_from(["polarization", "E", "H", "X"]))
    if name == "polarization":
        spec["polarization"] = {"coeffs": coeffs}
    else:
        spec.setdefault("divisors", {})[name] = {"coeffs": coeffs}


def ray_dimension(draw, spec) -> None:
    rays = spec["fan"]["rays"]
    i = draw(st.integers(0, len(rays) - 1))
    rays[i] = draw(st.one_of(lattice_point, st.just(rays[i] + [1]), st.just(rays[i][:1])))


def refinements(draw, spec) -> None:
    spec["refinements"] = draw(st.lists(
        st.one_of(st.lists(small, min_size=2, max_size=2), lattice_point), max_size=2
    ))


# the mutations that keep the schema are listed twice, so files reach the computation
MUTATIONS = [drop_key, wrong_type, cone_index, ray_dimension] + 2 * [coefficients, refinements]


@st.composite
def problem_files(draw) -> dict:
    spec = copy.deepcopy(draw(st.sampled_from(BASES)))
    for mutation in draw(st.lists(st.sampled_from(MUTATIONS), max_size=3)):
        try:
            mutation(draw, spec)
        except (KeyError, IndexError, TypeError, AttributeError):
            pass  # an earlier mutation removed what this one edits
    return spec


def fan_dimension(spec) -> int | None:
    """Length of the first ray, when the (possibly mutated) file still has one."""
    try:
        return len(spec["fan"]["rays"][0]) or None
    except (KeyError, IndexError, TypeError):
        return None


@st.composite
def arguments(draw, spec, bad: bool) -> list[str]:
    """A command line for a problem file; out-of-range option values only when `bad`.

    A --plot, when drawn, points into a missing directory: the SVG cannot be written.
    With a --plot, a dh --u is well formed and drawn with the fan's dimension,
    so that the command can get as far as writing the plot.
    """

    def pick(good: list[str], wrong: list[str]) -> str:
        return draw(st.sampled_from(good + wrong if bad else good))

    divisors = spec.get("divisors") if isinstance(spec, dict) else None
    names = sorted(divisors) if isinstance(divisors, dict) else []
    name = st.sampled_from(names + ["polarization"] + (["nope"] if bad else []))
    maybe = st.booleans()
    # the commands with a --plot are listed twice, so that many runs reach the writer
    command = draw(st.sampled_from(
        ["validate", "volume", "delta", "curve", "dh", "report"] + 2 * ["volume", "dh"]
    ))
    args = [command]
    if command == "volume":
        if draw(maybe):
            args += ["--divisor", draw(name)]
        if draw(maybe):
            args += ["--curve", draw(name)]
    if command in ("volume", "dh") and draw(maybe):
        args.append("--samples=" + pick(["1", "3"], ["0", "-1", "x", "10001"]))
    plot = command in ("volume", "dh") and draw(maybe)
    if plot:
        args.append("--plot=" + str(MISSING_DIR / "plot.svg"))
    if command in ("delta", "report"):
        args.append("--radius=" + pick(["1"], ["0", "-1", "x"]))
    if command == "curve" and (not bad or draw(st.integers(0, 5))):
        args += ["--direction", draw(name)]
    if command == "curve" and draw(maybe):
        functionals = ["E", "Ealpha", "Jt", "Ent", "ER", "Mt"] + (["Q"] if bad else [])
        args.append("--functionals=" + ",".join(
            draw(st.lists(st.sampled_from(functionals), min_size=1, max_size=3))
        ))
    if command == "dh" and (not bad or draw(st.integers(0, 5))):
        dim = fan_dimension(spec) if plot else None
        point = st.lists(small, min_size=dim, max_size=dim).filter(any) if dim else lattice_point
        u = draw(point.map(lambda p: ",".join(map(str, p))))
        wrong = bad and not plot
        args.append("--u=" + (draw(st.sampled_from([u, "a,b", "", "1,,0"])) if wrong else u))
    if command == "report":
        args.append("--directions=" + ",".join(draw(st.lists(name, min_size=1, max_size=2))))
    if bad and draw(maybe):
        # no command takes a --jobs: the searches run serially
        args.append("--jobs=" + draw(st.sampled_from(["1", "0", "x"])))
    args.append("--format=" + pick(["table", "json", "csv"], ["xml"]))
    return args


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_contract(code: int, err: str) -> None:
    assert code in (0, 2, 3)
    assert "Traceback" not in err
    if code:
        payload = json.loads(err)  # exactly one JSON document
        assert isinstance(payload, dict) and set(payload) == {"error", "message"}


@FUZZ
@given(data=st.data())
def test_malformed_problem_files(tmp_path, data):
    spec = data.draw(problem_files())
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(spec))
    argv = data.draw(arguments(spec, bad=False))
    code, _out, err = run_cli([argv[0], str(path), *argv[1:]])
    assert_contract(code, err)


@FUZZ
@given(data=st.data())
def test_bad_arguments_on_valid_files(data):
    spec = data.draw(st.sampled_from(BASES))
    name = ["p2", "f1", "p1xp1"][BASES.index(spec)]
    argv = data.draw(arguments(spec, bad=True))
    code, _out, err = run_cli([argv[0], str(PROBLEMS / f"{name}.json"), *argv[1:]])
    assert_contract(code, err)


def test_malformed_problem_files_reach_the_dh_plot_writer(tmp_path, monkeypatch):
    titles = []
    real = cli.write_plot

    def spy(path, curve, title):
        titles.append(title)
        return real(path, curve, title)

    monkeypatch.setattr(cli, "write_plot", spy)
    test_malformed_problem_files(tmp_path)
    assert any(title.startswith("DH density") for title in titles)


# ---- the schema validator against jsonschema -------------------------------

def oracle(schema: dict):
    """jsonschema's validator for a schema, as jsonschema.validate picks and checks it."""
    validator = jsonschema.validators.validator_for(schema)
    validator.check_schema(schema)
    return validator(schema)


PROBLEM_ORACLE = oracle(PROBLEM_SCHEMA)


def oracle_accepts(spec) -> bool:
    return PROBLEM_ORACLE.is_valid(spec)


def accepts(spec, schema=PROBLEM_SCHEMA) -> bool:
    return next(schema_violations(spec, schema, schema), None) is None


@settings(FUZZ, max_examples=600)
@given(spec=problem_files())
def test_schema_validator_agrees_with_jsonschema_on_fuzzed_files(spec):
    assert accepts(spec) == oracle_accepts(spec)


def test_schema_validator_agrees_with_jsonschema_on_problems():
    # bad_fan.json among them: its fan is invalid, but it matches the schema
    paths = sorted(PROBLEMS.glob("*.json"))
    assert len(paths) == 4
    for path in paths:
        spec = json.loads(path.read_text())
        assert accepts(spec) and oracle_accepts(spec), path.name


def p2_with(edit):
    spec = copy.deepcopy(BASES[0])
    edit(spec)
    return spec


def set_ray(value):
    return lambda spec: spec["fan"]["rays"][0].__setitem__(0, value)


def set_polarization(value):
    return lambda spec: spec.__setitem__("polarization", value)


@pytest.mark.parametrize("spec, valid", [
    (p2_with(set_ray(True)), False),  # a boolean is not an integer
    (p2_with(set_ray(1.0)), True),  # an integral float is one
    (p2_with(set_ray(1.5)), False),
    (p2_with(set_polarization({"coeffs": ["1\n", 0, 0]})), True),  # pattern uses re.search
    (p2_with(set_polarization({"coeffs": ["1/0", 0, 0]})), False),
    (p2_with(lambda spec: spec["fan"]["cones"][0].__setitem__(0, -1)), False),
    (p2_with(set_polarization("Anticanonical")), False),
    (p2_with(set_polarization({"coeffs": [1, 0, 0], "const": "anticanonical"})), False),
    (p2_with(set_polarization({"const": "anticanonical"})), False),
    (p2_with(set_polarization(["anticanonical"])), False),
])
def test_schema_validator_edge_cases(tmp_path, spec, valid):
    assert accepts(spec) == oracle_accepts(spec) == valid
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(spec))
    code, _out, err = run_cli(["validate", str(path)])
    assert code == (0 if valid else 2)
    if not valid:
        assert json.loads(err)["message"].startswith("problem file does not match schema:")


@pytest.mark.parametrize("value, valid", [(1, False), (-1, True), ("x", True), (True, True)])
def test_one_of_takes_exactly_one_branch(value, valid):
    # 1 matches both branches, so it is rejected
    schema = {"oneOf": [{"type": "integer"}, {"minimum": 0}]}
    assert accepts(value, schema) == oracle(schema).is_valid(value) == valid


def test_schema_validator_refuses_other_keywords():
    with pytest.raises(ValueError, match="maximum"):
        accepts(1, {"type": "integer", "maximum": 3})
