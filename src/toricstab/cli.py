"""Command-line front end: problem files in, tables / JSON / CSV / SVG out.

Problem files are JSON documents describing a fan, a polarization, named
divisors and an optional list of star-subdivision centers.  All numeric
output is exact ("p/q" strings); decimal columns are cosmetic.  Exit codes:
0 success, 2 validation error, 3 computation error.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import sys
from collections.abc import Iterator, Sequence
from decimal import Decimal
from fractions import Fraction

from . import __version__
from .errors import AlreadyARay, DimensionMismatch, NonPrimitive, ToricStabError, ZeroVector
from .filtrations import DHMeasure, dh_measure, energy_from_dh, filtration_curve
from .test_curves import curve_summary, extended_curve
from .thresholds import ThresholdReport, delta_search, inequality_report
from .toric import (
    Fan,
    FanDiagnostics,
    ToricDivisor,
    anticanonical,
    divisor,
    star_subdivision,
    validate_fan,
    zero_divisor,
)
from .volume_fn import PiecewisePolynomial, big_volume, volume_curve


def _log(level: str, msg: str, *args) -> None:
    """Send a debug or info record to the `toricstab` logger, if `logging` is loaded.

    main imports logging only under TORICSTAB_LOG.  While logging is not
    loaded, no caller can have given the logger a handler or a level below
    WARNING, so the record is dropped, as the logger would drop it.
    """
    logging = sys.modules.get("logging")
    if logging is not None:
        getattr(logging.getLogger("toricstab"), level)(msg, *args, stacklevel=2)

PROBLEM_SCHEMA = {
    "type": "object",
    "required": ["fan", "polarization"],
    "additionalProperties": False,
    "properties": {
        "fan": {
            "type": "object",
            "required": ["rays", "cones"],
            "additionalProperties": False,
            "properties": {
                "rays": {
                    "type": "array",
                    "minItems": 1,
                    "items": {"type": "array", "items": {"type": "integer"}, "minItems": 1},
                },
                "cones": {
                    "type": "array",
                    "minItems": 1,
                    "items": {"type": "array", "items": {"type": "integer", "minimum": 0}},
                },
            },
        },
        "polarization": {
            "oneOf": [
                {"const": "anticanonical"},
                {
                    "type": "object",
                    "required": ["coeffs"],
                    "additionalProperties": False,
                    "properties": {"coeffs": {"$ref": "#/$defs/coeffs"}},
                },
            ]
        },
        "divisors": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "required": ["coeffs"],
                "additionalProperties": False,
                "properties": {"coeffs": {"$ref": "#/$defs/coeffs"}},
            },
        },
        "refinements": {
            "type": "array",
            "items": {"type": "array", "items": {"type": "integer"}},
        },
    },
    "$defs": {
        "coeffs": {
            "type": "array",
            "items": {
                "oneOf": [
                    {"type": "integer"},
                    {"type": "string", "pattern": "^-?[0-9]+(/0*[1-9][0-9]*)?$"},
                ]
            },
        }
    },
}


# The keywords PROBLEM_SCHEMA uses, with JSON Schema's meaning; `$defs` only
# holds the target of the one local `$ref`.  Any other keyword is refused.
SCHEMA_KEYWORDS = frozenset({
    "type", "required", "additionalProperties", "properties", "items", "minItems",
    "minimum", "oneOf", "const", "pattern", "$ref", "$defs",
})


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


SCHEMA_TYPES = {
    "object": lambda value: isinstance(value, dict),
    "array": lambda value: isinstance(value, list),
    "string": lambda value: isinstance(value, str),
    # JSON Schema's integers: 1.0 is one, true is not
    "integer": lambda value: _is_number(value) and (isinstance(value, int) or value.is_integer()),
}


def schema_violations(instance, schema: dict, root: dict, where: str = "") -> Iterator[str]:
    """The ways a JSON value breaks a subschema of root, lazily, as messages.

    Each keyword applies only to the values of its JSON type, as in JSON
    Schema; a keyword outside SCHEMA_KEYWORDS raises ValueError.
    """
    unknown = set(schema) - SCHEMA_KEYWORDS
    if unknown:
        raise ValueError(f"unsupported schema keywords {sorted(unknown)}")
    at = f" at {where}" if where else ""
    if "$ref" in schema:
        target = root
        for part in schema["$ref"].removeprefix("#/").split("/"):
            target = target[part]
        yield from schema_violations(instance, target, root, where)
    if "type" in schema and not SCHEMA_TYPES[schema["type"]](instance):
        yield f"{instance!r} is not of type {schema['type']!r}{at}"
    if "const" in schema and not (
        instance == schema["const"]
        and isinstance(instance, bool) == isinstance(schema["const"], bool)
    ):
        yield f"{schema['const']!r} was expected{at}"
    if "oneOf" in schema:
        matches = sum(
            next(schema_violations(instance, branch, root, where), None) is None
            for branch in schema["oneOf"]
        )
        if matches != 1:
            yield f"{instance!r} matches {matches} of {len(schema['oneOf'])} alternatives, not one{at}"
    if _is_number(instance) and "minimum" in schema and instance < schema["minimum"]:
        yield f"{instance!r} is less than the minimum of {schema['minimum']!r}{at}"
    if isinstance(instance, str) and "pattern" in schema and not re.search(schema["pattern"], instance):
        yield f"{instance!r} does not match {schema['pattern']!r}{at}"
    if isinstance(instance, list):
        if len(instance) < schema.get("minItems", 0):
            yield f"{instance!r} has fewer than {schema['minItems']} items{at}"
        if "items" in schema:
            for i, item in enumerate(instance):
                yield from schema_violations(item, schema["items"], root, f"{where}[{i}]")
    if isinstance(instance, dict):
        for key in schema.get("required", ()):
            if key not in instance:
                yield f"{key!r} is a required property{at}"
        properties = schema.get("properties", {})
        extra = schema.get("additionalProperties", {})
        for key, value in instance.items():
            inner = f"{where}.{key}" if where else key
            if key in properties:
                yield from schema_violations(value, properties[key], root, inner)
            elif extra is False:
                yield f"additional property {key!r} is not allowed{at}"
            else:
                yield from schema_violations(value, extra, root, inner)


class ValidationProblem(Exception):
    """Problem-file or fan validation failure; maps to exit code 2."""


class _Parser(argparse.ArgumentParser):
    """Bad command-line arguments are validation problems, not usage exits."""

    def error(self, message: str):
        raise ValidationProblem(f"{self.prog}: {message}")


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


MAX_SAMPLES = 10_000


def sample_count(text: str) -> int:
    """--samples: table rows per chamber, at least 1 and at most MAX_SAMPLES."""
    value = positive_int(text)
    if value > MAX_SAMPLES:
        raise argparse.ArgumentTypeError(f"must be at most {MAX_SAMPLES}, got {value}")
    return value


MAX_CANDIDATES = 10_000


def check_radius(radius: int, dimension: int) -> None:
    """A search lists all (2r+1)^n lattice vectors of the --radius ball: at most MAX_CANDIDATES."""
    if (2 * radius + 1) ** dimension > MAX_CANDIDATES:
        raise ValidationProblem(
            f"--radius {radius} in dimension {dimension} gives (2r+1)^{dimension} lattice "
            f"vectors to search; a search takes at most {MAX_CANDIDATES} candidates"
        )


def lattice_vector(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def name_list(text: str) -> list[str]:
    """A comma-separated list of at least one name, blanks around each name dropped."""
    names = [name.strip() for name in text.split(",") if name.strip()]
    if not names:
        raise argparse.ArgumentTypeError(
            f"expected at least one comma-separated name, got {text!r}"
        )
    return names


def parse_rational(text) -> Fraction:
    return Fraction(text)


def format_rational(x: Fraction) -> str:
    """x as "p" or "p/q" in full, also past the interpreter's limit on int-to-str digits."""
    x = Fraction(x)
    # the limit binds str(int), not str(Decimal(int)), which gives the same digits
    p, q = str(Decimal(x.numerator)), str(Decimal(x.denominator))
    return p if q == "1" else f"{p}/{q}"


DECIMAL_FORMAT = ".12g"  # the decimal column's significant digits


def decimal_approx(x: Fraction) -> str:
    """A cosmetic rounding of x; beyond float range, a decimal one."""
    try:
        return format(float(x), DECIMAL_FORMAT)
    except OverflowError:
        x = Fraction(x)
        return format((Decimal(x.numerator) / Decimal(x.denominator)).normalize(), DECIMAL_FORMAT)


class ProblemFile:
    """A validated problem description: fan, polarization, named divisors.

    `fan` and `polarization` are those of the refined model; `base_fan` and
    `base_polarization` are the file's own, before any refinement.  A star
    subdivision changes no toric valuation, so the candidate search for
    delta runs on the base model, with the base variety's log discrepancies.
    """

    def __init__(self, fan: Fan, polarization: ToricDivisor,
                 divisors: dict[str, ToricDivisor], k_rel: ToricDivisor,
                 base_fan: Fan, base_polarization: ToricDivisor):
        self.fan = fan
        self.polarization = polarization
        self.divisors = divisors
        self.k_rel = k_rel
        self.base_fan = base_fan
        self.base_polarization = base_polarization

    @classmethod
    def load(cls, path: str) -> "ProblemFile":
        raw, fan, diagnostics = read_problem(path)
        if not diagnostics.ok:
            raise ValidationProblem(
                "fan is invalid: " + "; ".join(diagnostics.messages)
            )
        if raw["polarization"] == "anticanonical":
            polarization = anticanonical(fan)
        else:
            polarization = _coeff_divisor(fan, raw["polarization"]["coeffs"])
        named = {
            name: _coeff_divisor(fan, spec["coeffs"])
            for name, spec in sorted(raw.get("divisors", {}).items())
        }
        base_fan, base_polarization = fan, polarization
        k_rel = zero_divisor(fan)
        for center in raw.get("refinements", []):
            if len(center) != fan.dimension:
                raise ValidationProblem(
                    f"refinement {center} has {len(center)} coordinates; "
                    f"the fan has dimension {fan.dimension}"
                )
            try:
                fan2, pull, new_k = star_subdivision(fan, tuple(center))
            except (AlreadyARay, NonPrimitive, ZeroVector) as exc:
                raise ValidationProblem(f"refinement {center}: {exc}") from None
            polarization = pull(polarization)
            named = {name: pull(d) for name, d in named.items()}
            k_rel = pull(k_rel) + new_k
            fan = fan2
            _log("debug", "refined at %s; fan now has %d rays", center, len(fan.rays))
        _log(
            "info",
            "loaded %s: %d rays, %d cones, %d named divisors",
            path, len(fan.rays), len(fan.max_cones), len(named),
        )
        return cls(fan, polarization, named, k_rel, base_fan, base_polarization)

    def divisor_named(self, name: str) -> ToricDivisor:
        if name == "polarization":
            return self.polarization
        if name not in self.divisors:
            raise ValidationProblem(
                f"unknown divisor {name!r}; available: {sorted(self.divisors)}"
            )
        return self.divisors[name]


def read_problem(path: str) -> tuple[dict, Fan, FanDiagnostics]:
    """The JSON of a problem file, its unrefined fan and the fan's diagnostics.

    An unreadable file (bad JSON, an integer past the interpreter's digit
    limit, nesting past its recursion limit), a schema violation and rays or
    cones that make no fan raise ValidationProblem; a fan that is built but
    invalid is reported only by its diagnostics.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise ValidationProblem(f"cannot read problem file: {exc}") from exc
    violation = next(schema_violations(raw, PROBLEM_SCHEMA, PROBLEM_SCHEMA), None)
    if violation is not None:
        raise ValidationProblem(f"problem file does not match schema: {violation}")
    try:
        fan = Fan.make(raw["fan"]["rays"], raw["fan"]["cones"])
    except (ValueError, DimensionMismatch) as exc:
        raise ValidationProblem(f"fan is malformed: {exc}") from exc
    return raw, fan, validate_fan(fan)


def _coeff_divisor(fan: Fan, coeffs: Sequence) -> ToricDivisor:
    if len(coeffs) != len(fan.rays):
        raise ValidationProblem(
            f"expected {len(fan.rays)} coefficients, got {len(coeffs)}"
        )
    try:
        values = [parse_rational(c) for c in coeffs]
    except ValueError as exc:  # a numerator or denominator past the interpreter's digit limit
        raise ValidationProblem(f"coefficient is not readable: {exc}") from exc
    return divisor(fan, values)


# --------------------------------------------------------------------------
# serialization helpers
# --------------------------------------------------------------------------

def piecewise_to_dict(curve: PiecewisePolynomial) -> dict:
    return {
        "breakpoints": [format_rational(b) for b in curve.breakpoints],
        "pieces": [[format_rational(c) for c in p.coeffs] for p in curve.pieces],
    }


def dh_to_dict(measure: DHMeasure) -> dict:
    return {
        "density": None if measure.density is None else piecewise_to_dict(measure.density),
        "atoms": [
            {"location": format_rational(x), "mass": format_rational(m)}
            for x, m in measure.atoms
        ],
        "first_moment": format_rational(measure.first_moment()),
    }


def report_to_dict(report: ThresholdReport) -> dict:
    return {
        "delta": format_rational(report.delta_estimate),
        "delta_decimal": decimal_approx(report.delta_estimate),
        "minimizer": list(report.minimizer),
        "candidates": [
            {
                "u": list(row.u),
                "log_discrepancy": format_rational(row.log_discrepancy),
                "s": format_rational(row.s_value),
                "quotient": format_rational(row.quotient),
            }
            for row in report.candidates
        ],
        "directions": [
            {
                "name": row.name,
                "pp_quotient": None if row.pp_quotient is None else format_rational(row.pp_quotient),
                "prime_quotient": None
                if row.prime_quotient is None
                else format_rational(row.prime_quotient),
            }
            for row in report.directions
        ],
        "verdicts": [
            {
                "check": v.description,
                "left": format_rational(v.left),
                "right": format_rational(v.right),
                "holds": v.holds,
            }
            for v in report.verdicts
        ],
        "assumptions": list(report.assumptions),
    }


def render_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def render_csv(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    import csv  # --format csv alone needs it

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(headers)
    writer.writerows(rows)
    return buf.getvalue()


def emit(args, headers, rows, payload) -> None:
    if args.format == "json":
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    elif args.format == "csv":
        sys.stdout.write(render_csv(headers, rows))
    else:
        sys.stdout.write(render_table(headers, rows))


# --------------------------------------------------------------------------
# SVG plotting (no plotting dependency: polyline sampling per chamber)
# --------------------------------------------------------------------------

SAMPLES_PER_PIECE = 256  # polyline points per chamber of a plotted curve


def curve_svg(curve: PiecewisePolynomial, title: str) -> str:
    pts = curve.samples(SAMPLES_PER_PIECE)
    xs = [float(x) for x, _y in pts]
    ys = [float(y) for _x, y in pts]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys + [0.0]), max(ys + [0.0])
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    width, height, margin = 640.0, 400.0, 48.0

    def sx(x: float) -> float:
        return margin + (x - x0) / (x1 - x0) * (width - 2 * margin)

    def sy(y: float) -> float:
        return height - margin - (y - y0) / (y1 - y0) * (height - 2 * margin)

    polyline = " ".join(f"{sx(x):.3f},{sy(y):.3f}" for x, y in zip(xs, ys))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<text x="{width / 2:.0f}" y="24" text-anchor="middle" '
        f'font-family="monospace" font-size="14">{title}</text>',
        f'<line x1="{margin}" y1="{sy(0.0):.3f}" x2="{width - margin}" y2="{sy(0.0):.3f}" '
        'stroke="black" stroke-width="1"/>',
        f'<line x1="{sx(x0):.3f}" y1="{margin}" x2="{sx(x0):.3f}" y2="{height - margin}" '
        'stroke="black" stroke-width="1"/>',
        f'<polyline points="{polyline}" fill="none" stroke="crimson" stroke-width="2"/>',
        f'<text x="{margin}" y="{height - 16:.0f}" font-family="monospace" font-size="12">'
        f"x: [{x0:.6g}, {x1:.6g}]  y: [{y0:.6g}, {y1:.6g}]</text>",
        "</svg>",
    ]
    return "\n".join(parts) + "\n"


def write_plot(path: str, curve: PiecewisePolynomial, title: str) -> None:
    """Write curve_svg(curve, title) to path.

    A curve beyond float range and an unwritable path are validation errors.
    """
    try:
        svg = curve_svg(curve, title)
    except OverflowError:
        raise ValidationProblem(f"cannot plot {title}: its values lie beyond float range") from None
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(svg)
    except OSError as exc:
        raise ValidationProblem(f"cannot write plot: {exc}") from None


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------

def cmd_validate(args) -> int:
    _raw, _fan, diagnostics = read_problem(args.problem)
    payload = {
        "complete": diagnostics.is_complete,
        "smooth": diagnostics.is_smooth,
        "simplicial": diagnostics.is_simplicial,
        "primitive_rays": diagnostics.all_primitive,
        "proper_intersections": diagnostics.proper_intersections,
        "messages": list(diagnostics.messages),
    }
    rows = [[key, str(value)] for key, value in payload.items() if key != "messages"]
    rows += [["message", m] for m in diagnostics.messages]
    emit(args, ["check", "result"], rows, payload)
    if not diagnostics.ok:
        raise ValidationProblem("; ".join(diagnostics.messages) or "fan is invalid")
    return 0


def cmd_volume(args) -> int:
    problem = ProblemFile.load(args.problem)
    d = problem.divisor_named(args.divisor)
    if args.curve is None:
        value = big_volume(problem.fan, d)
        payload = {
            "divisor": args.divisor,
            "volume": format_rational(value),
            "volume_decimal": decimal_approx(value),
        }
        emit(args, ["divisor", "volume", "decimal"],
             [[args.divisor, format_rational(value), decimal_approx(value)]], payload)
        return 0
    direction = problem.divisor_named(args.curve)
    curve, tau_plus = volume_curve(problem.fan, d, direction)
    payload = {
        "divisor": args.divisor,
        "direction": args.curve,
        "tau_plus": format_rational(tau_plus),
        "curve": piecewise_to_dict(curve),
    }
    rows = [
        [format_rational(x), format_rational(y), decimal_approx(y)]
        for x, y in curve.samples(args.samples)
    ]
    if args.plot:
        write_plot(args.plot, curve, f"vol({args.divisor} - t*{args.curve})")
    emit(args, ["t", "volume", "decimal"], rows, payload)
    return 0


def cmd_delta(args) -> int:
    problem = ProblemFile.load(args.problem)
    check_radius(args.radius, problem.fan.dimension)
    _log("debug", "candidate search: radius %d", args.radius)
    report = delta_search(problem.base_fan, problem.base_polarization, args.radius)
    payload = report_to_dict(report)
    rows = [
        [
            str(list(row.u)),
            format_rational(row.log_discrepancy),
            format_rational(row.s_value),
            format_rational(row.quotient),
            decimal_approx(row.quotient),
        ]
        for row in report.candidates
    ]
    if args.format == "table":
        sys.stdout.write(
            f"delta = {format_rational(report.delta_estimate)} (exact) "
            f"at u={tuple(report.minimizer)}\n"
        )
    emit(args, ["u", "log_discrepancy", "s", "quotient", "decimal"], rows, payload)
    return 0


def cmd_curve(args) -> int:
    problem = ProblemFile.load(args.problem)
    direction = problem.divisor_named(args.direction)
    curve = extended_curve(
        problem.fan, problem.polarization, direction, k_rel=problem.k_rel
    )
    summary = curve_summary(curve)
    wanted = args.functionals
    available = {
        "E": ("energy", summary.energy),
        "Ealpha": ("omega_energy", summary.omega_energy),
        "Jt": ("jtilde", summary.jtilde),
        "Ent": ("entropy", summary.entropy),
        "ER": ("ricci_energy", summary.ricci_energy),
        "Mt": ("twisted_mabuchi", summary.twisted_mabuchi),
    }
    unknown = [w for w in wanted if w not in available]
    if unknown:
        raise ValidationProblem(
            f"unknown functionals {unknown}; available: {sorted(available)}"
        )
    rows = []
    payload = {"direction": args.direction, "tau_plus": format_rational(curve.tau_plus)}
    for key in wanted:
        name, value = available[key]
        payload[name] = format_rational(value)
        rows.append([key, format_rational(value), decimal_approx(value)])
    emit(args, ["functional", "value", "decimal"], rows, payload)
    return 0


def cmd_dh(args) -> int:
    problem = ProblemFile.load(args.problem)
    u = args.u
    if len(u) != problem.fan.dimension:
        raise ValidationProblem(
            f"--u has {len(u)} coordinates; the fan has dimension {problem.fan.dimension}"
        )
    if not any(u):
        raise ValidationProblem("--u must be a nonzero lattice vector")
    curve = filtration_curve(problem.fan, problem.polarization, u)
    v = big_volume(problem.fan, problem.polarization)
    measure = dh_measure(curve, v)
    payload = {
        "u": list(u),
        "volume": format_rational(v),
        "measure": dh_to_dict(measure),
        "energy": format_rational(energy_from_dh(measure)),
    }
    rows = []
    if measure.density is not None:
        rows = [
            [format_rational(x), format_rational(y), decimal_approx(y)]
            for x, y in measure.density.samples(args.samples)
        ]
    for x, m in measure.atoms:
        rows.append([format_rational(x), f"atom {format_rational(m)}", decimal_approx(m)])
    if args.plot:
        if measure.density is None:
            raise ValidationProblem("measure has no density to plot")
        write_plot(args.plot, measure.density, f"DH density along u={u}")
    emit(args, ["tau", "density", "decimal"], rows, payload)
    return 0


def cmd_report(args) -> int:
    problem = ProblemFile.load(args.problem)
    check_radius(args.radius, problem.fan.dimension)
    # for nef L, A/S is least at a ray: the verdicts compare against delta, so
    # the search ball must hold every ray, or its minimum is an upper bound
    need = max(max(map(abs, ray)) for ray in problem.base_fan.rays)
    if need > args.radius:
        raise ValidationProblem(
            f"--radius {args.radius} misses a ray of the search model; report needs --radius {need}"
        )
    directions = [(name, problem.divisor_named(name)) for name in args.directions]
    report = inequality_report(
        problem.fan, problem.polarization, directions, args.radius,
        search_model=(problem.base_fan, problem.base_polarization),
    )
    payload = report_to_dict(report)
    rows = [
        [
            v.description,
            format_rational(v.left),
            format_rational(v.right),
            "PASS" if v.holds else "FAIL",
        ]
        for v in report.verdicts
    ]
    if args.format == "table":
        sys.stdout.write(
            f"delta = {format_rational(report.delta_estimate)} (exact) "
            f"at u={tuple(report.minimizer)}\n"
        )
    emit(args, ["check", "left", "right", "verdict"], rows, payload)
    if any(not v.holds for v in report.verdicts):
        raise ToricStabError("inequality verdicts failed; see report")
    return 0


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="toricstab",
        description="Exact stability thresholds and test-curve functionals "
        "of polarized toric surfaces and threefolds.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("problem", help="path to a problem JSON file")
        p.add_argument("--format", choices=("table", "json", "csv"), default="table")

    def search(p: argparse.ArgumentParser) -> None:
        p.add_argument("--radius", type=positive_int, default=2,
                       help=f"sup-norm ball of candidates, at most {MAX_CANDIDATES} of them")

    p = sub.add_parser("validate", help="validate a problem file and its fan")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("volume", help="volume of a divisor, or a volume curve")
    common(p)
    p.add_argument("--divisor", default="polarization")
    p.add_argument("--curve", metavar="DIRECTION", default=None,
                   help="direction divisor name for the curve t -> vol(D - t*DIR)")
    p.add_argument("--samples", type=sample_count, default=8,
                   help=f"table samples per chamber, at most {MAX_SAMPLES}")
    p.add_argument("--plot", metavar="SVG", default=None)
    p.set_defaults(func=cmd_volume)

    p = sub.add_parser("delta", help="candidate search for the stability threshold")
    common(p)
    search(p)
    p.set_defaults(func=cmd_delta)

    p = sub.add_parser("curve", help="radial functionals of an extended curve")
    common(p)
    p.add_argument("--direction", required=True)
    p.add_argument("--functionals", type=name_list, default="E,Ealpha,Jt,Ent,ER,Mt")
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("dh", help="Duistermaat-Heckman measure of a lattice direction")
    common(p)
    p.add_argument("--u", type=lattice_vector, required=True,
                   help="comma-separated lattice vector, e.g. 1,1")
    p.add_argument("--samples", type=sample_count, default=8,
                   help=f"table samples per chamber, at most {MAX_SAMPLES}")
    p.add_argument("--plot", metavar="SVG", default=None)
    p.set_defaults(func=cmd_dh)

    p = sub.add_parser("report", help="inequality report over named directions")
    common(p)
    p.add_argument("--directions", type=name_list, required=True,
                   help="comma-separated divisor names")
    search(p)
    p.set_defaults(func=cmd_report)
    return parser


# what a shell reports for a command that SIGPIPE ended: 128 + 13
EXIT_BROKEN_PIPE = 141


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command; return its exit code.

    Only when TORICSTAB_LOG is set does main import logging and call
    basicConfig, at that level name or, for any other value, at WARNING.
    """
    if "TORICSTAB_LOG" in os.environ:
        import logging

        # a level name gives its number; anything else, even logging.BASIC_FORMAT, gives a string
        level = logging.getLevelName(os.environ["TORICSTAB_LOG"].upper())
        logging.basicConfig(level=level if isinstance(level, int) else logging.WARNING)
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
            code = args.func(args)
        except ValidationProblem as exc:
            code = report_error("validation", exc, 2)
        except ToricStabError as exc:
            code = report_error(type(exc).__name__, exc, 3)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader of stdout has gone (`| head`): point stdout at devnull, so
        # that the flush at interpreter exit cannot fail again, and end quietly
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    return code


def report_error(kind: str, exc: Exception, code: int) -> int:
    json.dump({"error": kind, "message": str(exc)}, sys.stderr)
    sys.stderr.write("\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
