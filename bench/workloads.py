"""The three benchmark workloads: their models, inputs, operations and checks.

Shared by ``worker.py`` (which times the operations) and ``record.py`` (which
records the reference results).  Inputs come from a pool of ``POOL`` seeded
entries stored in ``reference.json``; cycle ``k`` of a run with ``--seed n``
uses entry ``(n + k) % POOL``, except in curve-functionals, whose cycles take
each direction slot from its own entry by ``curve_picks``.  A run has a fixed
number of cycles, so two commits measured with the same seed and seconds do
the same work.  Every entry was drawn by ``record.py`` from
``random.Random("<workload>:<i>")`` together with the exact results the
program gave for it, so every run checks every result against a recorded
value.

The functions take the program as the module object ``ts`` and look every
name up on it at call time, so a traced worker calls the wrapped functions.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE = BENCH_DIR / "reference.json"
POOL = 32

WORKLOADS = ("delta-search", "curve-functionals", "cli")

FANS = {
    "p2": ([[1, 0], [0, 1], [-1, -1]], [[0, 1], [1, 2], [2, 0]]),
    "f1": ([[1, 0], [0, 1], [-1, -1], [1, 1]], [[0, 3], [3, 1], [1, 2], [2, 0]]),
    "p1xp1": ([[1, 0], [0, 1], [-1, 0], [0, -1]], [[0, 1], [1, 2], [2, 3], [3, 0]]),
    "p3": (
        [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]],
        [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]],
    ),
}
# star subdivisions: the blowup of P3 at a fixed point, and F1 refined at (1,2)
REFINED = {"blp3": ("p3", (1, 1, 1)), "f1r": ("f1", (1, 2))}

# delta-search: one worker process per search; polarization None = anticanonical.
# Two seeded Bl_p P3 searches, so the tail percentile sits among 52 rows of two
# polarizations, and F1 at radius 3, so the median falls in the dense middle of
# the P3 rows rather than on the step between the fast F1 rows and P3.
SEARCHES = {
    "p3": ("p3", None, 2),
    "blp3": ("blp3", "seeded", 1),
    "blp3_b": ("blp3", "seeded", 1),
    "f1_anti": ("f1", None, 3),
    "f1": ("f1", "seeded", 3),
}
# frozen values from the acceptance suite: (delta, minimizer or None)
FROZEN_DELTA = {"p3": ("1", None), "f1_anti": ("6/7", (1, 1))}

# nominal seconds of one cycle at the recorded commit (2-vCPU VM, Python 3.11.7,
# speed references and start-up probes included): a run of S seconds has
# round(S / CYCLE_S) cycles
CYCLE_S = {"delta-search": 25.0, "curve-functionals": 3.3, "cli": 7.0}

# curve-functionals: seeded directions per model in one cycle, plus P2 along H.
# The cheap P2 and P1xP1 directions are the majority, so the median falls in
# their narrow cost band, not on the gap between fast and slow F1 directions.
CURVE_MODELS = {"p2": 2, "f1": 2, "p1xp1": 3, "f1r": 2, "p3": 1}
P2_H = {"summary": ["1", "3/2", "1", "1", "-3", "-2"], "pp": "1"}

# cli: problem files of the repository plus two seeded ones per entry
CLI_FIXED = [
    ["validate", "problems/p2.json"],
    ["validate", "problems/bad_fan.json"],
    ["curve", "problems/p2.json", "--direction", "H", "--format", "json"],
    ["delta", "problems/f1.json", "--radius", "2"],
]
CLI_SEEDED_BASES = {"s1": "f1", "s2": "p1xp1"}
CLI_DELTA_F1_LINE = "delta = 6/7 (exact) at u=(1, 1)"

# startup_ms: fresh processes timed after each unit, interleaved with the load
STARTUP_PROBES = {"delta-search": 2, "curve-functionals": 2, "cli": 2}
STARTUP_ARGS = {
    "delta-search": ["-c", "import toricstab"],
    "curve-functionals": ["-c", "import toricstab"],
    "cli": ["-m", "toricstab.cli", "--version"],
}

# cli: extra workers per cycle that only set up (start, import, load the seeded
# files), so setup_s is a median of 2 set-ups per cycle, not of 1
SETUP_PROBES = {"delta-search": 0, "curve-functionals": 0, "cli": 1}

SMOKE_UNITS = {
    "delta-search": ["f1_anti"],
    "curve-functionals": ["curve"],
    "cli": ["cli"],
}


def pool_index(seed: int) -> int:
    return seed % POOL


def cycles(workload: str, seconds: float) -> int:
    """Cycles of a run: fixed by the workload and --seconds, not by the machine's speed."""
    return max(1, round(seconds / CYCLE_S[workload]))


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def units(workload: str, smoke: bool = False) -> list[str]:
    """Names of the worker processes that make up one cycle of a workload."""
    if smoke:
        return SMOKE_UNITS[workload]
    if workload == "delta-search":
        return list(SEARCHES)
    return ["curve"] if workload == "curve-functionals" else ["cli"]


def q(x) -> str:
    """Exact p/q text of a rational."""
    return str(Fraction(x))


def build_fan(ts, name: str):
    """(fan, anticanonical or pulled-back anticanonical, relative canonical)."""
    if name in REFINED:
        base_name, center = REFINED[name]
        base = ts.Fan.make(*FANS[base_name])
        fan, pull, k_rel = ts.star_subdivision(base, center)
        anti = pull(ts.anticanonical(base))
    else:
        fan = ts.Fan.make(*FANS[name])
        anti, k_rel = ts.anticanonical(fan), None
    if not ts.validate_fan(fan).ok:
        raise RuntimeError(f"model {name}: fan does not validate")
    return fan, anti, k_rel


# --------------------------------------------------------------------------
# delta-search: one operation is one candidate row (A and S by both routes)
# --------------------------------------------------------------------------

def search_setup(ts, unit: str, inputs: dict):
    """(fan, polarization, radius) of one search."""
    model, polarization, radius = SEARCHES[unit]
    fan, anti, _k = build_fan(ts, model)
    l = anti if polarization is None else ts.divisor(fan, [Fraction(c) for c in inputs[unit]])
    if not ts.is_ample(fan, l):
        raise RuntimeError(f"search {unit}: polarization is not ample")
    return fan, l, radius


def search_result(report) -> dict:
    """The exact content of a ThresholdReport: minimum, minimizer and every row."""
    return {
        "delta": q(report.delta_estimate),
        "minimizer": list(report.minimizer),
        "rows": [[list(r.u), q(r.log_discrepancy), q(r.s_value)] for r in report.candidates],
    }


def frozen_delta_ok(unit: str, result: dict) -> bool:
    """The search minimum and minimizer against the acceptance suite's values."""
    if unit not in FROZEN_DELTA:
        return True
    want, minimizer = FROZEN_DELTA[unit]
    return result["delta"] == want and (minimizer is None
                                        or result["minimizer"] == list(minimizer))


# --------------------------------------------------------------------------
# curve-functionals: one operation is one direction, run like criterion 6
# --------------------------------------------------------------------------

def curve_setup(ts, inputs: dict):
    models = {name: build_fan(ts, name) for name in CURVE_MODELS}
    ops = [("p2", [1, 0, 0])] + [(m, c) for m, c in inputs["directions"]]
    out = []
    for model, coeffs in ops:
        fan, l, k_rel = models[model]
        out.append((model, fan, l, k_rel, ts.divisor(fan, [Fraction(c) for c in coeffs])))
    return out


def curve_picks(seed: int, cycles: int, pool: list[dict]) -> list[list[int]]:
    """The pool entry of each seeded direction slot, for each cycle of a run.

    For each slot the pool is sorted by the slot's recorded cost and cut into
    ``cycles`` strata of neighbouring costs.  The seed draws one entry from each
    stratum and shuffles them over the cycles.  Every run therefore holds the
    cheap, middling and costly directions of each slot in the same proportion,
    and its median and tail do not depend on which directions the seed drew.
    """
    rng = random.Random(f"curve-functionals:picks:{seed}")
    columns = []
    for slot in range(len(pool[0]["cost_ms"])):
        order = sorted(range(len(pool)), key=lambda e: (pool[e]["cost_ms"][slot], e))
        column = []
        for k in range(cycles):
            lo = k * len(order) // cycles
            column.append(rng.choice(order[lo:max(lo + 1, (k + 1) * len(order) // cycles)]))
        rng.shuffle(column)
        columns.append(column)
    return [list(picks) for picks in zip(*columns)]


def curve_cycle(pool: list[dict], picks: list[int]) -> tuple[dict, list]:
    """Inputs and expected results of a cycle whose seeded slot j is from entry picks[j]."""
    directions = [pool[e]["inputs"]["directions"][j] for j, e in enumerate(picks)]
    want = [pool[picks[0]]["expect"]["curve"][0]]  # P2 along H, the same in every entry
    want += [pool[e]["expect"]["curve"][j + 1] for j, e in enumerate(picks)]
    return {"directions": directions}, want


def encode_piecewise(curve) -> str:
    breaks = ",".join(q(b) for b in curve.breakpoints)
    pieces = "|".join(",".join(q(c) for c in p.coeffs) for p in curve.pieces)
    return f"{breaks};{pieces}"


def curve_op(ts, op) -> dict:
    _model, fan, l, k_rel, d = op
    vol, tau_plus = ts.volume_curve(fan, l, d)
    if tau_plus < 1:
        d = d.scale(tau_plus / 2)  # keep the unit interval big, as criterion 6 does
    curve = ts.extended_curve(fan, l, d, k_rel=k_rel)
    s = ts.curve_summary(curve)
    pp = ts.delta_pp_quotient(fan, l, d, k_rel=k_rel)
    try:
        prime = q(ts.delta_prime_quotient(fan, l, d, k_rel=k_rel))
    except ts.ToricStabError as exc:
        prime = {"error": type(exc).__name__}
    values = (s.energy, s.omega_energy, s.jtilde, s.entropy, s.ricci_energy, s.twisted_mabuchi)
    return {
        "tau_plus": q(tau_plus),
        "volume_curve": encode_piecewise(vol),
        "summary": [q(v) for v in values],
        "pp": q(pp),
        "prime": prime,
        # J~ = n (E^L - E) on every curve
        "jtilde_identity": s.jtilde == fan.dimension * (s.omega_energy - s.energy),
    }


def curve_check(got: dict, want: dict) -> tuple[bool, bool]:
    """(matches the reference, is the recorded known gap)."""
    want_prime = want["prime"]
    known_gap = isinstance(want_prime, dict) and "known_gap" in want_prime
    if known_gap:
        gap = got["prime"] == {"error": want_prime["known_gap"]}
        prime_ok = gap or got["prime"] == want_prime["value"]
    else:
        gap, prime_ok = False, got["prime"] == want_prime
    rest = {k: v for k, v in got.items() if k != "prime"}
    rest_want = {k: v for k, v in want.items() if k != "prime"}
    return prime_ok and rest == rest_want and got["jtilde_identity"], gap


def p2_h_ok(result: dict) -> bool:
    return result["summary"] == P2_H["summary"] and result["pp"] == P2_H["pp"]


def surface_intersection(fan, a, b) -> Fraction:
    """(a . b) on a smooth complete toric surface from its fan alone.

    D_i . D_j is 1 for adjacent rays and 0 for other distinct rays; D_i^2 is
    -k where v_prev + v_next = k v_i.  Used as the oracle for the K_rel term
    of the unit-interval quotient, which the polytope route cannot split on
    refined F1.
    """
    rays = list(fan.rays)
    order = sorted(range(len(rays)), key=lambda i: math.atan2(rays[i][1], rays[i][0]))
    cones = {frozenset(c) for c in fan.max_cones}
    m = len(order)
    form = {}
    for pos, i in enumerate(order):
        prev, nxt = rays[order[pos - 1]], rays[order[(pos + 1) % m]]
        w = (prev[0] + nxt[0], prev[1] + nxt[1])
        k = next(Fraction(w[c], rays[i][c]) for c in (0, 1) if rays[i][c] != 0)
        form[i, i] = -k
    for i in range(m):
        for j in range(m):
            if i != j:
                form[i, j] = Fraction(1 if frozenset((i, j)) in cones else 0)
    return sum(
        (Fraction(x) * Fraction(y) * form[i, j]
         for i, x in enumerate(a.coeffs) for j, y in enumerate(b.coeffs)),
        Fraction(0),
    )


# --------------------------------------------------------------------------
# cli: one operation is one toricstab process
# --------------------------------------------------------------------------

def write_problems(inputs: dict, work: Path) -> dict[str, Path]:
    """Write the entry's seeded problem files into ``work``; their paths by name."""
    paths = {}
    for name, problem in inputs["problems"].items():
        paths[name] = work / f"{name}.json"
        paths[name].write_text(json.dumps(problem, indent=2), encoding="utf-8")
    return paths


def cli_commands(inputs: dict, paths: dict[str, Path], smoke: bool = False) -> list[list[str]]:
    """Argument lists of one cycle; ``paths`` are the seeded files from write_problems."""
    if smoke:
        return CLI_FIXED[:2]
    cmds = [list(c) for c in CLI_FIXED]
    for name in CLI_SEEDED_BASES:
        path, first = str(paths[name]), inputs["names"][name][0]
        cmds += [
            ["validate", path],
            ["volume", path, "--curve", first],
            ["dh", path, "--u=" + inputs["u"][name]],  # "=" lets u start with "-"
            ["curve", path, "--direction", first],
        ]
    # One search on a seeded file, so 2 of a cycle's 13 commands are searches and
    # the tail percentile of a run falls among the start-up-bound commands, not
    # on the step between them and the searches, which take 2-3 times as long.
    first, second = inputs["names"]["s2"]
    cmds.append(["report", str(paths["s2"]), "--directions", f"{first},{second}",
                 "--radius", "2"])
    return cmds


def cli_result(returncode: int, stdout: bytes) -> list:
    return [returncode, hashlib.sha256(stdout).hexdigest()]


def cli_frozen_ok(args: list[str], stdout: bytes) -> bool:
    """Frozen values visible in the output of the repository's problem files."""
    if args == CLI_FIXED[2]:
        payload = json.loads(stdout)
        got = [payload[k] for k in ("energy", "omega_energy", "jtilde", "entropy",
                                    "ricci_energy", "twisted_mabuchi")]
        return got == P2_H["summary"]
    if args == CLI_FIXED[3]:
        return stdout.decode().splitlines()[0] == CLI_DELTA_F1_LINE
    return True
