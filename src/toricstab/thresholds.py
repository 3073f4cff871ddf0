"""Stability thresholds: expected vanishing orders, quotient searches, reports.

The candidate search runs over primitive lattice vectors in a sup-norm ball;
the reported minimum is exact over that candidate family and is a certified
upper bound for the infimum over all valuations (lattice candidates suffice
for toric data, an assumption every report records).  A row's S reads one
memo per (fan, L), built in the first row: the barycenter of the section
polytope, read off one integer pass over its triangulation and checked
once against cone localization, a sum over the fan's maximal cones, and
its vertices, in integers.  A row's A and S are integer dots with one
Fraction each.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache
from operator import mul

from ._record import Record
from .errors import InvariantViolation, NotBigOnUnitInterval, ZeroDivisor
from .filtrations import _check_direction
from .geometry import LatticeVector, is_primitive, triangulation_sums
from .toric import (
    Fan,
    ToricDivisor,
    ample_polytope,
    anticanonical,
    localized_moments,
    log_discrepancy,
    ray_divisor,
    zero_divisor,
)
from .test_curves import (
    entropy,
    extended_curve,
    g_pairing,
    jtilde,
    truncated_curve,
)


STANDARD_ASSUMPTIONS = (
    "candidates are lattice (toric) valuations; the reported minimum certifies "
    "an upper bound for the infimum over all valuations",
    "expected vanishing orders are normalized by the total volume "
    "(S = mean - min of the support pairing over the section polytope)",
)


@lru_cache(maxsize=None)
def _barycenter(fan: Fan, l: ToricDivisor) -> tuple[LatticeVector, int, Sequence[LatticeVector], int]:
    """The row table of (fan, L): b over one denominator, P_L's `points` over `p.den`.

    P_L is ample_polytope's, so L must be big and nef (NotAmple, before
    anything is built).  One integer pass over P_L's triangulation (triangulation_sums) gives n! vol
    and the volume-weighted vertex sums, so b = weighted / (den (n + 1)
    sum |det|).  Both must equal their values by cone localization
    (localized_moments), which sums over the fan's maximal cones and reads
    no polytope, or InvariantViolation is raised.  Memoized per (fan, L); a
    failed check is not cached and raises again.
    """
    p = ample_polytope(fan, l)
    n = fan.dimension
    total, weighted = triangulation_sums(p)
    volume, moments, q = localized_moments(fan, l)
    if total * q != volume * p.den**n:
        raise InvariantViolation(
            f"volume routes disagree: {Fraction(total, p.den**n)} by the triangulation, "
            f"{Fraction(volume, q)} by cone localization"
        )
    scale = p.den * (n + 1) * total
    for i, (w, moment) in enumerate(zip(weighted, moments)):
        if w * volume != moment * scale:
            e = tuple(int(i == j) for j in range(n))
            raise InvariantViolation(
                f"barycenter routes disagree along u={e}: {Fraction(w, scale)} by the triangulation, "
                f"{Fraction(moment, volume)} by cone localization"
            )
    g = math.gcd(scale, *weighted)
    return tuple(w // g for w in weighted), scale // g, p.points, p.den


def s_invariant(fan: Fan, l: ToricDivisor, u: Sequence[int]) -> Fraction:
    """Normalized expected vanishing order (1/V) int_0^inf vol(L - t u) dt.

    Computed as S(u) = <b, u> - min <x, u> over P_L (Blum-Jonsson), with the
    barycenter b of P_L checked against cone localization once per (fan, L)
    (_barycenter), so that no filtration curve is built.  Both dots run in
    integers over the memo's two denominators, and one Fraction is built.
    u must be nonzero and of the fan's dimension (ZeroVector,
    DimensionMismatch) and L big and nef (NotAmple).
    """
    _check_direction(fan, u)
    b, q, points, den = _barycenter(fan, l)
    low = min(sum(map(mul, x, u)) for x in points)
    return Fraction(sum(map(mul, b, u)) * den - low * q, q * den)


def delta_quotient(fan: Fan, l: ToricDivisor, u: Sequence[int]) -> Fraction:
    """log_discrepancy / s_invariant for one lattice direction."""
    return log_discrepancy(fan, u) / s_invariant(fan, l, u)


def primitive_candidates(dimension: int, radius: int) -> list[tuple[int, ...]]:
    """All primitive vectors with sup-norm at most radius, sorted by (norm, lex)."""
    out = []
    for v in itertools.product(range(-radius, radius + 1), repeat=dimension):
        if any(v) and is_primitive(v):
            out.append(v)
    return sorted(out, key=lambda v: (max(abs(a) for a in v), v))


class CandidateRow(Record):
    _fields = ("u", "log_discrepancy", "s_value", "quotient")

    def __init__(self, u: tuple[int, ...], log_discrepancy: Fraction, s_value: Fraction,
                 quotient: Fraction) -> None:
        fields = self.__dict__
        fields["u"] = u
        fields["log_discrepancy"] = log_discrepancy
        fields["s_value"] = s_value
        fields["quotient"] = quotient


class DirectionRow(Record):
    _fields = ("name", "pp_quotient", "prime_quotient")

    def __init__(self, name: str, pp_quotient: Fraction | None,
                 prime_quotient: Fraction | None) -> None:
        fields = self.__dict__
        fields["name"] = name
        fields["pp_quotient"] = pp_quotient
        fields["prime_quotient"] = prime_quotient


class Verdict(Record):
    _fields = ("description", "left", "right", "holds")

    def __init__(self, description: str, left: Fraction, right: Fraction, holds: bool) -> None:
        fields = self.__dict__
        fields["description"] = description
        fields["left"] = left
        fields["right"] = right
        fields["holds"] = holds


class ThresholdReport(Record):
    _fields = ("delta_estimate", "minimizer", "candidates", "directions", "verdicts", "assumptions")

    def __init__(self, delta_estimate: Fraction, minimizer: tuple[int, ...],
                 candidates: tuple[CandidateRow, ...], directions: tuple[DirectionRow, ...] = (),
                 verdicts: tuple[Verdict, ...] = (),
                 assumptions: tuple[str, ...] = STANDARD_ASSUMPTIONS) -> None:
        fields = self.__dict__
        fields["delta_estimate"] = delta_estimate
        fields["minimizer"] = minimizer
        fields["candidates"] = candidates
        fields["directions"] = directions
        fields["verdicts"] = verdicts
        fields["assumptions"] = assumptions
        best = min(row.quotient for row in candidates)
        if best != delta_estimate:
            raise ValueError("delta estimate must be the minimum of the quotient column")


def _candidate_row(args) -> CandidateRow:
    fan, l, u = args
    a = log_discrepancy(fan, u)
    s = s_invariant(fan, l, u)
    return CandidateRow(u=u, log_discrepancy=a, s_value=s, quotient=a / s)


def delta_search(fan: Fan, l: ToricDivisor, radius: int, jobs: int = 1) -> ThresholdReport:
    """Exact minimum of the quotient over primitive lattice candidates in a ball.

    Candidates are evaluated serially by default.  A library caller may pass
    jobs > 1 to spread them over a process pool of at most one worker per
    candidate; no measured input has repaid the pool's start-up, and the
    command line never starts one.  Rows are assembled in the deterministic
    (norm, lex) candidate order regardless of jobs.
    """
    if radius < 1:
        raise ValueError("radius must be at least 1")
    candidates = primitive_candidates(fan.dimension, radius)
    args = [(fan, l, u) for u in candidates]
    if jobs > 1:
        # imported here, so that a serial search or a CLI start-up does not load it
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(args))) as pool:
            rows = list(pool.map(_candidate_row, args, chunksize=8))
    else:
        rows = [_candidate_row(a) for a in args]
    best = min(rows, key=lambda row: row.quotient)
    return ThresholdReport(
        delta_estimate=best.quotient,
        minimizer=next(r.u for r in rows if r.quotient == best.quotient),
        candidates=tuple(rows),
    )


def delta_pp_quotient(
    fan: Fan,
    l: ToricDivisor,
    d: ToricDivisor,
    k_rel: ToricDivisor | None = None,
) -> Fraction:
    """entropy / jtilde of the extended curve along D; invariant under scaling D."""
    if d.is_zero:
        raise ZeroDivisor("direction divisor is zero")
    curve = extended_curve(fan, l, d, k_rel=k_rel)
    return entropy(curve) / jtilde(curve)


def delta_prime_quotient(
    fan: Fan,
    l: ToricDivisor,
    d: ToricDivisor,
    k_rel: ToricDivisor | None = None,
) -> Fraction:
    """The unit-interval quotient; not invariant under rescaling D.

    Numerator: n * (G_{n-1}(L, D) . (K_rel + Red D)) = n * int_0^1
    (L - tau D)^{n-1} . (K_rel + Red D) dtau, with the averaging polynomial
    expanded multilinearly.  Denominator:
    n * int_0^1 (<P_tau^{n-1}> . L - vol(P_tau)) dtau = n (<L, I> - M), the
    truncated curve's integrals (V * jtilde(truncated), with no V computed).
    """
    if d.is_zero:
        raise ZeroDivisor("direction divisor is zero")
    n = fan.dimension
    if k_rel is None:
        k_rel = zero_divisor(fan)
    extended = extended_curve(fan, l, d, k_rel=k_rel)
    if extended.tau_plus < 1:
        raise NotBigOnUnitInterval(
            f"family degenerates at tau+ = {extended.tau_plus} < 1"
        )
    truncated = truncated_curve(extended)
    denominator = n * (truncated.pairing_integral(l) - truncated.mass_integral)
    return n * g_pairing(fan, l, d, k_rel + d.reduced()) / denominator


def inequality_report(
    fan: Fan,
    l: ToricDivisor,
    directions: Sequence[tuple[str, ToricDivisor]],
    radius: int,
    search_model: tuple[Fan, ToricDivisor] | None = None,
) -> ThresholdReport:
    """Candidate search plus per-direction quotients and exact inequality verdicts.

    For each direction D the report asserts delta <= pp-quotient(D) and
    delta <= prime-quotient(D).  The candidate search runs serially on
    search_model, a (fan, polarization) pair, by default (fan, l); a refined
    fan passes its base model, because delta needs the base variety's log
    discrepancies and a star subdivision adds no toric valuation.  When the
    search model's polarization is anticanonical and the minimizer is one of
    its rays, the minimum of the pp column over the directions extended by
    that ray divisor, taken on the search model, must equal delta exactly.
    """
    search_fan, search_l = search_model or (fan, l)
    base = delta_search(search_fan, search_l, radius)
    if not directions:
        return base
    delta = base.delta_estimate
    rows: list[DirectionRow] = []
    verdicts: list[Verdict] = []
    for name, d in directions:
        pp = delta_pp_quotient(fan, l, d)
        try:
            prime = delta_prime_quotient(fan, l, d)
        except NotBigOnUnitInterval:
            prime = None
        rows.append(DirectionRow(name=name, pp_quotient=pp, prime_quotient=prime))
        verdicts.append(
            Verdict(
                description=f"pp-quotient({name}) >= delta",
                left=pp,
                right=delta,
                holds=pp >= delta,
            )
        )
        if prime is not None:
            verdicts.append(
                Verdict(
                    description=f"prime-quotient({name}) >= delta",
                    left=prime,
                    right=delta,
                    holds=prime >= delta,
                )
            )
    if search_l.coeffs == anticanonical(search_fan).coeffs and base.minimizer in search_fan.rays:
        ray_dir = ray_divisor(search_fan, search_fan.rays.index(base.minimizer))
        pp_values = [row.pp_quotient for row in rows if row.pp_quotient is not None]
        pp_values.append(delta_pp_quotient(search_fan, search_l, ray_dir))
        verdicts.append(
            Verdict(
                description="min pp-quotient over directions + minimizing ray equals delta",
                left=min(pp_values),
                right=delta,
                holds=min(pp_values) == delta,
            )
        )
    return ThresholdReport(
        delta_estimate=delta,
        minimizer=base.minimizer,
        candidates=base.candidates,
        directions=tuple(rows),
        verdicts=tuple(verdicts),
        assumptions=STANDARD_ASSUMPTIONS
        + (
            "pp- and prime-quotients are evaluated on the user-supplied direction "
            "family; an exhaustive search over all singularity data is not attempted",
        ),
    )
