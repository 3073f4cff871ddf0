"""Filtration volume curves, Duistermaat-Heckman measures, flag-ideal curves.

The valuation filtration of a lattice direction u slices the section polytope
of the polarization; its normalized volume curve differentiates to a
probability measure whose first moment is the expected vanishing order.
The volume curve is a sum of B-splines over the section polytope's own
triangulation (volume_fn.superlevel_volume_curve), with no hypograph built.
The tests check it against the slice family's volume curve and against
sampled volumes on the family's chambers.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from fractions import Fraction

from ._record import Record
from .errors import (
    DimensionMismatch,
    InfeasibleTau,
    InvariantViolation,
    NotMonotone,
    ZeroVector,
)
from .geometry import LatticeVector, Polytope, dot
from .toric import Fan, ToricDivisor, ample_polytope
from .volume_fn import PiecewisePolynomial, superlevel_volume_curve


class DHMeasure(Record):
    """A probability measure on the curve parameter: density plus atoms.

    The density is a chamber-wise polynomial (not necessarily continuous);
    atoms carry any terminal jump of the underlying volume curve.  Total mass
    is exactly 1 and the density is nonnegative, both checked at construction;
    a negative density comes from an increasing curve and raises NotMonotone.
    """

    _fields = ("density", "atoms")

    def __init__(self, density: PiecewisePolynomial | None,
                 atoms: tuple[tuple[Fraction, Fraction], ...]) -> None:
        fields = self.__dict__
        fields["density"] = density
        fields["atoms"] = atoms = tuple((Fraction(x), Fraction(m)) for x, m in atoms)
        if any(m < 0 for _x, m in atoms):
            raise ValueError("atom masses must be nonnegative")
        if density is not None and not density.is_nonnegative():
            raise NotMonotone("DH density must be nonnegative on its support")
        if self.total_mass() != 1:
            raise ValueError(f"DH measure has total mass {self.total_mass()} != 1")

    def total_mass(self) -> Fraction:
        mass = sum((m for _x, m in self.atoms), Fraction(0))
        if self.density is not None:
            mass += self.density.integrate()
        return mass

    def support(self) -> tuple[Fraction, Fraction]:
        points = [x for x, _m in self.atoms]
        if self.density is not None:
            points.extend(self.density.domain)
        return min(points), max(points)

    def first_moment(self) -> Fraction:
        total = sum((x * m for x, m in self.atoms), Fraction(0))
        if self.density is not None:
            total += self.density.moment()
        return total


def _check_direction(fan: Fan, u: Sequence[int]) -> None:
    """Raise unless u is a nonzero vector of the fan's dimension."""
    if len(u) != fan.dimension:
        raise DimensionMismatch(
            f"{tuple(u)} has {len(u)} coordinates; the fan has dimension {fan.dimension}"
        )
    if all(a == 0 for a in u):
        raise ZeroVector("filtration direction must be nonzero")


def _section_polytope(fan: Fan, l: ToricDivisor, u: Sequence[int]) -> Polytope:
    """P_L, once u is a nonzero vector of the fan's dimension and L is big and nef."""
    _check_direction(fan, u)
    return ample_polytope(fan, l)


def filtration_curve(fan: Fan, l: ToricDivisor, u: Sequence[int]) -> PiecewisePolynomial:
    """Exact tau -> n! * volume{x in P_L : <x,u> - min <.,u> >= tau}.

    Non-increasing from vol(L) at 0 down to 0 at the width of P_L against u.
    A sum of B-splines over P_L's cached triangulation, the one its volume
    and barycenter read (superlevel_volume_curve): each chamber polynomial is
    checked against the degree bound n and, a third of the way in, against
    the slice's volume enumerated and triangulated afresh on integer rows.
    """
    return superlevel_volume_curve(_section_polytope(fan, l, u), u)


def dh_measure(vol_curve: PiecewisePolynomial, v) -> DHMeasure:
    """The measure -(1/V) d/dtau of a non-increasing volume curve.

    The density is the chamber-wise symbolic derivative; a positive terminal
    value of the curve becomes an atom at the right endpoint.  Total mass is
    exactly 1 when the curve starts at V; DHMeasure checks the density's sign.
    """
    v = Fraction(v)
    if v <= 0:
        raise ValueError("total volume must be positive")
    lo, hi = vol_curve.domain
    if vol_curve(lo) != v:
        raise NotMonotone(f"curve starts at {vol_curve(lo)}, expected {v}")
    density = vol_curve.derivative().scale(Fraction(-1) / v)
    atoms: tuple[tuple[Fraction, Fraction], ...] = ()
    terminal = vol_curve(hi)
    if terminal > 0:
        atoms = ((hi, terminal / v),)
    return DHMeasure(density, atoms)


def energy_from_dh(measure: DHMeasure) -> Fraction:
    """First moment of the measure: the energy of the curve it came from."""
    return measure.first_moment()


class MonomialIdealData(Record):
    """A flag of monomial ideals I_0 <= I_1 <= ... <= I_{N-1} (full ring last).

    Each ideal is a finite tuple of exponent vectors; the ambient full ring is
    represented by the zero exponent vector.  Nesting is checked monomial by
    monomial: every generator of I_i must be divisible by some generator of
    I_{i+1}.
    """

    _fields = ("ideals",)

    def __init__(self, ideals: tuple[tuple[LatticeVector, ...], ...]) -> None:
        self.__dict__["ideals"] = ideals

    @classmethod
    def make(cls, ideals: Sequence[Sequence[Sequence[int]]]) -> MonomialIdealData:
        normalized = tuple(
            tuple(tuple(int(a) for a in gen) for gen in ideal) for ideal in ideals
        )
        if not normalized:
            raise ValueError("a flag needs at least one ideal")
        for ideal in normalized:
            if not ideal:
                raise ValueError("each ideal needs at least one generator")
            if any(a < 0 for gen in ideal for a in gen):
                raise ValueError("monomial exponents must be nonnegative")
        for i, (small, big) in enumerate(zip(normalized, normalized[1:])):
            for gen in small:
                if not any(all(g <= e for g, e in zip(div, gen)) for div in big):
                    raise ValueError(
                        f"ideal {i} is not contained in ideal {i + 1}: generator {gen}"
                    )
        return cls(normalized)

    @property
    def length(self) -> int:
        return len(self.ideals)

    def valuation(self, index: int, u: Sequence[int]) -> Fraction:
        """v_u(I_index) = min over generators of <m, u>."""
        return min(dot(gen, u) for gen in self.ideals[index])


def flag_curve_value(flag: MonomialIdealData, tau, u: Sequence[int]) -> Fraction:
    """Exact value at tau of the flag-ideal test curve against the valuation of u.

    Minimizes sum_i alpha_i v_u(I_i) over the simplex slice
    {alpha >= 0, sum alpha_i = 1, sum i*alpha_i = -tau}; the slice's vertices
    are supported on at most two indices, so exact enumeration suffices.
    Returns minus the optimal value.
    """
    if all(a == 0 for a in u):
        raise ZeroVector("valuation direction must be nonzero")
    tau = Fraction(tau)
    target = -tau
    n = flag.length
    if target < 0 or target > n - 1:
        raise InfeasibleTau(f"-tau must lie in [0, {n - 1}], got {target}")
    values = [flag.valuation(i, u) for i in range(n)]
    best: Fraction | None = None
    if target.denominator == 1:
        best = values[int(target)]
    for i, j in itertools.combinations(range(n), 2):
        if not (i <= target <= j):
            continue
        alpha_j = (target - i) / (j - i)
        alpha_i = 1 - alpha_j
        value = alpha_i * values[i] + alpha_j * values[j]
        if best is None or value < best:
            best = value
    if best is None:
        raise InvariantViolation(f"no flag index brackets -tau = {target}")
    return -best
