"""Exception hierarchy for toricstab.

Every computational error raised by the library derives from ToricStabError,
so callers (notably the CLI) can map failures to exit codes uniformly.
"""

from __future__ import annotations


class ToricStabError(Exception):
    """Base class for all toricstab computation errors."""


class UnboundedRegion(ToricStabError):
    """A halfspace intersection that was required to be bounded is not."""


class DegeneratePolytope(ToricStabError):
    """An operation needed a full-dimensional polytope of positive volume."""


class DimensionMismatch(ToricStabError):
    """Inputs live in incompatible ambient dimensions."""


class ZeroVector(ToricStabError):
    """A lattice vector argument must be nonzero."""


class AlreadyARay(ToricStabError):
    """Star subdivision center is already a ray of the fan."""


class NonPrimitive(ToricStabError):
    """A lattice vector was required to be primitive."""


class NotNefAndNotDecomposable(ToricStabError):
    """An intersection argument is not nef and no ample reference is available.

    The library does not raise it: intersection numbers come from the fan's
    intersection ring, which needs no nef arguments.  It stays for callers
    that catch it.
    """


class NotPseudoEffective(ToricStabError):
    """The divisor class has an empty section polytope."""


class NotAmple(ToricStabError):
    """The polarization check (full-dimensional, nef-saturated polytope) failed."""


class ZeroDivisor(ToricStabError):
    """A direction divisor must be effective and nonzero."""


class NotBig(ToricStabError):
    """The divisor class has volume zero."""


class NotMonotone(ToricStabError):
    """A volume curve that must be non-increasing is not."""


class InfeasibleTau(ToricStabError):
    """The curve parameter lies outside the feasible range."""


class RangeTooShort(ToricStabError):
    """The curve does not extend far enough to be truncated."""


class OutOfRange(ToricStabError):
    """Evaluation point lies outside the curve domain."""


class NotBigOnUnitInterval(ToricStabError):
    """The one-parameter family degenerates before parameter 1."""


class InvariantViolation(ToricStabError):
    """An internal cross-check of two exact routes failed; a library defect."""
