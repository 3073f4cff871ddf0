"""A machine-speed reference timed next to every measured operation.

The benchmark runs on shared machines whose speed drifts by 30-40% within a
minute, for every process alike (CPU time moves with wall time, so it is not
waiting but slower execution).  ``sample()`` times a fixed piece of pure-Python
exact rational linear algebra, the kind of work the program itself does, and
owns nothing of the program.  Each operation is timed right after a sample,
and ``scale`` expresses its time at the reference speed, at which one sample
takes ``REF_S``:

    scaled = measured * REF_S / sample

A slower machine makes both the operation and the sample slower, so the ratio
keeps the program's cost and drops the machine's drift.  A change to the
program moves the operation and not the sample.  The raw times and the samples
are kept in the run's metadata.

Process start-up (interpreter start, imports, reading source files) drifts
differently from pure-Python work, so start-up probes and worker set-ups are
scaled the same way by a bare interpreter start (``python3 -c pass``) timed
just before them, against ``REF_START_S``.
"""

from __future__ import annotations

import time
from fractions import Fraction

REF_S = 0.015  # seconds of one sample at the reference speed
REF_START_S = 0.08  # seconds of a bare interpreter start at the reference speed
_N = 7
_REPEAT = 9


def _solve() -> Fraction:
    """Gauss-Jordan elimination of a fixed non-singular rational system."""
    rows = [[Fraction(1, i + j + 1) + (i == j) for j in range(_N)] + [Fraction(i + 1, 2)]
            for i in range(_N)]
    for col in range(_N):
        pivot = next(r for r in range(col, _N) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = 1 / rows[col][col]
        rows[col] = [x * inv for x in rows[col]]
        for r in range(_N):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return sum((row[-1] for row in rows), Fraction(0))


def sample() -> float:
    """Seconds taken by the fixed reference work."""
    start = time.perf_counter()
    for _ in range(_REPEAT):
        _solve()
    return time.perf_counter() - start


def scale(seconds: float, reference: float, ref: float = REF_S) -> float:
    """``seconds`` measured next to a reference that took ``reference`` seconds
    and takes ``ref`` at the reference speed."""
    return seconds * ref / reference
