"""Counting linearly independent permutation-invariant matrix polynomials.

The count of degree-k invariants in dimension D is a double sum over
integer partitions of D and k (conjugacy classes of the two symmetric
groups), with each term weighted by the inverse class-normalizer
z_p = prod_i i^{p_i} p_i! and by powers of the fixed-point counts of
sigma^i in the natural representation.  All arithmetic is exact; the
double sum of rationals must collapse to an integer, and a non-integer
total signals an implementation bug, not bad input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .invariants import CATALOG_GRAPHS, QUADRATIC_TAGS, GraphInvariant


@dataclass(frozen=True)
class Partition:
    """An integer partition, stored as its decreasing part tuple."""

    parts: tuple[int, ...]

    def __post_init__(self):
        parts = tuple(int(p) for p in self.parts)
        if any(p < 1 for p in parts):
            raise ValueError("partition parts must be >= 1")
        if any(parts[k] < parts[k + 1] for k in range(len(parts) - 1)):
            raise ValueError("partition parts must be in decreasing order")
        object.__setattr__(self, "parts", parts)

    @property
    def weight(self) -> int:
        return sum(self.parts)

    @property
    def multiplicities(self) -> dict[int, int]:
        """Map part size -> count; sum of size*count recovers the weight."""
        out: dict[int, int] = {}
        for p in self.parts:
            out[p] = out.get(p, 0) + 1
        return out

    def normalizer(self) -> int:
        """z = prod_i i^{p_i} p_i!, the centralizer order of the class."""
        z = 1
        for size, mult in self.multiplicities.items():
            z *= size ** mult * math.factorial(mult)
        return z

    def fixed_points_of_power(self, i: int) -> int:
        """Fixed points of sigma^i for sigma of this cycle type.

        A cycle of length l contributes l fixed points to sigma^i exactly
        when l divides i, so this is the divisor sum of l * p_l over l | i.
        """
        return sum(size * mult for size, mult in self.multiplicities.items()
                   if i % size == 0)


def partitions(n: int) -> list[Partition]:
    """All partitions of n, in descending lexicographic order ([n] first)."""
    if n < 0:
        raise ValueError("cannot partition a negative integer")

    def gen(remaining, max_part):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, max_part), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return [Partition(p) for p in gen(n, n)]


def count_invariants(dim: int, degree: int) -> int:
    """Number of degree-k invariant matrix polynomials in dimension D."""
    if dim < 1 or degree < 1:
        raise ValueError("dim and degree must be >= 1")
    total = Fraction(0)
    parts_k = [(q.normalizer(), q.multiplicities) for q in partitions(degree)]
    for p in partitions(dim):
        zp = p.normalizer()
        # fix(i) only ever enters for i <= degree
        fix = [p.fixed_points_of_power(i) for i in range(degree + 1)]
        for zq, qmult in parts_k:
            term = Fraction(1, zp * zq)
            for i, qi in qmult.items():
                term *= Fraction(fix[i]) ** (2 * qi)
            total += term
    if total.denominator != 1:
        raise RuntimeError(
            f"invariant count for dim={dim}, degree={degree} is not an integer "
            f"({total}); the counting formula is implemented incorrectly"
        )
    return int(total)


def count_invariants_stable(degree: int) -> int:
    """The large-D invariant count; constant once D reaches 2k."""
    if degree < 1:
        raise ValueError("degree must be >= 1")
    return count_invariants(2 * degree, degree)


def enumerate_quadratic_graphs() -> list[GraphInvariant]:
    """The 11 canonical quadratic invariant graphs, in QUADRATIC_TAGS order."""
    return [CATALOG_GRAPHS[t] for t in QUADRATIC_TAGS]
