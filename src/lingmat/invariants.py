"""Permutation-invariant polynomial observables on matrices and ensembles.

The fixed catalog holds the 19 invariants used by the model: two linear,
eleven quadratic, three cubic, three quartic.  Every multi-index sum is
restricted to pairwise-distinct indices; a dimension too small to supply
the indices makes the sum empty, never an error.  Each invariant is a
directed multigraph, and ``CATALOG_GRAPHS`` is the one table of them: the
tags, their order, degrees and index counts, the brute-force graph
evaluator used as an oracle, and the model's Wick moments all read it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .matrix_core import Ensemble, check_int, check_real, values_of


@dataclass(frozen=True, eq=False)
class GraphInvariant:
    """A directed multigraph; loops and repeated edges allowed.

    The associated invariant sums, over all injective assignments of
    vertices to basis indices, the product of the matrix entries picked
    out by the edges.
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        edges = tuple((int(u), int(v)) for u, v in self.edges)
        if self.vertex_count < 1:
            raise ValueError("graph needs at least one vertex")
        if not edges:
            raise ValueError("graph needs at least one edge")
        touched = set()
        for u, v in edges:
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise ValueError(f"edge ({u},{v}) out of range for {self.vertex_count} vertices")
            touched.add(u)
            touched.add(v)
        if len(touched) != self.vertex_count:
            raise ValueError("graph has isolated vertices")
        object.__setattr__(self, "edges", edges)

    @property
    def degree(self) -> int:
        return len(self.edges)


#: The catalog, in its fixed order: each invariant is the sum over
#: distinct indices written beside its multigraph.  Md*/Mo* are the
#: diagonal/off-diagonal power sums; Q* are the remaining quadratic
#: invariants (mixed products, chains, stars, and the fully disconnected
#: pair).  The order is the layout of ``_kernels.catalog_values``.
CATALOG_GRAPHS = {
    "Md1": GraphInvariant(1, ((0, 0),)),                          # M_ii
    "Mo1": GraphInvariant(2, ((0, 1),)),                          # M_ij
    "Md2": GraphInvariant(1, ((0, 0), (0, 0))),                   # M_ii^2
    "Mo21": GraphInvariant(2, ((0, 1), (0, 1))),                  # M_ij^2
    "Mo22": GraphInvariant(2, ((0, 1), (1, 0))),                  # M_ij M_ji
    "Qdd": GraphInvariant(2, ((0, 0), (1, 1))),                   # M_ii M_jj
    "Qdio": GraphInvariant(2, ((0, 0), (0, 1))),                  # M_ii M_ij
    "Qoid": GraphInvariant(2, ((0, 1), (1, 1))),                  # M_ij M_jj
    "Qchain": GraphInvariant(3, ((0, 1), (1, 2))),                # M_ij M_jk
    "Qout": GraphInvariant(3, ((0, 1), (0, 2))),                  # M_ij M_ik
    "Qin": GraphInvariant(3, ((0, 1), (2, 1))),                   # M_ij M_kj
    "Qodiag": GraphInvariant(3, ((0, 1), (2, 2))),                # M_ij M_kk
    "Qdisc": GraphInvariant(4, ((0, 1), (2, 3))),                 # M_ij M_kl
    "Md3": GraphInvariant(1, ((0, 0),) * 3),                      # M_ii^3
    "Mo31": GraphInvariant(2, ((0, 1),) * 3),                     # M_ij^3
    "Mo32": GraphInvariant(3, ((0, 1), (1, 2), (2, 0))),          # M_ij M_jk M_ki
    "Md4": GraphInvariant(1, ((0, 0),) * 4),                      # M_ii^4
    "Mo41": GraphInvariant(2, ((0, 1),) * 4),                     # M_ij^4
    "Mo42": GraphInvariant(4, ((0, 1), (1, 2), (2, 3), (3, 0))),  # M_ij M_jk M_kl M_li
}

CATALOG = tuple(CATALOG_GRAPHS)

#: Position of each tag in ``_kernels.catalog_values`` output.
CATALOG_INDEX = {tag: i for i, tag in enumerate(CATALOG)}

#: The eleven degree-2 invariants, in catalog order.
QUADRATIC_TAGS = tuple(t for t, g in CATALOG_GRAPHS.items() if g.degree == 2)


def validate_tag(tag: str) -> str:
    if tag not in CATALOG_INDEX:
        raise KeyError(f"unknown invariant tag {tag!r}; catalog: {', '.join(CATALOG)}")
    return tag


def eval_invariant(tag: str, m) -> float:
    """Value of one catalog invariant on a matrix.

    Evaluates the whole catalog, two dense matrix products included, and
    picks the tag's entry.
    """
    validate_tag(tag)
    return float(_kernels.catalog_values(values_of(m))[CATALOG_INDEX[tag]])


def eval_all(m) -> dict[str, float]:
    """All catalog invariants of one matrix in a single pass."""
    return dict(zip(CATALOG, _kernels.catalog_values(values_of(m)).tolist()))


def eval_graph_invariant(g: GraphInvariant, m) -> float:
    """Brute-force evaluation over injective vertex assignments.

    Intended as an oracle for D up to ~10; fewer basis indices than
    vertices gives an empty sum (0).
    """
    from itertools import permutations

    v = values_of(m)
    d = v.shape[0]
    if d < g.vertex_count:
        return 0.0
    total = 0.0
    for phi in permutations(range(d), g.vertex_count):
        prod = 1.0
        for a, b in g.edges:
            prod *= v[phi[a], phi[b]]
        total += prod
    return total


@dataclass(frozen=True, eq=False)
class EnsembleAverages:
    """Per-invariant arithmetic means over an ensemble."""

    dim: int
    count: int
    values: dict[str, float]

    def to_json_dict(self) -> dict:
        return {"dim": self.dim, "count": self.count,
                "values": {t: self.values[t] for t in sorted(self.values)}}

    @classmethod
    def from_json_dict(cls, obj) -> "EnsembleAverages":
        for key in ("dim", "count", "values"):
            if key not in obj:
                raise ValueError(f"ensemble averages JSON missing {key!r}")
        values = {validate_tag(t): check_real(t, x) for t, x in obj["values"].items()}
        return cls(dim=check_int("dim", obj["dim"]), count=check_int("count", obj["count"]),
                   values=values)


def ensemble_averages(ensemble: Ensemble) -> EnsembleAverages:
    """Mean of each of the 19 catalog invariants over the members, in
    member order.

    The ensemble's stack is evaluated in slices of ``_kernels.block_size(D)``
    members, which gives each member the bits of evaluating it alone, and
    the reduction is a fixed ordered summation.
    """
    v = ensemble.values
    size = _kernels.block_size(ensemble.dim)
    table = np.vstack([_kernels.catalog_values(v[i:i + size])
                       for i in range(0, len(v), size)])
    means = table.sum(axis=0) / len(ensemble)
    values = {t: float(means[CATALOG_INDEX[t]]) for t in CATALOG}
    return EnsembleAverages(dim=ensemble.dim, count=len(ensemble), values=values)


@dataclass(frozen=True, eq=False)
class Histogram:
    """Equal-width bins over [min, max] of the observed values."""

    edges: np.ndarray
    counts: np.ndarray

    def to_csv(self) -> str:
        lines = ["bin_low,bin_high,count"]
        for k in range(len(self.counts)):
            lines.append(f"{self.edges[k]!r},{self.edges[k + 1]!r},{int(self.counts[k])}")
        return "\n".join(lines) + "\n"


def element_histogram(ensemble: Ensemble, i: int, j: int, bin_count: int) -> Histogram:
    """Distribution of entry (i, j) across the ensemble members.

    Bins span [min, max] closed on both ends; counts sum to the ensemble
    size.  A degenerate min == max collapses to a single bin.
    """
    d = ensemble.dim
    if not (0 <= i < d and 0 <= j < d):
        raise ValueError(f"entry ({i},{j}) out of range for dimension {d}")
    if bin_count < 1:
        raise ValueError("bin_count must be >= 1")
    vals = ensemble.values[:, i, j]
    lo = float(vals.min())
    hi = float(vals.max())
    if lo == hi:
        return Histogram(edges=np.array([lo, hi]), counts=np.array([vals.size]))
    counts, edges = np.histogram(vals, bins=bin_count, range=(lo, hi))
    return Histogram(edges=edges, counts=counts)
