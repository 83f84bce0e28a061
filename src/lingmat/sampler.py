"""Seeded sampling from the 5-parameter Gaussian measure, plus the
statistical harness that checks every model moment against sample
means.

Reproducibility contract: matrix k of a run is drawn from a dedicated
Philox stream keyed by (seed, k).  Each matrix takes D^2 standard normals
from its stream in one call (numpy's Generator, i.e. the ziggurat
method), in the frozen order diagonal entries, then upper-triangle
symmetric parts, then antisymmetric parts, and scales each as
``loc + scale * z``: bit for bit what drawing the three parts with
``Generator.normal`` gives.  The same SampleSpec therefore yields the
identical ensemble on every run and for any blocking; the exact bit
stream is pinned by the numpy version.

Draws are made and evaluated in blocks of ``_kernels.block_size(D)``
matrices (9 at D = 30): the block's normals fill one ``(B, D^2)`` array,
one gather through a per-D index table turns it into a C-contiguous
``(B, D, D)`` stack, and the Monte Carlo check evaluates the catalog on
the stack in one call.

The Monte Carlo check runs on every usable CPU (`_workers`): its blocks
are cut into runs of whole blocks, one per part, and forked workers write
their rows of the per-draw table in place, in memory shared with this
process.  Since a row depends only on (seed, k), every record is that of
a one-part check.  `sample`, `iter_matrices` and ``lingmat sample`` run
in one process.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _kernels, _workers
from .gauss import GaussParams, predict_moment
from .invariants import CATALOG, CATALOG_INDEX, validate_tag
from .matrix_core import Ensemble, check_int, check_seed


@dataclass(frozen=True)
class SampleSpec:
    """What to draw: model parameters, ensemble size, and a 64-bit seed."""

    params: GaussParams
    count: int
    seed: int

    def __post_init__(self):
        if check_int("sample count", self.count) < 1:
            raise ValueError("sample count must be >= 1")
        check_seed(self.seed)


@lru_cache(maxsize=8)
def _gather_index(dim: int) -> np.ndarray:
    """Flat position i*D + j of a matrix -> column of its assembled draw
    row [diagonal, sym + anti, sym - anti] (upper-triangle pairs in
    ``triu_indices`` order)."""
    iu, ju = np.triu_indices(dim, k=1)
    pairs = np.arange(iu.size)
    index = np.empty(dim * dim, dtype=np.intp)
    index[np.arange(dim) * (dim + 1)] = np.arange(dim)
    index[iu * dim + ju] = dim + pairs
    index[ju * dim + iu] = dim + iu.size + pairs
    index.setflags(write=False)
    return index


def _assemble(params: GaussParams, z: np.ndarray) -> np.ndarray:
    """Matrices from rows of D^2 standard normals in the frozen draw order.

    Each entry is ``loc + scale * z``, the arithmetic of
    ``Generator.normal(loc, scale)``, so the bits equal those of drawing
    the three parts with three ``normal`` calls.  ``z`` is overwritten.
    """
    d = params.dim
    n = d * (d - 1) // 2
    z *= np.repeat([np.sqrt(params.var_diag), np.sqrt(1.0 / params.a),
                    np.sqrt(1.0 / params.b)], [d, n, n])
    z += np.repeat([params.mean_diag, params.mean_off, 0.0], [d, n, n])
    sym, anti = z[:, d:d + n], z[:, d + n:]
    upper = sym + anti
    np.subtract(sym, anti, out=anti)
    sym[...] = upper
    return z.take(_gather_index(d), axis=1).reshape(-1, d, d)


def sample_matrix(params: GaussParams, rng: np.random.Generator) -> np.ndarray:
    """One matrix draw from the factorized measure."""
    return _assemble(params, rng.standard_normal((1, params.dim ** 2)))[0]


def sample_matrices(params: GaussParams, seed: int, start: int, count: int) -> np.ndarray:
    """Matrices ``start .. start + count - 1`` of the run keyed by ``seed``,
    as a ``(count, D, D)`` array.

    One Philox generator is rekeyed per matrix: its state is set to the
    fresh state of ``Philox(key=(seed << 64) | k)`` (128-bit key, high
    word the run seed, low word the matrix index), so each draw equals
    that of a newly built stream without building one.
    """
    z = np.empty((count, params.dim ** 2))
    bits = np.random.Philox(key=0)
    rng = np.random.Generator(bits)
    zeros = np.zeros(4, dtype=np.uint64)
    for k in range(count):
        bits.state = {"bit_generator": "Philox",
                      "state": {"counter": zeros,
                                "key": np.array([start + k, seed], dtype=np.uint64)},
                      "buffer": zeros, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        rng.standard_normal(out=z[k])
    return _assemble(params, z)


def _blocks(spec: SampleSpec, first: int = 0, stop: int | None = None):
    """(start, matrices) for consecutive blocks of ``block_size(D)`` draws,
    from draw `first`, a block boundary, up to `stop` (by default all)."""
    size = _kernels.block_size(spec.params.dim)
    stop = spec.count if stop is None else stop
    for start in range(first, stop, size):
        yield start, sample_matrices(spec.params, spec.seed, start, min(size, stop - start))


def iter_matrices(spec: SampleSpec):
    """Stream the draws in order; one block of matrices is held at a time."""
    for _, block in _blocks(spec):
        yield from block


def sample_labels(count: int) -> list[str]:
    """Labels of the draws: ``sample000000``, ``sample000001``, ..."""
    return [f"sample{k:06d}" for k in range(count)]


def sample(spec: SampleSpec) -> Ensemble:
    """The whole ensemble as one stack filled block by block; labels record
    the draw index."""
    d = spec.params.dim
    values = np.empty((spec.count, d, d))
    for start, block in _blocks(spec):
        values[start:start + len(block)] = block
    return Ensemble(sample_labels(spec.count), values)


@dataclass(frozen=True)
class McRecord:
    tag: str
    theory: float
    sample_mean: float
    sample_stderr: float
    z_score: float

    def to_json_dict(self) -> dict:
        return {"tag": self.tag, "theory": self.theory,
                "sample_mean": self.sample_mean,
                "sample_stderr": self.sample_stderr,
                "z_score": self.z_score}


def monte_carlo_check(spec: SampleSpec, tags=CATALOG) -> dict[str, McRecord]:
    """Sample means vs model predictions, one z-score per invariant.

    Sampling is fused with invariant evaluation, block by block, so only
    the per-matrix invariant values (not the matrices) are retained, in
    one ``(count, 19)`` table in an anonymous shared mapping.  The check
    is split into ``_workers._part_count(count * D^2 * 8)`` parts, at most
    one per block, each a run of whole blocks: part 0 runs here and each
    other part in a forked worker that fills its rows of the table and
    returns nothing.  A worker's exception is raised here, and a worker
    that dies is a RuntimeError naming its exit status.  The standard
    error is the sample standard deviation of the per-matrix values over
    sqrt(N), so N must be at least 2.
    """
    if spec.count < 2:
        raise ValueError(f"the Monte Carlo check needs at least 2 draws for a "
                         f"standard error, got count {spec.count}")
    tags = tuple(tags)
    for t in tags:
        validate_tag(t)
    d, width = spec.params.dim, len(CATALOG)
    size = _kernels.block_size(d)
    blocks = -(-spec.count // size)
    parts = min(_workers._part_count(spec.count * d * d * 8), blocks)
    bounds = [min(blocks * k // parts * size, spec.count) for k in range(parts + 1)]
    per_matrix = np.frombuffer(mmap.mmap(-1, spec.count * width * 8)).reshape(-1, width)

    def fill(k):
        for start, block in _blocks(spec, bounds[k], bounds[k + 1]):
            per_matrix[start:start + len(block)] = _kernels.catalog_values(block)

    _workers._each_part("Monte Carlo", fill, parts)

    out = {}
    for tag in tags:
        col = per_matrix[:, CATALOG_INDEX[tag]]
        mean = float(col.sum() / spec.count)
        stderr = float(np.std(col, ddof=1) / np.sqrt(spec.count))
        theory = predict_moment(spec.params, tag)
        if stderr > 0:
            z = (mean - theory) / stderr
        else:
            z = 0.0 if mean == theory else np.inf
        out[tag] = McRecord(tag=tag, theory=theory, sample_mean=mean,
                            sample_stderr=stderr, z_score=float(z))
    return out


def mc_records_csv(records: dict[str, McRecord]) -> str:
    lines = ["tag,theory,sample_mean,sample_stderr,z_score"]
    for tag, r in records.items():
        lines.append(f"{tag},{r.theory!r},{r.sample_mean!r},"
                     f"{r.sample_stderr!r},{r.z_score!r}")
    return "\n".join(lines) + "\n"
