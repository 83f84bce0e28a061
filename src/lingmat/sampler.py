"""Seeded sampling from the 5-parameter Gaussian measure, plus the
statistical harness that checks every model moment against sample
means.

Reproducibility contract: the draws of a run are cut into streams of
`_STREAM_DRAWS` = 128 matrices, and draw k of seed s is draw k mod 128
of stream k // 128, the generator
``Generator(SFC64(SeedSequence(s, spawn_key=(k // 128,))))``.  Each
matrix takes the next D^2 standard normals of its stream (numpy's
Generator, i.e. the ziggurat method), in the frozen order diagonal
entries, then upper-triangle symmetric parts, then antisymmetric parts,
and scales each as ``loc + scale * z``: bit for bit what drawing the
three parts with ``Generator.normal`` gives.  A draw therefore depends
only on the seed, D and its index, not on the blocking nor on the
process that draws it; the exact bit stream is pinned by the numpy
version.

Draws are made and evaluated in blocks of ``_kernels.block_size(D)``
matrices (18 at D = 30), all by one generator, `_blocks`, the only code
that opens a stream: the block's normals fill one ``(B, D^2)`` array, one
``standard_normal`` call per stream the block touches, and `_assemble`
scales them and gathers them into a C-contiguous ``(B, D, D)`` stack.
A run of blocks keeps its open stream in `_blocks` and builds its scale
and shift rows and its gather index (`_layout`) once.  `sample_matrices`
and `sample` copy the blocks into one preallocated stack, and the Monte
Carlo check evaluates the catalog on each block in one call.

The Monte Carlo check keeps no per-draw values.  Its draws are cut into
groups of whole blocks (`_group_size`), and each group is summed up by
two rows of 19 values, its means and its sums of squared deviations
from them; the rows of all groups are merged in group order.  The check
runs on every usable CPU (`_workers`): each part is a run of whole
groups, and forked workers send their groups' rows back pickled.  Since
a group's rows depend only on the seed and its draws, every record is
that of a one-part check.  `sample`, `iter_matrices` and
``lingmat sample`` run in one process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


#: Draws per stream of the reproducibility contract (see the module
#: docstring), whatever the block or group size.
_STREAM_DRAWS = 128


def _layout(params: GaussParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The scale and shift rows of an assembled draw row [diagonal,
    sym + anti, sym - anti] (upper-triangle pairs in ``triu_indices``
    order), and the gather index from flat position i*D + j of a matrix
    to its column in that row."""
    d = params.dim
    iu, ju = np.triu_indices(d, k=1)
    n, pairs = iu.size, np.arange(iu.size)
    scale = np.repeat([np.sqrt(params.var_diag), np.sqrt(1.0 / params.a),
                       np.sqrt(1.0 / params.b)], [d, n, n])
    shift = np.repeat([params.mean_diag, params.mean_off, 0.0], [d, n, n])
    index = np.empty(d * d, dtype=np.intp)
    index[np.arange(d) * (d + 1)] = np.arange(d)
    index[iu * d + ju] = d + pairs
    index[ju * d + iu] = d + n + pairs
    return scale, shift, index


def _assemble(z: np.ndarray, layout) -> np.ndarray:
    """Matrices from rows of D^2 standard normals in the frozen draw order.

    Each entry is ``loc + scale * z``, the arithmetic of
    ``Generator.normal(loc, scale)``, so the bits equal those of drawing
    the three parts with three ``normal`` calls.  ``z`` is overwritten.
    """
    scale, shift, index = layout
    d = math.isqrt(len(index))
    n = d * (d - 1) // 2
    z *= scale
    z += shift
    sym, anti = z[:, d:d + n], z[:, d + n:]
    upper = sym + anti
    np.subtract(sym, anti, out=anti)
    sym[...] = upper
    return z.take(index, axis=1).reshape(-1, d, d)


def _blocks(params: GaussParams, seed: int, first: int, stop: int):
    """(start, matrices) for consecutive blocks of ``block_size(D)`` draws
    of the run keyed by `seed`, from draw `first` up to `stop`.

    The only code that opens a stream.  The open stream stays in its
    locals from block to block, so a block takes one ``standard_normal``
    call per stream it touches.  When `first` falls inside a stream, that
    stream's earlier draws, at most 127, are thrown away first.
    """
    layout = _layout(params)
    size = _kernels.block_size(params.dim)
    rng = None
    for start in range(first, stop, size):
        z = np.empty((min(size, stop - start), params.dim ** 2))
        at = 0
        while at < len(z):
            stream, skip = divmod(start + at, _STREAM_DRAWS)
            if rng is None or not skip:
                key = np.random.SeedSequence(seed, spawn_key=(stream,))
                rng = np.random.Generator(np.random.SFC64(key))
                for done in range(0, skip, len(z)):
                    rng.standard_normal(out=z[:min(len(z), skip - done)])
            end = min(len(z), at + _STREAM_DRAWS - skip)
            rng.standard_normal(out=z[at:end])
            at = end
        yield start, _assemble(z, layout)


def sample_matrix(params: GaussParams, rng: np.random.Generator) -> np.ndarray:
    """One matrix draw from the factorized measure."""
    return _assemble(rng.standard_normal((1, params.dim ** 2)), _layout(params))[0]


def sample_matrices(params: GaussParams, seed: int, start: int, count: int) -> np.ndarray:
    """Matrices ``start .. start + count - 1`` of the run keyed by ``seed``,
    as a ``(count, D, D)`` array: draw k is draw k mod `_STREAM_DRAWS` of
    the SFC64 stream ``SeedSequence(seed, spawn_key=(k // _STREAM_DRAWS,))``
    (see `_blocks`)."""
    check_seed(seed)
    for name, value in (("start", start), ("count", count)):
        if check_int(name, value) < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")
    out = np.empty((count, params.dim, params.dim))
    for at, block in _blocks(params, seed, start, start + count):
        out[at - start:at - start + len(block)] = block
    return out


def iter_matrices(spec: SampleSpec):
    """Stream the draws in order; one block of matrices is held at a time."""
    for _, block in _blocks(spec.params, spec.seed, 0, spec.count):
        yield from block


def sample_labels(count: int) -> list[str]:
    """Labels of the draws: ``sample000000``, ``sample000001``, ..."""
    return [f"sample{k:06d}" for k in range(count)]


def sample(spec: SampleSpec) -> Ensemble:
    """The whole ensemble as one stack filled block by block; labels record
    the draw index."""
    return Ensemble(sample_labels(spec.count),
                    sample_matrices(spec.params, spec.seed, 0, spec.count))


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


#: The fewest draws of a Monte Carlo group: 128 keeps the group rows at
#: about 2 bytes per draw, 304 B per group of 144 draws at D = 30.
_GROUP_DRAWS = 128


def _group_size(dim: int) -> int:
    """Draws per Monte Carlo group: the fewest whole blocks that hold at
    least `_GROUP_DRAWS` draws (144 at D = 30, 128 from D = 91 up)."""
    size = _kernels.block_size(dim)
    return -(-_GROUP_DRAWS // size) * size


def _group_moments(spec: SampleSpec, first: int, stop: int) -> np.ndarray:
    """The groups of draws `first` to `stop` (`first` a group boundary), as
    a ``(2, groups, 19)`` array: each group's means over its draws, then
    its sums of squared deviations from those means."""
    group = _group_size(spec.params.dim)
    out = np.empty((2, -(-(stop - first) // group), len(CATALOG)))
    values = np.empty((group, len(CATALOG)))
    for start, block in _blocks(spec.params, spec.seed, first, stop):
        at = (start - first) % group
        filled = at + len(block)
        values[at:filled] = _kernels.catalog_values(block)
        if filled == group or start + len(block) == stop:
            g = (start - first) // group
            out[0, g] = values[:filled].sum(axis=0) / filled
            out[1, g] = ((values[:filled] - out[0, g]) ** 2).sum(axis=0)
    return out


def monte_carlo_check(spec: SampleSpec, tags=CATALOG) -> dict[str, McRecord]:
    """Sample means vs model predictions, one z-score per invariant.

    Sampling is fused with invariant evaluation, block by block, and the
    values of each group of `_group_size` draws are summed up by their
    means and their sums of squared deviations (`_group_moments`), so no
    per-draw value outlives its group.  The check is split into
    ``_workers._part_count(count * D^2 * 8)`` parts, at most one per
    group, each a run of whole groups: part 0 runs here and each other
    part in a forked worker that sends its groups' rows back.  A worker's
    exception is raised here, and a worker that dies is a RuntimeError
    naming its exit status.

    The group rows are merged in group order (Chan, Golub and LeVeque):
    the mean is ``sum(n_g m_g) / N`` and the sum of squared deviations
    ``sum(M2_g) + sum(n_g (m_g - mean)^2)``, so a large mean does not
    cancel against the spread.  The standard error is the sample standard
    deviation over sqrt(N), so N must be at least 2.
    """
    if spec.count < 2:
        raise ValueError(f"the Monte Carlo check needs at least 2 draws for a "
                         f"standard error, got count {spec.count}")
    tags = tuple(tags)
    for t in tags:
        validate_tag(t)
    d, group = spec.params.dim, _group_size(spec.params.dim)
    groups = -(-spec.count // group)
    parts = min(_workers._part_count(spec.count * d * d * 8), groups)
    bounds = [min(groups * k // parts * group, spec.count) for k in range(parts + 1)]
    means, m2 = np.concatenate(_workers._each_part(
        "Monte Carlo", lambda k: _group_moments(spec, bounds[k], bounds[k + 1]), parts),
        axis=1)
    sizes = np.full((groups, 1), float(group))
    sizes[-1] = spec.count - (groups - 1) * group
    mean_all = (sizes * means).sum(axis=0) / spec.count
    m2_all = m2.sum(axis=0) + (sizes * (means - mean_all) ** 2).sum(axis=0)
    stderr_all = np.sqrt(m2_all / (spec.count - 1)) / np.sqrt(spec.count)

    out = {}
    for tag in tags:
        i = CATALOG_INDEX[tag]
        mean, stderr = float(mean_all[i]), float(stderr_all[i])
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
