"""Seeded sampling from the 5-parameter Gaussian measure, plus the
statistical harness that checks every model moment against sample
means.

Reproducibility contract: matrix k of a run is drawn from a dedicated
Philox stream keyed by (seed, k), with the draw order frozen as diagonal
entries, then upper-triangle symmetric parts, then antisymmetric parts
(normal variates via numpy's Generator, i.e. the ziggurat method).  The
same SampleSpec therefore yields the identical ensemble on every run and
for any parallel schedule; the exact bit stream is pinned by the numpy
version.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .gauss import GaussParams, predict_moment
from .invariants import CATALOG, CATALOG_INDEX, validate_tag
from .matrix_core import Ensemble, WordMatrix


@dataclass(frozen=True)
class SampleSpec:
    """What to draw: model parameters, ensemble size, and a 64-bit seed."""

    params: GaussParams
    count: int
    seed: int

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("sample count must be >= 1")
        if not (0 <= self.seed < 2 ** 64):
            raise ValueError("seed must be a 64-bit unsigned integer")


def _matrix_rng(seed: int, index: int) -> np.random.Generator:
    # 128-bit Philox key: high word = run seed, low word = matrix index
    return np.random.Generator(np.random.Philox(key=(seed << 64) | index))


def sample_matrix(params: GaussParams, rng: np.random.Generator) -> np.ndarray:
    """One matrix draw from the factorized measure."""
    d = params.dim
    m = np.empty((d, d))
    diag = rng.normal(params.mean_diag, np.sqrt(params.var_diag), size=d)
    np.fill_diagonal(m, diag)
    if d > 1:
        iu, ju = np.triu_indices(d, k=1)
        sym = rng.normal(params.mean_off, np.sqrt(1.0 / params.a), size=iu.size)
        anti = rng.normal(0.0, np.sqrt(1.0 / params.b), size=iu.size)
        m[iu, ju] = sym + anti
        m[ju, iu] = sym - anti
    return m


def iter_matrices(spec: SampleSpec):
    """Stream the draws one matrix at a time (nothing retained)."""
    for k in range(spec.count):
        yield sample_matrix(spec.params, _matrix_rng(spec.seed, k))


def sample(spec: SampleSpec) -> Ensemble:
    """Materialize the whole ensemble; labels record the draw index."""
    members = tuple(
        WordMatrix(f"sample{k:06d}", values)
        for k, values in enumerate(iter_matrices(spec))
    )
    return Ensemble(members)


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

    Sampling is fused with invariant evaluation, so only the per-matrix
    invariant values (not the matrices) are retained.  The standard error
    is the sample standard deviation of the per-matrix values over
    sqrt(N).
    """
    tags = tuple(tags)
    for t in tags:
        validate_tag(t)
    with_cycles = any(t in _kernels.CYCLE_TAGS for t in tags)
    per_matrix = np.empty((spec.count, len(CATALOG)))
    for k, values in enumerate(iter_matrices(spec)):
        per_matrix[k] = _kernels.catalog_values(values, with_cycles)

    out = {}
    for tag in tags:
        col = per_matrix[:, CATALOG_INDEX[tag]]
        mean = float(col.sum() / spec.count)
        if spec.count > 1:
            stderr = float(np.std(col, ddof=1) / np.sqrt(spec.count))
        else:
            stderr = 0.0
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
