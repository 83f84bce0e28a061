"""The 5-parameter permutation-symmetric Gaussian matrix model.

The measure factorizes over the diagonal entries and over the index pairs
{i, j}: M_ii is normal with mean J0/Lambda and variance 1/Lambda, while
for i < j the symmetric part S_ij = (M_ij + M_ji)/2 is normal with mean
2*Js/a and variance 1/a and the antisymmetric part A_ij is centered
normal with variance 1/b, all mutually independent.  Every catalog moment
then follows from Wick's theorem applied to

    <M_ii> = J0/Lambda          <M_ii M_ii>_c = 1/Lambda
    <M_ij> = 2 Js / a           <M_ij M_ij>_c = 1/a + 1/b
                                <M_ij M_ji>_c = 1/a - 1/b   (i != j)

with entries at unequal index pairs independent.  ``predict_moment``
sums these over the partial matchings of the edges of any catalog
invariant's multigraph (``invariants.CATALOG_GRAPHS``), so one Wick sum
gives all 19 expectations; seeded Monte Carlo sampling checks each of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .invariants import CATALOG_GRAPHS, EnsembleAverages, ensemble_averages, validate_tag
from .matrix_core import Ensemble, check_int, check_real


class NonGaussianAveragesError(ValueError):
    """Kinematically invalid averages: some implied variance is <= 0."""


#: Averages used to determine the five parameters.
FIT_TAGS = ("Md1", "Mo1", "Md2", "Mo21", "Mo22")

#: Higher moments predicted from a fitted model and compared to data.
HIGHER_TAGS = ("Md3", "Mo31", "Mo32", "Md4", "Mo41", "Mo42")

#: Ratio values from the original full-corpus study (2.8e9 tokens, 273
#: adjectives / 171 verbs).  Orientation only -- they are NOT reproducible
#: from desk-scale corpora and nothing in this package asserts them.
FULL_CORPUS_REFERENCE = {
    "adjectives": {
        "normalized_params": {"j0_over_D": 1.31e-2, "lambda_over_D2": 2.86e-3,
                              "js_over_D": 4.51e-4, "a_over_D2": 1.95e-3,
                              "b_over_D2": 2.01e-3},
        "theory_over_experiment": {"Md3": 0.57, "Md4": 0.33, "Mo31": 0.32,
                                   "Mo41": 0.47, "Mo32": 0.013, "Mo42": 0.0084},
    },
    "verbs": {
        "normalized_params": {"j0_over_D": 1.16e-3, "lambda_over_D2": 2.42e-3,
                              "js_over_D": 3.19e-4, "a_over_D2": 1.58e-3,
                              "b_over_D2": 1.62e-3},
        "theory_over_experiment": {"Md3": 0.54, "Md4": 0.30, "Mo31": 0.25,
                                   "Mo41": 0.48, "Mo32": 0.010, "Mo42": 0.006},
    },
    "note": "full-corpus reference values; not reproducible at desk scale",
}


@dataclass(frozen=True)
class GaussParams:
    """Model parameters (Lambda, a, b, J0, Js) at a fixed dimension."""

    dim: int
    lam: float
    a: float
    b: float
    j0: float
    js: float

    def __post_init__(self):
        if check_int("dim", self.dim) < 1:
            raise ValueError("dimension must be >= 1")
        for name in ("lam", "a", "b"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"parameter {name} must be positive and finite, got {v}")
        for name in ("j0", "js"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"parameter {name} must be finite")

    # first and second Wick data
    @property
    def mean_diag(self) -> float:
        return self.j0 / self.lam

    @property
    def var_diag(self) -> float:
        return 1.0 / self.lam

    @property
    def mean_off(self) -> float:
        return 2.0 * self.js / self.a

    @property
    def var_off_plus(self) -> float:
        """Connected <M_ij M_ij> for i != j."""
        return 1.0 / self.a + 1.0 / self.b

    @property
    def var_off_minus(self) -> float:
        """Connected <M_ij M_ji> for i != j."""
        return 1.0 / self.a - 1.0 / self.b

    def normalized(self) -> dict[str, float]:
        """The scale-free combinations used for dimension sweeps."""
        d = float(self.dim)
        return {
            "j0_over_D": self.j0 / d,
            "lambda_over_D2": self.lam / d ** 2,
            "js_over_D": self.js / d,
            "a_over_D2": self.a / d ** 2,
            "b_over_D2": self.b / d ** 2,
        }

    def to_json_dict(self) -> dict:
        return {"dim": self.dim, "lambda": self.lam, "a": self.a, "b": self.b,
                "j0": self.j0, "js": self.js, "normalized": self.normalized()}

    @classmethod
    def from_json_dict(cls, obj) -> "GaussParams":
        try:
            return cls(dim=obj["dim"], lam=check_real("lambda", obj["lambda"]),
                       a=check_real("a", obj["a"]), b=check_real("b", obj["b"]),
                       j0=check_real("j0", obj["j0"]), js=check_real("js", obj["js"]))
        except KeyError as exc:
            raise ValueError(f"params JSON missing key {exc}") from None

    @classmethod
    def from_normalized(cls, dim, j0_over_D, lambda_over_D2, js_over_D,
                        a_over_D2, b_over_D2) -> "GaussParams":
        d = float(dim)
        return cls(dim=dim, lam=lambda_over_D2 * d ** 2, a=a_over_D2 * d ** 2,
                   b=b_over_D2 * d ** 2, j0=j0_over_D * d, js=js_over_D * d)


def _edge_mean(params: GaussParams, e) -> float:
    return params.mean_diag if e[0] == e[1] else params.mean_off


def _edge_cov(params: GaussParams, e, f) -> float:
    """Connected <M_e M_f> of the entries at edges e and f."""
    if e == f:
        return params.var_diag if e[0] == e[1] else params.var_off_plus
    return params.var_off_minus if e == f[::-1] else 0.0


def _wick(params: GaussParams, edges, free=()) -> float:
    """E[product of the entries at ``edges``] times the means of the edges
    ``free``, by Isserlis' theorem: a sum over the partial matchings of the
    edges, in which a matched pair weighs its covariance and an unmatched
    edge its mean.  The k unmatched means of one vertex pair are one power
    mean**k, so a one-pair moment has the bits of its closed form (Md2 is
    mean**2 + var, and pow differs from a product in the last ulp)."""
    if not edges:
        pairs = [tuple(sorted(e)) for e in free]
        return math.prod((_edge_mean(params, p) ** pairs.count(p) for p in dict.fromkeys(pairs)),
                         start=1.0)
    e, rest = edges[0], edges[1:]
    total = _wick(params, rest, free + (e,))
    for k, f in enumerate(rest):
        cov = _edge_cov(params, e, f)
        if cov:
            total += cov * _wick(params, rest[:k] + rest[k + 1:], free)
    return total


def predict_moment(params: GaussParams, tag: str) -> float:
    """Model expectation of one catalog invariant, by Wick's theorem.

    Every injective assignment of the invariant's v graph vertices to
    basis indices has the same expectation, so the restricted sum is the
    falling factorial D^(v) times the Wick sum of one assignment over the
    edges of ``CATALOG_GRAPHS[tag]`` (`_wick`, with the means and
    covariances of the module docstring).  Dimensions too small for the
    graph give +0.0, the empty restricted sum (a zero falling factorial
    times a negative moment would give -0.0).
    """
    validate_tag(tag)
    g = CATALOG_GRAPHS[tag]
    if params.dim < g.vertex_count:
        return 0.0
    return math.perm(params.dim, g.vertex_count) * _wick(params, g.edges)


def fit(avgs: EnsembleAverages) -> GaussParams:
    """Determine the five parameters from the five fit averages.

    The five equations are triangular and invert in closed form; the
    returned parameters reproduce exactly the supplied Md1, Mo1, Md2,
    Mo21, Mo22 under predict_moment.  Averages whose implied variances
    are not strictly positive cannot come from the model and raise
    NonGaussianAveragesError.
    """
    dim = avgs.dim
    if dim < 2:
        raise ValueError("fitting needs dimension >= 2 (off-diagonal averages vanish at D=1)")
    missing = [t for t in FIT_TAGS if t not in avgs.values]
    if missing:
        raise ValueError(f"averages are missing fit tags: {', '.join(missing)}")

    d = float(dim)
    npairs = d * (d - 1.0)
    mu_d = avgs.values["Md1"] / d
    v_d = avgs.values["Md2"] / d - mu_d ** 2
    if v_d <= 0:
        raise NonGaussianAveragesError(
            f"implied diagonal variance Md2/D - (Md1/D)^2 = {v_d} is not positive"
        )
    mu_o = avgs.values["Mo1"] / npairs
    v_p = avgs.values["Mo21"] / npairs - mu_o ** 2
    v_m = avgs.values["Mo22"] / npairs - mu_o ** 2
    if v_p + v_m <= 0:
        raise NonGaussianAveragesError(
            f"implied 2/a = v_plus + v_minus = {v_p + v_m} is not positive"
        )
    if v_p - v_m <= 0:
        raise NonGaussianAveragesError(
            f"implied 2/b = v_plus - v_minus = {v_p - v_m} is not positive"
        )
    lam = 1.0 / v_d
    a = 2.0 / (v_p + v_m)
    b = 2.0 / (v_p - v_m)
    j0 = mu_d * lam
    js = mu_o * a / 2.0
    return GaussParams(dim=dim, lam=lam, a=a, b=b, j0=j0, js=js)


@dataclass(frozen=True)
class MomentRow:
    tag: str
    theory: float
    experiment: float
    ratio: float | None  # theory/experiment; None when experiment == 0

    def to_json_dict(self) -> dict:
        return {"tag": self.tag, "theory": self.theory,
                "experiment": self.experiment, "ratio": self.ratio,
                "ratio_defined": self.ratio is not None}


@dataclass(frozen=True, eq=False)
class MomentReport:
    """Theory/experiment comparison for the fit and higher invariants."""

    params: GaussParams
    dim: int
    count: int
    rows: tuple[MomentRow, ...]

    def row(self, tag: str) -> MomentRow:
        for r in self.rows:
            if r.tag == tag:
                return r
        raise KeyError(tag)

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "count": self.count,
            "params": self.params.to_json_dict(),
            "rows": [r.to_json_dict() for r in self.rows],
            "reference_full_corpus": FULL_CORPUS_REFERENCE,
        }

    def to_text(self) -> str:
        lines = [f"dimension {self.dim}, ensemble of {self.count} words",
                 "", f"{'invariant':<10}{'theory':>16}{'experiment':>16}{'thry/expt':>12}"]
        for r in self.rows:
            ratio = f"{r.ratio:.6g}" if r.ratio is not None else "undefined"
            lines.append(f"{r.tag:<10}{r.theory:>16.6g}{r.experiment:>16.6g}{ratio:>12}")
        lines.append("")
        lines.append("parameters (raw): " + ", ".join(
            f"{k}={v:.6g}" for k, v in
            [("lambda", self.params.lam), ("a", self.params.a), ("b", self.params.b),
             ("j0", self.params.j0), ("js", self.params.js)]))
        lines.append("parameters (normalized): " + ", ".join(
            f"{k}={v:.6g}" for k, v in self.params.normalized().items()))
        return "\n".join(lines) + "\n"


def averages_report(params: GaussParams, avgs: EnsembleAverages) -> MomentReport:
    """Compare the model against averages on the fit + higher invariants."""
    if params.dim != avgs.dim:
        raise ValueError(
            f"params dimension {params.dim} does not match ensemble dimension {avgs.dim}"
        )
    rows = []
    for tag in FIT_TAGS + HIGHER_TAGS:
        theory = predict_moment(params, tag)
        expt = avgs.values[tag]
        ratio = theory / expt if expt != 0.0 else None
        rows.append(MomentRow(tag=tag, theory=theory, experiment=expt, ratio=ratio))
    return MomentReport(params=params, dim=params.dim, count=avgs.count,
                        rows=tuple(rows))


def moment_report(params: GaussParams, ensemble: Ensemble) -> MomentReport:
    """`averages_report` on the ensemble's averages."""
    return averages_report(params, ensemble_averages(ensemble))


# ---------------------------------------------------------------------------
# general (per-index, per-pair) Gaussian: log partition function
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class GeneralGaussSpec:
    """Heterogeneous Gaussian: per-index Lambda_i, per-pair 2x2 quadratic
    forms (a_ij, b_ij, c_ij) with positive determinant, and a full source
    matrix J.  Evaluation only; fitting stays with the 5-parameter model.
    """

    lambdas: np.ndarray      # (D,)  diagonal quadratic coefficients
    a: np.ndarray            # (D,D) used at i < j
    b: np.ndarray            # (D,D) used at i < j
    c: np.ndarray            # (D,D) used at i < j
    source: np.ndarray       # (D,D) J_ij

    def __post_init__(self):
        lam = np.array(self.lambdas, dtype=np.float64)
        a = np.array(self.a, dtype=np.float64)
        b = np.array(self.b, dtype=np.float64)
        c = np.array(self.c, dtype=np.float64)
        j = np.array(self.source, dtype=np.float64)
        d = lam.size
        if lam.ndim != 1 or d < 1:
            raise ValueError("lambdas must be a 1-d array")
        for name, arr in (("a", a), ("b", b), ("c", c), ("source", j)):
            if arr.shape != (d, d):
                raise ValueError(f"{name} must have shape ({d},{d}), got {arr.shape}")
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} has non-finite entries")
        if not (np.isfinite(lam).all() and (lam > 0).all()):
            raise ValueError("all diagonal coefficients Lambda_i must be positive")
        iu, ju = np.triu_indices(d, k=1)
        det = a[iu, ju] * b[iu, ju] - c[iu, ju] ** 2
        if d > 1 and not (det > 0).all():
            raise ValueError("every pair form must satisfy a*b - c^2 > 0")
        for name, arr in (("lambdas", lam), ("a", a), ("b", b), ("c", c), ("source", j)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def dim(self) -> int:
        return self.lambdas.size

    @classmethod
    def from_params(cls, params: GaussParams, source: np.ndarray) -> "GeneralGaussSpec":
        """Uniform spec with the 5-parameter model's quadratic form (c = 0)
        and the (D, D) source matrix ``source``."""
        d = params.dim
        return cls(lambdas=np.full(d, params.lam),
                   a=np.full((d, d), params.a),
                   b=np.full((d, d), params.b),
                   c=np.zeros((d, d)),
                   source=source)


def log_partition(spec: GeneralGaussSpec) -> float:
    """log Z for the general Gaussian measure.

    Each diagonal variable integrates to sqrt(2 pi / Lambda_i) times
    exp(J_ii^2 / (2 Lambda_i)); each pair {i, j} contributes a 2-variable
    Gaussian in (S_ij, A_ij) whose sources are twice the symmetric and
    antisymmetric parts of J.
    """
    d = spec.dim
    lam = spec.lambdas
    j = spec.source
    jd = np.diag(j)
    total = 0.5 * d * d * math.log(2.0 * math.pi)
    total -= 0.5 * float(np.log(lam).sum())
    total += 0.5 * float((jd * jd / lam).sum())
    if d > 1:
        iu, ju = np.triu_indices(d, k=1)
        a = spec.a[iu, ju]
        b = spec.b[iu, ju]
        c = spec.c[iu, ju]
        det = a * b - c * c
        jsym = 0.5 * (j[iu, ju] + j[ju, iu])
        janti = 0.5 * (j[iu, ju] - j[ju, iu])
        total -= 0.5 * float(np.log(det).sum())
        total += float(((2.0 / det) * (b * jsym ** 2 + a * janti ** 2
                                       - 2.0 * c * janti * jsym)).sum())
    return total
