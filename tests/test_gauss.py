import math

import numpy as np
import pytest

from lingmat.gauss import (
    FIT_TAGS,
    HIGHER_TAGS,
    GaussParams,
    GeneralGaussSpec,
    NonGaussianAveragesError,
    fit,
    log_partition,
    moment_report,
    predict_all,
    predict_moment,
)
from lingmat.invariants import CATALOG, CATALOG_GRAPHS, EnsembleAverages, ensemble_averages
from lingmat.sampler import SampleSpec, sample

from oracles import close, closed_form_moment


def random_params(rng, dim=30):
    return GaussParams(
        dim=dim,
        lam=float(rng.uniform(0.2, 5.0)),
        a=float(rng.uniform(0.2, 5.0)),
        b=float(rng.uniform(0.2, 5.0)),
        j0=float(rng.uniform(-2.0, 2.0)),
        js=float(rng.uniform(-2.0, 2.0)),
    )


class TestGaussParams:
    def test_requires_positive_quadratic_coefficients(self):
        for bad in ({"lam": 0.0}, {"a": -1.0}, {"b": 0.0}):
            kwargs = dict(dim=4, lam=1.0, a=1.0, b=1.0, j0=0.0, js=0.0)
            kwargs.update(bad)
            with pytest.raises(ValueError, match="positive"):
                GaussParams(**kwargs)

    def test_normalized_forms(self):
        p = GaussParams(dim=10, lam=200.0, a=100.0, b=50.0, j0=5.0, js=1.0)
        n = p.normalized()
        assert n["lambda_over_D2"] == pytest.approx(2.0)
        assert n["j0_over_D"] == pytest.approx(0.5)
        back = GaussParams.from_normalized(10, **{
            "j0_over_D": n["j0_over_D"], "lambda_over_D2": n["lambda_over_D2"],
            "js_over_D": n["js_over_D"], "a_over_D2": n["a_over_D2"],
            "b_over_D2": n["b_over_D2"]})
        assert back == p

    def test_json_roundtrip(self):
        p = GaussParams(dim=7, lam=1.5, a=2.5, b=3.5, j0=-0.5, js=0.25)
        assert GaussParams.from_json_dict(p.to_json_dict()) == p


class TestPredictMoment:
    def test_zero_source_kills_odd_cycles(self):
        p = GaussParams(dim=12, lam=2.0, a=3.0, b=4.0, j0=1.0, js=0.0)
        assert predict_moment(p, "Mo32") == 0.0
        assert predict_moment(p, "Mo42") == 0.0
        assert predict_moment(p, "Mo1") == 0.0

    def test_published_parameter_goldens(self):
        # Normalized parameters reported for the adjective ensemble in the
        # full-corpus study, evaluated at D = 2000; values frozen from a
        # direct evaluation of the closed-form moments.
        p = GaussParams.from_normalized(
            2000, j0_over_D=1.31e-2, lambda_over_D2=2.86e-3,
            js_over_D=4.51e-4, a_over_D2=1.95e-3, b_over_D2=2.01e-3)
        golden = {
            "Md3": 0.0012251835604490382,
            "Mo31": 0.7007145857316,
            "Mo32": 0.09882437245717614,
            "Md4": 5.1402596071531984e-05,
            "Mo41": 0.7655208275709882,
            "Mo42": 0.045644038246378624,
        }
        for tag, want in golden.items():
            assert predict_moment(p, tag) == pytest.approx(want, rel=1e-12)

    def test_small_dimension_vacuous_moments(self):
        p = GaussParams(dim=3, lam=1.0, a=1.0, b=1.0, j0=1.0, js=1.0)
        assert predict_moment(p, "Qdisc") == 0.0
        assert predict_moment(p, "Mo42") == 0.0
        p1 = GaussParams(dim=1, lam=1.0, a=1.0, b=1.0, j0=1.0, js=1.0)
        assert predict_moment(p1, "Mo1") == 0.0

    def test_scaling_property(self):
        # M -> s*M corresponds to (lam,a,b) -> /s^2 and (j0,js) -> /s;
        # a degree-n moment then scales by s^n.
        rng = np.random.default_rng(40)
        p = random_params(rng, dim=9)
        s = 1.7
        q = GaussParams(dim=9, lam=p.lam / s ** 2, a=p.a / s ** 2,
                        b=p.b / s ** 2, j0=p.j0 / s, js=p.js / s)
        for tag in CATALOG:
            want = predict_moment(p, tag) * s ** CATALOG_GRAPHS[tag].degree
            assert close(predict_moment(q, tag), want, 1e-12), tag

    def test_wick_evaluator_matches_closed_forms(self):
        rng = np.random.default_rng(43)
        for _ in range(1000):
            p = GaussParams(dim=int(rng.integers(1, 61)),
                            lam=float(rng.uniform(0.05, 20.0)),
                            a=float(rng.uniform(0.05, 20.0)),
                            b=float(rng.uniform(0.05, 20.0)),
                            j0=float(rng.uniform(-5.0, 5.0)),
                            js=float(rng.uniform(-5.0, 5.0)))
            for tag in CATALOG:
                got = predict_moment(p, tag)
                want = closed_form_moment(p, tag)
                assert abs(got - want) <= 1e-12 * abs(want), (tag, p)
                if p.dim < CATALOG_GRAPHS[tag].vertex_count:
                    assert got == 0.0, (tag, p)

    def test_too_small_dimension_gives_positive_zero(self):
        # a negative one-assignment moment times the zero falling factorial
        p = GaussParams(dim=2, lam=1.0, a=1.0, b=1.0, j0=1.0, js=-1.0)
        for tag in CATALOG:
            if p.dim < CATALOG_GRAPHS[tag].vertex_count:
                got = predict_moment(p, tag)
                assert got == 0.0 and math.copysign(1.0, got) == 1.0, tag

    def test_symmetric_limit_mo22_connected_part_vanishes(self):
        p = GaussParams(dim=8, lam=1.0, a=2.0, b=2.0, j0=0.3, js=0.4)
        mean_part = p.dim * (p.dim - 1) * p.mean_off ** 2
        assert predict_moment(p, "Mo22") == pytest.approx(mean_part)


class TestFit:
    def test_roundtrip_identity(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            p = random_params(rng, dim=int(rng.integers(2, 40)))
            avgs = EnsembleAverages(
                dim=p.dim, count=1,
                values={t: predict_moment(p, t) for t in FIT_TAGS})
            q = fit(avgs)
            for name in ("lam", "a", "b", "j0", "js"):
                assert close(getattr(q, name), getattr(p, name), 1e-9), name

    def test_forward_consistency(self):
        rng = np.random.default_rng(42)
        p = random_params(rng, dim=15)
        avgs = EnsembleAverages(dim=15, count=1,
                                values={t: predict_moment(p, t) for t in FIT_TAGS})
        q = fit(avgs)
        for t in FIT_TAGS:
            assert close(predict_moment(q, t), avgs.values[t], 1e-9)

    def test_zero_diagonal_variance_rejected(self):
        d = 6
        vals = {"Md1": 3.0 * d, "Md2": 9.0 * d, "Mo1": 0.0,
                "Mo21": 2.0 * d * (d - 1), "Mo22": 1.0 * d * (d - 1)}
        with pytest.raises(NonGaussianAveragesError, match="diagonal variance"):
            fit(EnsembleAverages(dim=d, count=1, values=vals))

    def test_nonpositive_a_rejected(self):
        d = 6
        vals = {"Md1": 0.0, "Md2": 1.0 * d, "Mo1": 0.0,
                "Mo21": -1.0 * d * (d - 1), "Mo22": -1.0 * d * (d - 1)}
        with pytest.raises(NonGaussianAveragesError, match="v_plus \\+ v_minus"):
            fit(EnsembleAverages(dim=d, count=1, values=vals))

    def test_nonpositive_b_rejected(self):
        d = 6
        vals = {"Md1": 0.0, "Md2": 1.0 * d, "Mo1": 0.0,
                "Mo21": 1.0 * d * (d - 1), "Mo22": 2.0 * d * (d - 1)}
        with pytest.raises(NonGaussianAveragesError, match="v_plus - v_minus"):
            fit(EnsembleAverages(dim=d, count=1, values=vals))

    def test_missing_tags(self):
        with pytest.raises(ValueError, match="missing fit tags"):
            fit(EnsembleAverages(dim=5, count=1, values={"Md1": 1.0}))


class TestMomentReport:
    def test_fit_rows_have_unit_ratio(self):
        rng = np.random.default_rng(43)
        p0 = random_params(rng, dim=12)
        ens = sample(SampleSpec(params=p0, count=50, seed=99))
        avgs = ensemble_averages(ens, FIT_TAGS)
        p = fit(avgs)
        report = moment_report(p, ens)
        for t in FIT_TAGS:
            assert abs(report.row(t).ratio - 1.0) < 1e-6, t
        assert {r.tag for r in report.rows} == set(FIT_TAGS) | set(HIGHER_TAGS)

    def test_zero_experiment_flagged(self):
        from lingmat.matrix_core import Ensemble

        m = np.zeros((1, 5, 5))
        np.fill_diagonal(m[0], [1.0, -1.0, 1.0, -1.0, 0.0])
        ens = Ensemble(["w"], m)
        p = GaussParams(dim=5, lam=1.0, a=1.0, b=1.0, j0=0.5, js=0.5)
        report = moment_report(p, ens)
        row = report.row("Mo31")  # off-diagonal cube of the zero off-diagonals
        assert row.experiment == 0.0 and row.ratio is None

    def test_text_rendering(self):
        rng = np.random.default_rng(44)
        p = random_params(rng, dim=8)
        ens = sample(SampleSpec(params=p, count=10, seed=5))
        text = moment_report(p, ens).to_text()
        assert "invariant" in text and "Md3" in text and "normalized" in text


class TestLogPartition:
    def test_unit_gaussian_normalization(self):
        for d in (1, 2, 3, 5):
            spec = GeneralGaussSpec(
                lambdas=np.ones(d), a=np.ones((d, d)), b=np.ones((d, d)),
                c=np.zeros((d, d)), source=np.zeros((d, d)))
            want = 0.5 * d * d * math.log(2.0 * math.pi)
            assert log_partition(spec) == pytest.approx(want, rel=1e-12)

    def test_one_dimensional_hand_value(self):
        spec = GeneralGaussSpec(lambdas=[2.0], a=[[1.0]], b=[[1.0]],
                                c=[[0.0]], source=[[3.0]])
        want = 0.5 * math.log(2.0 * math.pi) - 0.5 * math.log(2.0) + 9.0 / 4.0
        assert log_partition(spec) == pytest.approx(want, rel=1e-12)

    def _fd_source_derivative(self, params, i, j, step=1e-5):
        def at(delta):
            src = np.full((params.dim, params.dim), params.js)
            np.fill_diagonal(src, params.j0)
            src[i, j] += delta
            return log_partition(GeneralGaussSpec.from_params(params, src))

        return (at(step) - at(-step)) / (2.0 * step)

    def test_first_derivatives_reproduce_means(self):
        rng = np.random.default_rng(45)
        p = random_params(rng, dim=5)
        assert self._fd_source_derivative(p, 2, 2) == pytest.approx(
            p.mean_diag, rel=1e-6, abs=1e-6)
        assert self._fd_source_derivative(p, 1, 3) == pytest.approx(
            p.mean_off, rel=1e-6, abs=1e-6)

    def test_second_derivatives_reproduce_connected_correlators(self):
        p = GaussParams(dim=4, lam=1.7, a=0.9, b=2.3, j0=0.4, js=-0.3)
        step = 1e-3

        def logz(src):
            return log_partition(GeneralGaussSpec.from_params(p, src))

        base = np.full((4, 4), p.js)
        np.fill_diagonal(base, p.j0)

        def second(i1, j1, i2, j2):
            out = 0.0
            for s1 in (step, -step):
                for s2 in (step, -step):
                    src = base.copy()
                    src[i1, j1] += s1
                    src[i2, j2] += s2
                    out += np.sign(s1) * np.sign(s2) * logz(src)
            return out / (4.0 * step * step)

        assert second(0, 0, 0, 0) == pytest.approx(p.var_diag, rel=1e-5)
        assert second(0, 1, 0, 1) == pytest.approx(p.var_off_plus, rel=1e-5)
        assert second(0, 1, 1, 0) == pytest.approx(p.var_off_minus, rel=1e-5, abs=1e-5)

    def test_positivity_validation(self):
        with pytest.raises(ValueError, match="positive"):
            GeneralGaussSpec(lambdas=[-1.0], a=[[1.0]], b=[[1.0]],
                             c=[[0.0]], source=[[0.0]])
        with pytest.raises(ValueError, match="a\\*b - c\\^2"):
            GeneralGaussSpec(lambdas=np.ones(2), a=np.ones((2, 2)),
                             b=np.ones((2, 2)), c=np.full((2, 2), 1.5),
                             source=np.zeros((2, 2)))

    def test_heterogeneous_spec_accepted(self):
        rng = np.random.default_rng(46)
        d = 4
        lam = rng.uniform(0.5, 2.0, size=d)
        a = rng.uniform(1.0, 2.0, size=(d, d))
        b = rng.uniform(1.0, 2.0, size=(d, d))
        c = rng.uniform(-0.3, 0.3, size=(d, d))
        spec = GeneralGaussSpec(lambdas=lam, a=a, b=b, c=c,
                                source=rng.normal(size=(d, d)))
        assert math.isfinite(log_partition(spec))


def test_predict_all_covers_catalog():
    p = GaussParams(dim=6, lam=1.0, a=1.0, b=1.0, j0=0.1, js=0.1)
    out = predict_all(p)
    assert set(out) == set(CATALOG)
