import numpy as np
import pytest

from lingmat.matrix_core import WordMatrix
from lingmat.regression import (
    DivergenceError,
    RegressionConfig,
    SingularSystemError,
    TrainingSet,
    fit_closed_form,
    fit_gradient_descent,
    gradient,
    loss,
    resolve_lambda,
)

from oracles import central_difference_gradient


def make_ts(rng, m=20, d=5, label="w"):
    x = rng.normal(size=(m, d))
    y = rng.normal(size=(m, d))
    return TrainingSet(label, x, y)


class TestTrainingSet:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="equal shape"):
            TrainingSet("w", np.zeros((3, 2)), np.zeros((2, 2)))

    def test_non_finite(self):
        x = np.zeros((2, 2))
        y = np.zeros((2, 2))
        y[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            TrainingSet("w", x, y)


class TestLoss:
    def test_zero_on_zero_problem(self):
        ts = TrainingSet("w", np.ones((3, 2)), np.zeros((3, 2)))
        assert loss(np.zeros((2, 2)), ts, 0.0) == 0.0

    def test_identity_exact_fit(self):
        rng = np.random.default_rng(50)
        x = rng.normal(size=(6, 4))
        ts = TrainingSet("w", x, x)
        assert loss(np.eye(4), ts, 0.0) == pytest.approx(0.0, abs=1e-16)

    def test_hand_case_2x2(self):
        # M = [[1,0],[0,2]], one row x=(1,2), y=(0,1), lambda=3
        # residual = Mx - y = (1, 3); loss = (1+9 + 3*(1+4)) / 2 = 12.5
        ts = TrainingSet("w", np.array([[1.0, 2.0]]), np.array([[0.0, 1.0]]))
        m = np.array([[1.0, 0.0], [0.0, 2.0]])
        assert loss(m, ts, 3.0) == pytest.approx(12.5)


class TestClosedForm:
    def test_identity_recovered(self):
        rng = np.random.default_rng(51)
        x = rng.normal(size=(12, 5))
        ts = TrainingSet("w", x, x)
        m = fit_closed_form(ts, 0.0)
        np.testing.assert_allclose(m.values, np.eye(5), atol=1e-10)

    def test_ridge_shrinks_monotonically(self):
        rng = np.random.default_rng(52)
        ts = make_ts(rng)
        norms = [np.linalg.norm(fit_closed_form(ts, lam).values)
                 for lam in (1.0, 10.0, 100.0)]
        assert norms[0] > norms[1] > norms[2]
        assert np.linalg.norm(fit_closed_form(ts, 1e7).values) < 1e-3

    def test_minimizer_beats_perturbations(self):
        rng = np.random.default_rng(53)
        ts = make_ts(rng, m=20, d=5)
        lam = 0.5
        best = fit_closed_form(ts, lam)
        base = loss(best, ts, lam)
        for _ in range(100):
            noise = rng.normal(scale=rng.uniform(1e-4, 1.0), size=(5, 5))
            assert loss(best.values + noise, ts, lam) >= base

    def test_singular_at_zero_lambda(self):
        rng = np.random.default_rng(54)
        ts = make_ts(rng, m=3, d=5)  # rank 3 < 5
        with pytest.raises(SingularSystemError, match="lambda > 0"):
            fit_closed_form(ts, 0.0)

    def test_keeps_label(self):
        rng = np.random.default_rng(55)
        assert fit_closed_form(make_ts(rng, label="blue"), 1.0).label == "blue"


class TestGradientDescent:
    def test_exact_fit_converges(self):
        rng = np.random.default_rng(56)
        x = rng.normal(size=(12, 4))
        ts = TrainingSet("w", x, x)
        cfg = RegressionConfig(ridge_lambda=0.0, learning_rate=0.05,
                               max_epochs=5000, convergence_tol=1e-12)
        m = fit_gradient_descent(ts, cfg)
        assert loss(m, ts, 0.0) < 1e-8

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(57)
        ts = make_ts(rng, m=8, d=4)
        lam = 0.7
        for _ in range(10):
            point = rng.normal(size=(4, 4))
            analytic = gradient(point, ts, lam)
            numeric = central_difference_gradient(
                lambda m: loss(m, ts, lam), point.copy(), 1e-5)
            err = np.abs(analytic - numeric).max() / max(1.0, np.abs(numeric).max())
            assert err < 1e-5

    def test_planted_solution_recovery(self):
        rng = np.random.default_rng(58)
        d, m = 6, 40
        truth = rng.normal(size=(d, d))
        x = rng.normal(size=(m, d))
        noise = 1e-3 * rng.normal(size=(m, d))
        y = x @ truth.T + noise
        ts = TrainingSet("w", x, y)
        cfg = RegressionConfig(ridge_lambda=0.0, learning_rate=0.02,
                               max_epochs=20000, convergence_tol=1e-14)
        got = fit_gradient_descent(ts, cfg)
        assert np.linalg.norm(got.values - truth) < 10 * np.linalg.norm(noise)

    def test_close_to_closed_form(self):
        rng = np.random.default_rng(59)
        ts = make_ts(rng, m=25, d=5)
        lam = 0.3
        cfg = RegressionConfig(ridge_lambda=lam, learning_rate=0.02,
                               max_epochs=50000, convergence_tol=1e-14)
        gd = fit_gradient_descent(ts, cfg)
        cf = fit_closed_form(ts, lam)
        assert loss(gd, ts, lam) <= loss(cf, ts, lam) * (1 + 1e-4)

    def test_divergence_raises(self):
        rng = np.random.default_rng(60)
        ts = make_ts(rng, m=30, d=5)
        cfg = RegressionConfig(ridge_lambda=0.0, learning_rate=50.0,
                               max_epochs=1000, convergence_tol=1e-12)
        with pytest.raises(DivergenceError, match="smaller learning rate"):
            fit_gradient_descent(ts, cfg)

    def test_loss_non_increasing_at_default_rate(self):
        rng = np.random.default_rng(61)
        ts = make_ts(rng, m=15, d=4)
        cfg = RegressionConfig(ridge_lambda=0.1)
        m = np.zeros((4, 4))
        prev = loss(m, ts, 0.1)
        for _ in range(200):
            m = m - cfg.learning_rate * gradient(m, ts, 0.1)
            cur = loss(m, ts, 0.1)
            assert cur <= prev + 1e-12
            prev = cur


class TestPermutationEquivariance:
    def test_relabeling_conjugates_solution(self):
        rng = np.random.default_rng(62)
        d, m = 5, 30
        x = rng.normal(size=(m, d))
        y = rng.normal(size=(m, d))
        sigma = rng.permutation(d)
        m0 = fit_closed_form(TrainingSet("w", x, y), 0.5).values
        m1 = fit_closed_form(TrainingSet("w", x[:, sigma], y[:, sigma]), 0.5).values
        np.testing.assert_allclose(m1, m0[np.ix_(sigma, sigma)], atol=1e-10)


class TestLambdaSelection:
    def test_explicit_value_wins(self):
        rng = np.random.default_rng(63)
        ts = make_ts(rng)
        assert resolve_lambda(ts, RegressionConfig(ridge_lambda=7.5)) == 7.5

    def test_grid_choice_deterministic(self):
        rng = np.random.default_rng(64)
        ts = make_ts(rng, m=40, d=6)
        cfg = RegressionConfig(ridge_lambda=None, seed=3)
        lam1 = resolve_lambda(ts, cfg)
        lam2 = resolve_lambda(ts, cfg)
        assert lam1 == lam2
        assert lam1 in (0.01, 0.1, 1.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RegressionConfig(ridge_lambda=-1.0)
        with pytest.raises(ValueError):
            RegressionConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            RegressionConfig(convergence_tol=0.0)

    @pytest.mark.parametrize("field", ["ridge_lambda", "learning_rate", "convergence_tol"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_value_names_its_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            RegressionConfig(**{field: value})


class TestWordMatrixIntegration:
    def test_loss_accepts_word_matrix(self):
        rng = np.random.default_rng(65)
        ts = make_ts(rng, d=3)
        m = WordMatrix("w", rng.normal(size=(3, 3)))
        assert loss(m, ts, 0.5) == loss(m.values, ts, 0.5)
