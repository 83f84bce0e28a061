"""Learning a word matrix from (noun vector, compound vector) pairs by
ridge-regularized least squares, via gradient descent or the closed form.

The objective for a word with m argument rows is

    (1 / 2m) * (||M X^T - Y^T||_F^2 + lambda * ||M||_F^2)

whose unique minimizer (for lambda > 0, or full-column-rank X at
lambda = 0) solves M (X^T X + lambda I) = Y^T X.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .matrix_core import WordMatrix, check_int, check_seed, values_of


class SingularSystemError(ValueError):
    """X^T X is singular at lambda = 0; use a positive ridge coefficient."""


class DivergenceError(RuntimeError):
    """Gradient descent diverged; use a smaller learning rate."""


DEFAULT_LAMBDA_GRID = (0.01, 0.1, 1.0)


@dataclass(frozen=True, eq=False)
class TrainingSet:
    """Rows of X are argument-noun vectors, rows of Y the compound vectors."""

    label: str
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.array(self.x, dtype=np.float64)
        y = np.array(self.y, dtype=np.float64)
        if x.ndim != 2 or y.ndim != 2:
            raise ValueError("X and Y must be 2-d arrays")
        if x.shape != y.shape:
            raise ValueError(f"X and Y must have equal shape, got {x.shape} vs {y.shape}")
        if x.shape[0] < 1:
            raise ValueError("training set needs at least one row")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError("training data must be finite")
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def rows(self) -> int:
        return self.x.shape[0]

    @property
    def dim(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class RegressionConfig:
    ridge_lambda: float | None = None   # None -> grid search with holdout
    learning_rate: float = 0.01
    max_epochs: int = 5000
    convergence_tol: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        for name in ("ridge_lambda", "learning_rate", "convergence_tol"):
            value = getattr(self, name)
            if value is None and name == "ridge_lambda":
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a number, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, float(value))
        check_int("max_epochs", self.max_epochs)
        check_seed(self.seed)
        if self.ridge_lambda is not None and self.ridge_lambda < 0:
            raise ValueError("ridge coefficient must be >= 0")
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if self.convergence_tol <= 0:
            raise ValueError("convergence tolerance must be positive")


def loss(m, ts: TrainingSet, ridge_lambda: float) -> float:
    """(1/2m)(||M X^T - Y^T||^2 + lambda ||M||^2), Frobenius norms."""
    values = values_of(m)
    if values.shape != (ts.dim, ts.dim):
        raise ValueError(f"matrix shape {values.shape} does not fit data dimension {ts.dim}")
    resid = values @ ts.x.T - ts.y.T
    return float((np.sum(resid * resid) + ridge_lambda * np.sum(values * values))
                 / (2.0 * ts.rows))


def gradient(m, ts: TrainingSet, ridge_lambda: float) -> np.ndarray:
    """(1/m)((M X^T - Y^T) X + lambda M)."""
    values = values_of(m)
    resid = values @ ts.x.T - ts.y.T
    return (resid @ ts.x + ridge_lambda * values) / ts.rows


def fit_closed_form(ts: TrainingSet, ridge_lambda: float) -> WordMatrix:
    """The exact minimizer of the ridge objective.

    At lambda = 0 this is ordinary least squares and needs X of full
    column rank; otherwise SingularSystemError suggests lambda > 0.
    """
    if ridge_lambda < 0:
        raise ValueError("ridge coefficient must be >= 0")
    d = ts.dim
    gram = ts.x.T @ ts.x
    if ridge_lambda == 0.0:
        if np.linalg.matrix_rank(ts.x) < d:
            raise SingularSystemError(
                f"X^T X is singular for {ts.label!r} (rank < {d}); "
                "set a ridge coefficient lambda > 0"
            )
    else:
        gram = gram + ridge_lambda * np.eye(d)
    try:
        mt = np.linalg.solve(gram, ts.x.T @ ts.y)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(
            f"normal equations for {ts.label!r} are singular ({exc}); "
            "set a ridge coefficient lambda > 0"
        ) from None
    return WordMatrix(ts.label, mt.T)


def _descend(ts: TrainingSet, ridge_lambda: float, cfg: RegressionConfig):
    d = ts.dim
    m = np.zeros((d, d))  # zero init: deterministic, objective is convex
    prev = loss(m, ts, ridge_lambda)
    increases = 0
    epoch = 0
    for epoch in range(1, cfg.max_epochs + 1):
        m -= cfg.learning_rate * gradient(m, ts, ridge_lambda)
        cur = loss(m, ts, ridge_lambda)
        if cur > prev:
            increases += 1
            if increases >= 10:
                raise DivergenceError(
                    f"loss for {ts.label!r} increased over 10 consecutive epochs "
                    f"(epoch {epoch}); use a smaller learning rate than {cfg.learning_rate}"
                )
        else:
            increases = 0
        denom = prev if prev > 0 else 1.0
        if abs(prev - cur) / denom < cfg.convergence_tol:
            prev = cur
            break
        prev = cur
    return m, epoch, prev


def fit_gradient_descent(ts: TrainingSet, cfg: RegressionConfig) -> WordMatrix:
    """Gradient descent from zero initialization on the ridge objective."""
    return fit_logged(ts, cfg, "gradient_descent")[0]


def fit_logged(ts: TrainingSet, cfg: RegressionConfig, method: str):
    """The matrix of ``method`` ("closed_form" or "gradient_descent") at
    the resolved ridge coefficient, and its training-log dict."""
    if method not in ("closed_form", "gradient_descent"):
        raise ValueError(f"unknown regression method {method!r}")
    lam = resolve_lambda(ts, cfg)
    if method == "gradient_descent":
        values, epochs, final = _descend(ts, lam, cfg)
        m = WordMatrix(ts.label, values)
    else:
        m, epochs = fit_closed_form(ts, lam), 0
        final = loss(m, ts, lam)
    return m, {"method": method, "lambda": lam, "epochs": epochs, "final_loss": final}


def resolve_lambda(ts: TrainingSet, cfg: RegressionConfig) -> float:
    """The configured ridge coefficient, or a holdout grid choice.

    When no coefficient is supplied, the rows are split 80/20 with the
    config seed, the closed form is fit on the training part for each
    grid value, and the value with the smallest validation prediction
    error wins (ties go to the smaller lambda).
    """
    if cfg.ridge_lambda is not None:
        return cfg.ridge_lambda
    if ts.rows < 5:
        return DEFAULT_LAMBDA_GRID[len(DEFAULT_LAMBDA_GRID) // 2]
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    order = rng.permutation(ts.rows)
    n_val = max(1, ts.rows // 5)
    val_idx = order[:n_val]
    train_idx = order[n_val:]
    train = TrainingSet(ts.label, ts.x[train_idx], ts.y[train_idx])
    x_val = ts.x[val_idx]
    y_val = ts.y[val_idx]
    best = None
    for lam in DEFAULT_LAMBDA_GRID:
        m = fit_closed_form(train, lam)
        resid = m.values @ x_val.T - y_val.T
        err = float(np.sum(resid * resid))
        if best is None or err < best[0]:
            best = (err, lam)
    return best[1]
