"""Churn: Poisson arrivals, Pareto session durations, time-to-stay.

Session durations are heavy tailed. The Pareto parameters default to a
two-quantile calibration: 60% of sessions shorter than 1 minute and 90%
shorter than 10 minutes, which has the closed-form solution implemented
by calibrate_pareto. The time-to-stay estimator is the fitted quadratic
that predicts remaining minutes online from minutes already spent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class CalibrationError(ValueError):
    """Raised when quantile targets admit no valid Pareto fit."""


def calibrate_pareto(q1: tuple[float, float] = (1.0, 0.60),
                     q2: tuple[float, float] = (10.0, 0.90)) -> tuple[float, float]:
    """Solve Pareto(x_m, a) from two CDF constraints; returns (x_m, a).

    Each q is (t, p) requiring CDF(t) = 1 - (x_m / t)^a = p, with t in
    minutes. Two constraints pin both parameters:

        a   = ln((1 - p1) / (1 - p2)) / ln(t2 / t1)
        x_m = t1 * (1 - p1)^(1/a)
    """
    t1, p1 = q1
    t2, p2 = q2
    if not (0.0 < t1 < t2):
        raise CalibrationError(f"quantile times must satisfy 0 < t1 < t2, got {t1}, {t2}")
    if not (0.0 < p1 < p2 < 1.0):
        raise CalibrationError(f"quantile levels must satisfy 0 < p1 < p2 < 1, got {p1}, {p2}")
    a = math.log((1.0 - p1) / (1.0 - p2)) / math.log(t2 / t1)
    x_m = t1 * (1.0 - p1) ** (1.0 / a)
    if not (a > 0.0 and x_m > 0.0):
        raise CalibrationError(f"calibration produced invalid parameters x_m={x_m}, a={a}")
    return x_m, a


# Parameters from the standard session quantiles, computed once.
DEFAULT_PARETO_SCALE_MIN, DEFAULT_PARETO_SHAPE = calibrate_pareto()
DEFAULT_ARRIVALS_PER_MIN = 30.0   # the reference arrival rate


@dataclass(frozen=True)
class SessionModel:
    """Arrival rate (per minute) plus Pareto session parameters (minutes)."""

    lambda_per_min: float = DEFAULT_ARRIVALS_PER_MIN
    pareto_shape: float = DEFAULT_PARETO_SHAPE
    pareto_scale_min: float = DEFAULT_PARETO_SCALE_MIN

    def __post_init__(self):
        if self.lambda_per_min <= 0:
            raise ValueError("lambda_per_min must be positive")
        if self.pareto_shape <= 0:
            raise ValueError("pareto_shape must be positive")
        if self.pareto_scale_min <= 0:
            raise ValueError("pareto_scale_min must be positive")


def sample_interarrival(model: SessionModel, rng: np.random.Generator, size=None):
    """Exponential gaps between consecutive arrivals, in seconds."""
    return rng.exponential(60.0 / model.lambda_per_min, size=size)

def sample_session_duration(model: SessionModel, rng: np.random.Generator, size=None):
    """Pareto-distributed session lengths, in seconds."""
    return 60.0 * model.pareto_scale_min * (1.0 + rng.pareto(model.pareto_shape, size=size))

def sample_sessions(model: SessionModel, rng: np.random.Generator,
                    n: int) -> tuple[np.ndarray, np.ndarray]:
    """Join times (Poisson arrivals from 0) and durations of n sessions,
    in seconds: the n gaps are drawn first, then the n durations."""
    joins = sample_interarrival(model, rng, size=n).cumsum()
    return joins, sample_session_duration(model, rng, size=n)


@dataclass(frozen=True)
class TimeToStayModel:
    """Quadratic estimator of remaining minutes from elapsed minutes.

    The fit is only trusted up to valid_elapse_max minutes; larger inputs
    are clamped there, which keeps the estimate short of the quadratic's
    downturn.
    """

    c2: float = -0.0076
    c1: float = 0.97
    c0: float = 3.5
    valid_elapse_max: float = 60.0


def estimate_time_to_stay(model: TimeToStayModel, elapse_min):
    """Predicted remaining minutes online after elapse_min minutes, for a float
    or a float64 column, whose entries take the float's operations in order."""
    if np.any(np.less(elapse_min, 0)):
        raise ValueError(f"elapse_min must be non-negative, got {np.min(elapse_min)}")
    x = np.minimum(elapse_min, model.valid_elapse_max)
    return model.c2 * x * x + model.c1 * x + model.c0
