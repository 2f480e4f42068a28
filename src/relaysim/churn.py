"""Churn: Poisson arrivals, Pareto session durations, time-to-stay.

Session durations are heavy tailed. The Pareto parameters default to a
two-quantile calibration: 60% of sessions shorter than 1 minute and 90%
shorter than 10 minutes, which has the closed-form solution implemented
by calibrate_pareto. The time-to-stay estimator is the fitted quadratic
that predicts remaining minutes online from minutes already spent. The
samplers and the estimator read their parameters from a SimConfig, which
config_errors checks once where it enters a run.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from relaysim.model import SimConfig


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


def sample_interarrival(cfg: SimConfig, rng: np.random.Generator, size=None):
    """Exponential gaps between consecutive arrivals at
    cfg.arrival_rate_lambda per minute, in seconds."""
    return rng.exponential(60.0 / cfg.arrival_rate_lambda, size=size)

def sample_session_duration(cfg: SimConfig, rng: np.random.Generator, size=None):
    """Pareto-distributed session lengths, in seconds; a None Pareto field
    of cfg means the calibrated default."""
    shape = DEFAULT_PARETO_SHAPE if cfg.pareto_shape is None else cfg.pareto_shape
    scale = DEFAULT_PARETO_SCALE_MIN if cfg.pareto_scale_min is None else cfg.pareto_scale_min
    return 60.0 * scale * (1.0 + rng.pareto(shape, size=size))

def sample_sessions(cfg: SimConfig, rng: np.random.Generator,
                    n: int) -> tuple[np.ndarray, np.ndarray]:
    """Join times (Poisson arrivals from 0) and durations of n sessions,
    in seconds: the n gaps are drawn first, then the n durations."""
    joins = sample_interarrival(cfg, rng, size=n).cumsum()
    return joins, sample_session_duration(cfg, rng, size=n)


def estimate_time_to_stay(cfg: SimConfig, elapse_min):
    """Predicted remaining minutes online after elapse_min minutes, for a float
    or a float64 column, whose entries take the float's operations in order:
    the quadratic cfg.tts_coeffs (c2, c1, c0), whose fit is only trusted up
    to cfg.tts_clamp_min minutes, so larger inputs are clamped there, short
    of the quadratic's downturn."""
    if np.any(np.less(elapse_min, 0)):
        raise ValueError(f"elapse_min must be non-negative, got {np.min(elapse_min)}")
    c2, c1, c0 = cfg.tts_coeffs
    x = np.minimum(elapse_min, cfg.tts_clamp_min)
    return c2 * x * x + c1 * x + c0
