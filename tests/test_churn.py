"""Churn model tests: calibration, samplers, time-to-stay estimator."""

import math

import numpy as np
import pytest

from relaysim.churn import (
    DEFAULT_PARETO_SCALE_MIN,
    DEFAULT_PARETO_SHAPE,
    CalibrationError,
    calibrate_pareto,
    estimate_time_to_stay,
    sample_interarrival,
    sample_session_duration,
)
from relaysim.io import synthesize_trace
from relaysim.model import ConfigError, SimConfig

# Closed-form solution of the default two-quantile fit, computed by hand:
#   a   = ln(0.4 / 0.1) / ln(10)  = log10(4)
#   x_m = 0.4 ** (1 / a)
EXPECTED_SHAPE = 0.6020599913279624
EXPECTED_SCALE = 0.2182910614043151


class TestCalibration:
    def test_default_quantiles_closed_form(self):
        x_m, a = calibrate_pareto()
        assert a == pytest.approx(EXPECTED_SHAPE, abs=1e-12)
        assert x_m == pytest.approx(EXPECTED_SCALE, abs=1e-12)

    def test_solution_hits_both_quantiles_exactly(self):
        x_m, a = calibrate_pareto()
        cdf = lambda t: 1.0 - (x_m / t) ** a
        assert cdf(1.0) == pytest.approx(0.60, abs=1e-12)
        assert cdf(10.0) == pytest.approx(0.90, abs=1e-12)

    def test_unit_shape_example(self):
        # (x_m/1)^1 = 0.5 and (x_m/2)^1 = 0.25 pin a=1, x_m=0.5
        x_m, a = calibrate_pareto(q1=(1.0, 0.5), q2=(2.0, 0.75))
        assert a == pytest.approx(1.0, abs=1e-12)
        assert x_m == pytest.approx(0.5, abs=1e-12)

    def test_module_defaults_match(self):
        assert DEFAULT_PARETO_SHAPE == pytest.approx(EXPECTED_SHAPE, abs=1e-12)
        assert DEFAULT_PARETO_SCALE_MIN == pytest.approx(EXPECTED_SCALE, abs=1e-12)

    def test_degenerate_levels_rejected(self):
        with pytest.raises(CalibrationError):
            calibrate_pareto(q1=(1.0, 0.6), q2=(10.0, 0.6))

    def test_decreasing_levels_rejected(self):
        with pytest.raises(CalibrationError):
            calibrate_pareto(q1=(1.0, 0.9), q2=(10.0, 0.6))

    def test_bad_times_rejected(self):
        with pytest.raises(CalibrationError):
            calibrate_pareto(q1=(10.0, 0.6), q2=(1.0, 0.9))


class TestSessionModel:
    def test_defaults(self):
        # a None Pareto field means the calibrated default
        cfg = SimConfig()
        assert (cfg.arrival_rate_lambda, cfg.pareto_shape, cfg.pareto_scale_min) == (
            30.0, None, None)
        calibrated = SimConfig(pareto_shape=DEFAULT_PARETO_SHAPE,
                               pareto_scale_min=DEFAULT_PARETO_SCALE_MIN)
        for shape, scale in ((None, None), (None, DEFAULT_PARETO_SCALE_MIN),
                             (DEFAULT_PARETO_SHAPE, None)):
            cfg = SimConfig(pareto_shape=shape, pareto_scale_min=scale)
            assert np.array_equal(sample_session_duration(cfg, np.random.default_rng(4), 50),
                                  sample_session_duration(calibrated, np.random.default_rng(4), 50))

    @pytest.mark.parametrize("kw, message", [
        ({"arrival_rate_lambda": 0.0}, "arrival_rate_lambda: must be positive and finite"),
        ({"pareto_shape": -1.0}, "pareto_shape: must be positive and finite when set"),
        ({"pareto_scale_min": 0.0}, "pareto_scale_min: must be positive and finite when set"),
    ], ids=["kw0", "kw1", "kw2"])
    def test_invalid_parameters(self, kw, message):
        # the session fields are checked where a config enters, once
        with pytest.raises(ConfigError) as ei:
            synthesize_trace(10, cfg=SimConfig(**kw))
        assert ei.value.errors == [message]


class TestSamplers:
    def test_interarrival_mean(self):
        rng = np.random.default_rng(7)
        draws = sample_interarrival(SimConfig(), rng, size=100_000)
        assert abs(draws.mean() - 2.0) < 0.05

    def test_interarrival_rate_reciprocity(self):
        rng = np.random.default_rng(7)
        draws = sample_interarrival(SimConfig(arrival_rate_lambda=1e6), rng,
                                    size=10_000)
        assert draws.mean() < 0.001

    def test_interarrival_deterministic(self):
        a = sample_interarrival(SimConfig(), np.random.default_rng(3), size=3)
        b = sample_interarrival(SimConfig(), np.random.default_rng(3), size=3)
        assert np.array_equal(a, b)

    def test_session_duration_quantiles(self):
        rng = np.random.default_rng(11)
        secs = sample_session_duration(SimConfig(), rng, size=100_000)
        mins = secs / 60.0
        assert abs(np.mean(mins < 1.0) - 0.60) < 0.03
        assert abs(np.mean(mins < 10.0) - 0.90) < 0.02

    def test_session_duration_support(self):
        rng = np.random.default_rng(5)
        secs = sample_session_duration(SimConfig(), rng, size=50_000)
        assert np.all(secs >= 60.0 * DEFAULT_PARETO_SCALE_MIN)

    def test_session_duration_deterministic(self):
        a = sample_session_duration(SimConfig(), np.random.default_rng(9), size=5)
        b = sample_session_duration(SimConfig(), np.random.default_rng(9), size=5)
        assert np.array_equal(a, b)


class TestTimeToStay:
    def test_polynomial_values(self):
        cfg = SimConfig()
        assert estimate_time_to_stay(cfg, 0.0) == pytest.approx(3.5, abs=1e-9)
        assert estimate_time_to_stay(cfg, 30.0) == pytest.approx(25.76, abs=1e-9)
        assert estimate_time_to_stay(cfg, 60.0) == pytest.approx(34.34, abs=1e-9)

    def test_clamp_beyond_valid_range(self):
        cfg = SimConfig()
        at_max = estimate_time_to_stay(cfg, 60.0)
        assert estimate_time_to_stay(cfg, 90.0) == at_max
        assert estimate_time_to_stay(cfg, 1e6) == at_max

    def test_negative_elapse_rejected(self):
        with pytest.raises(ValueError):
            estimate_time_to_stay(SimConfig(), -0.1)

    def test_monotone_on_grid(self):
        cfg = SimConfig()
        grid = np.arange(0.0, 60.0 + 1e-9, 0.1)
        vals = [estimate_time_to_stay(cfg, x) for x in grid]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert all(math.isfinite(v) and v >= 0 for v in vals)

    def test_ranking_invariance(self):
        # longer elapse never ranks lower inside the trusted window
        cfg = SimConfig()
        rng = np.random.default_rng(2)
        pairs = rng.uniform(0.0, 60.0, size=(200, 2))
        for e1, e2 in pairs:
            lo, hi = sorted((e1, e2))
            assert estimate_time_to_stay(cfg, hi) >= estimate_time_to_stay(cfg, lo)

    def test_vertex_outside_window(self):
        # parabola apex sits past 60 min, so the window is monotone
        c2, c1, _ = SimConfig().tts_coeffs
        vertex = -c1 / (2.0 * c2)
        assert vertex > 60.0
        assert vertex == pytest.approx(63.815789, abs=1e-6)
