"""Domain type and config validation tests."""

import dataclasses
import math
from dataclasses import replace

import numpy as np
import pytest

from relaysim.io import build_trace_peers
from relaysim.model import (
    DEFAULT_CITIES,
    STRATEGIES,
    ConfigError,
    SimConfig,
    TraceColumns,
    config_errors,
    validate_config,
)

from helpers import Peer, TraceRecord, one_attempt, population, trace_columns, trace_rows


def make_peer(**kw):
    base = dict(id=1, city="Beijing", isp=1, uplink_kbps=1024.0,
                downlink_kbps=4096.0, join_time=10.0, session_duration=60.0)
    base.update(kw)
    return Peer(**base)


def online(peer, t):
    """Whether a run holds peer online at t: a relay attempt on it at t is
    not rejected, so it does not end the request at t (one_attempt; the run
    reads the join and dep columns). The requester is another peer online
    from t on."""
    requester = replace(peer, id=peer.id + 1, session_duration=1e9)
    return one_attempt(peer, requester, t).end_time != t


class TestPeer:
    def test_online_window_half_open(self):
        p = make_peer()
        assert not online(p, 9.999)
        assert online(p, 10.0)          # join inclusive
        assert online(p, 69.999)
        assert not online(p, 70.0)      # departure exclusive

    def test_online_xor_offline(self):
        # online(t) XOR (t < join or t >= join + duration) for a grid of t
        p = make_peer()
        for t in [0.0, 9.9, 10.0, 40.0, 69.9, 70.0, 200.0]:
            outside = t < p.join_time or t >= p.join_time + p.session_duration
            assert online(p, t) != outside

    def test_departure_time(self):
        # a Population's dep is join + duration, row by row in issue order
        peers = [make_peer(), make_peer(id=2, join_time=5.0, session_duration=1.5),
                 make_peer(id=3, join_time=7.0, session_duration=math.inf)]
        p = population(peers)
        assert p.ids.tolist() == [2, 3, 1]
        assert p.dep.tolist() == [6.5, math.inf, 70.0]


class TestContentAndTrace:
    def test_trace_duration(self):
        # a replayed session joins at request_ts and lasts leave_ts -
        # request_ts, zero when the two are equal
        trace = trace_columns([TraceRecord("u1", 100.0, 160.0), TraceRecord("u0", 5.0, 5.0),
                               TraceRecord("u1", 0.25, 1e9, True)])
        peers = build_trace_peers(trace, SimConfig(), np.random.default_rng(0))
        assert peers.join.tolist() == [100.0, 5.0, 0.25]
        assert peers.duration.tolist() == [60.0, 0.0, 1e9 - 0.25]

    def test_trace_columns_round_trip_records(self):
        records = [TraceRecord("u1", 100.0, 160.0, True), TraceRecord("u0", 5.0, 5.0)]
        trace = trace_columns(records)
        assert len(trace) == 2 and trace_rows(trace) == records
        assert [[type(v) for v in dataclasses.astuple(r)] for r in trace_rows(trace)] == [
            [str, float, float, bool]] * 2
        assert trace_rows(trace_columns(iter(records))) == records
        assert trace_rows(trace_columns(records[::-1])) != records
        assert trace.request_ts.dtype == np.float64 and trace.fetch_failure.dtype == bool
        assert len(trace_columns([])) == 0

    def test_trace_columns_are_read_only_copies(self):
        joins = np.array([1.0, 2.0])
        trace = TraceColumns(["a", "b"], joins, joins + 1.0, np.array([0, 1]))
        assert trace.user_id == ("a", "b")
        assert trace.fetch_failure.tolist() == [False, True]
        with pytest.raises(ValueError):
            trace.request_ts[0] = 0.0
        joins[0] = 9.0          # the caller's array stays writable and apart
        assert trace.request_ts.tolist() == [1.0, 2.0]

    def test_trace_columns_need_one_entry_per_row(self):
        with pytest.raises(ValueError, match="leave_ts needs one entry"):
            TraceColumns(("a", "b"), [1.0, 2.0], [3.0], [False, False])


class TestConfigValidation:
    def test_default_config_valid(self):
        cfg = SimConfig()
        assert config_errors(cfg) == []
        assert validate_config(cfg) is cfg
        assert cfg.peer_count == 5000
        assert cfg.alpha == 0.2 and cfg.gamma == 0.8 and cfg.zeta == 10
        assert len(cfg.city_table) == 5
        assert cfg.isp_count == 3
        assert cfg.failure_ratio == 0.6

    def test_boundary_values_valid(self):
        cfg = SimConfig(alpha=0.0, zeta=1, failure_ratio=0.0)
        assert config_errors(cfg) == []

    def test_alpha_out_of_range_names_field(self):
        errs = config_errors(SimConfig(alpha=1.5))
        assert len(errs) == 1
        assert "alpha" in errs[0]

    def test_validate_raises_with_all_violations(self):
        cfg = SimConfig(peer_count=0, zeta=0, strategy="teleport")
        with pytest.raises(ConfigError) as ei:
            validate_config(cfg)
        joined = str(ei.value)
        assert "peer_count" in joined
        assert "zeta" in joined
        assert "strategy" in joined
        assert len(ei.value.errors) == 3

    @pytest.mark.parametrize("field,value,tag", [
        ("gamma", -0.1, "gamma"),
        ("gamma", 1.2, "gamma"),
        ("failure_ratio", 1.01, "failure_ratio"),
        ("isp_count", 0, "isp_count"),
        ("arrival_rate_lambda", 0.0, "arrival_rate_lambda"),
        ("zeta", 0, "zeta: must be at least 1"),
        ("failure_region", "Atlantis", "failure_region"),
        ("content_size_kb", 0.0, "content_size_kb"),
        ("tts_coeffs", (0.97, 3.5), "tts_coeffs: expected exactly three coefficients"),
        ("downlink_factor", 0.0, "downlink_factor"),
        ("sim_duration", 0.0, "sim_duration"),
        ("pareto_shape", -2.0, "pareto_shape"),
        # NaN passes no comparison, so every float field must reject it;
        # inf is rejected except for sim_duration and failure_end.
        ("arrival_rate_lambda", math.nan, "arrival_rate_lambda"),
        ("arrival_rate_lambda", math.inf, "arrival_rate_lambda"),
        ("pareto_shape", math.nan, "pareto_shape"),
        ("pareto_shape", math.inf, "pareto_shape"),
        ("pareto_scale_min", math.nan, "pareto_scale_min"),
        ("pareto_scale_min", math.inf, "pareto_scale_min"),
        ("alpha", math.nan, "alpha"),
        ("gamma", math.nan, "gamma"),
        ("failure_ratio", math.nan, "failure_ratio"),
        ("failure_start", math.nan, "failure_start"),
        ("failure_start", math.inf, "failure_start"),
        ("failure_end", math.nan, "failure_end"),
        ("content_size_kb", math.nan, "content_size_kb"),
        ("content_size_kb", math.inf, "content_size_kb"),
        ("city_table", {"Beijing": (math.nan, 116.4)},
         "city_table[Beijing]: coordinates out of range"),
        ("city_table", {"Beijing": (39.9, 116.4, 0.0)}, "city_table[Beijing]: expected (lat, lon)"),
        ("downlink_factor", math.nan, "downlink_factor"),
        ("downlink_factor", math.inf, "downlink_factor"),
        ("latency_base_ms", math.nan, "latency_base_ms"),
        ("latency_base_ms", math.inf, "latency_base_ms"),
        ("latency_per_km_ms", math.nan, "latency_per_km_ms"),
        ("latency_per_km_ms", math.inf, "latency_per_km_ms"),
        ("tts_coeffs", (math.nan, 0.97, 3.5), "tts_coeffs"),
        ("tts_coeffs", (-0.0076, math.inf, 3.5), "tts_coeffs"),
        ("tts_clamp_min", math.nan, "tts_clamp_min"),
        ("tts_clamp_min", math.inf, "tts_clamp_min"),
        ("sim_duration", math.nan, "sim_duration"),
        ("rng_seed", -1, "rng_seed: must be non-negative"),
    ])
    def test_single_field_violations(self, field, value, tag):
        errs = config_errors(SimConfig(**{field: value}))
        assert errs and all(tag in e for e in errs)

    @pytest.mark.parametrize("field,value", [
        ("zeta", 2.5), ("peer_count", 50.5), ("isp_count", 1.5), ("rng_seed", 7.0),
        ("peer_count", True), ("zeta", False), ("isp_count", np.float64(2.0)),
        ("rng_seed", "7"), ("zeta", None),
    ])
    def test_integer_fields_reject_non_integers(self, field, value):
        assert config_errors(SimConfig(**{field: value})) == [
            f"{field}: must be an integer"]
        with pytest.raises(ConfigError, match=field):
            validate_config(SimConfig(**{field: value}))

    def test_integer_fields_accept_numpy_integers(self):
        cfg = SimConfig(peer_count=np.int64(50), isp_count=np.int32(2),
                        zeta=np.int16(4), rng_seed=np.uint64(9))
        assert config_errors(cfg) == []
        assert config_errors(SimConfig(peer_count=np.int64(0))) == [
            "peer_count: must be positive"]

    def test_uplink_profile_must_sum_to_one(self):
        errs = config_errors(SimConfig(uplink_profile={512.0: 0.5, 1024.0: 0.4}))
        assert errs and "uplink_profile" in errs[0]

    @pytest.mark.parametrize("profile", [
        {512.0: math.nan, 1024.0: 1.0},
        {512.0: math.inf, 1024.0: 1.0},
        {512.0: -0.5, 1024.0: 1.5},
        {math.nan: 0.5, 1024.0: 0.5},
        {math.inf: 0.5, 1024.0: 0.5},
    ])
    def test_uplink_profile_rejects_non_finite_or_negative(self, profile):
        errs = config_errors(SimConfig(uplink_profile=profile))
        assert errs and all("uplink_profile" in e for e in errs)

    def test_failure_window_ordering(self):
        errs = config_errors(SimConfig(failure_start=10.0, failure_end=10.0))
        assert errs and "failure_start" in errs[0]

    def test_failure_window_must_open_by_the_horizon(self):
        errs = config_errors(SimConfig(sim_duration=100.0, failure_start=200.0,
                                       failure_end=300.0))
        assert errs == ["failure_start: must not come after sim_duration"]
        # a request issued exactly at the horizon can still be cut off
        assert config_errors(SimConfig(sim_duration=100.0, failure_start=100.0)) == []

    def test_infinite_defaults(self):
        cfg = SimConfig()
        assert cfg.sim_duration == math.inf
        assert cfg.failure_end == math.inf

    def test_strategies_constant(self):
        assert STRATEGIES == ("no-relay", "random", "path-aware")

    def test_field_names_cover_public_surface(self):
        names = [f.name for f in dataclasses.fields(SimConfig)]
        for expected in ("peer_count", "city_table", "isp_count",
                         "arrival_rate_lambda", "pareto_shape",
                         "pareto_scale_min", "alpha", "gamma", "zeta",
                         "failure_ratio", "failure_region", "content_size_kb",
                         "rng_seed", "strategy", "sim_duration"):
            assert expected in names

    def test_default_cities(self):
        assert set(DEFAULT_CITIES) == {"Beijing", "Shanghai", "Guangzhou",
                                       "Chengdu", "Wuhan"}
