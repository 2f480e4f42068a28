"""Geography, bandwidth, failure model, connectivity and attempt-rate tests."""

import math

import numpy as np
import pytest

from relaysim.engine import Simulation
from relaysim.model import DEFAULT_CITIES, DEFAULT_UPLINK_PROFILE, SimConfig, config_errors
from relaysim.netsim import (
    FailureScenario,
    SERVER,
    assign_bandwidth,
    assign_isp,
    haversine_km,
    inject_failure,
    latency_ms,
    read_city_file,
)

from helpers import Peer, fixed_list_simulation, one_attempt, peer_columns, population


def make_peer(pid, city="Beijing", **kw):
    base = dict(id=pid, city=city, isp=1, uplink_kbps=1024.0,
                downlink_kbps=4096.0, join_time=0.0, session_duration=1e9)
    base.update(kw)
    return Peer(**base)


def km(table, a, b):
    """Great-circle distance between two cities of the table."""
    return haversine_km(*table[a], *table[b])


class TestGeography:
    def test_zero_distance_same_city(self):
        assert km(DEFAULT_CITIES, "Beijing", "Beijing") == 0.0

    def test_beijing_shanghai(self):
        # independent haversine calculation puts this at 1067.08 km
        d = km(DEFAULT_CITIES, "Beijing", "Shanghai")
        assert d == pytest.approx(1067.08, abs=0.5)
        assert abs(d - 1068.0) <= 5.0

    def test_symmetry_all_pairs(self):
        for a in DEFAULT_CITIES:
            for b in DEFAULT_CITIES:
                assert km(DEFAULT_CITIES, a, b) == pytest.approx(km(DEFAULT_CITIES, b, a),
                                                                 abs=1e-9)

    def test_unknown_city(self, tmp_path):
        # a city table read from a file must name every population city
        f = tmp_path / "cities.csv"
        f.write_text("Beijing,39.9,116.4\n")
        cfg = SimConfig(city_table=read_city_file(f), peer_count=2)
        listed = population([make_peer(0), make_peer(1, city="Shanghai")])
        with pytest.raises(ValueError, match="population city 'Shanghai' is missing from "
                                             "cfg.city_table"):
            Simulation(cfg, listed)

    def test_haversine_antipodal_bound(self):
        # no two points exceed half the great circle
        assert haversine_km(0, 0, 0, 180) == pytest.approx(
            math.pi * 6371.0, rel=1e-9)

    def test_table_validation(self):
        assert config_errors(SimConfig(city_table={})) == [
            "city_table: must contain at least one city",
            "failure_region: unknown city 'Beijing'"]
        table = {"Beijing": (39.9, 116.4), "X": (91.0, 0.0)}
        assert config_errors(SimConfig(city_table=table)) == [
            "city_table[X]: coordinates out of range"]

    def test_read_city_file_with_header(self, tmp_path):
        f = tmp_path / "cities.csv"
        f.write_text("name,lat,lon\nA,10.0,20.0\nB,-5.5,30.25\n")
        assert read_city_file(f) == {"A": (10.0, 20.0), "B": (-5.5, 30.25)}

    def test_read_city_file_without_header(self, tmp_path):
        f = tmp_path / "cities.csv"
        f.write_text("A,10.0,20.0\n\nB,-5.5,30.25\n")
        assert read_city_file(f) == {"A": (10.0, 20.0), "B": (-5.5, 30.25)}

    def test_read_city_file_bad_rows(self, tmp_path):
        f = tmp_path / "cities.csv"
        for text, message in (("A,10.0\n", "expected 3 columns"),
                              ("A,10.0,20.0\nname,lat,lon\n", "bad coordinates")):
            f.write_text(text)
            with pytest.raises(ValueError, match=message):
                read_city_file(f)


class TestLatency:
    def test_intercept(self):
        assert latency_ms(0.0) == 5.0

    def test_slope(self):
        assert latency_ms(1000.0) == pytest.approx(25.0, abs=1e-12)

    def test_monotone(self):
        grid = np.linspace(0.0, 5000.0, 64)
        vals = [latency_ms(d) for d in grid]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            latency_ms(-1.0)

    def test_custom_coefficients(self):
        assert latency_ms(100.0, base_ms=1.0, per_km_ms=0.1) == pytest.approx(11.0)


class TestBandwidth:
    def test_single_bucket_profile(self):
        rng = np.random.default_rng(0)
        assert [c.tolist() for c in assign_bandwidth(rng, 16, {1024.0: 1.0})] == [
            [1024.0] * 16, [4096.0] * 16]
        assert [c.tolist() for c in assign_bandwidth(rng, 0, {1024.0: 1.0})] == [[], []]

    def test_bucket_frequencies(self):
        rng = np.random.default_rng(1)
        draws, _ = assign_bandwidth(rng, 100_000)
        counts = {b: 0 for b in (512.0, 1024.0, 3072.0, 10240.0)}
        for d in draws.tolist():
            counts[d] += 1
        expected = {512.0: 0.20, 1024.0: 0.40, 3072.0: 0.25, 10240.0: 0.15}
        for bucket, p in expected.items():
            assert abs(counts[bucket] / len(draws) - p) < 0.01

    def test_downlink_factor(self):
        rng = np.random.default_rng(2)
        ups, downs = assign_bandwidth(rng, 3, {512.0: 1.0}, downlink_factor=8.0)
        assert (ups.tolist(), downs.tolist()) == ([512.0] * 3, [4096.0] * 3)

    def test_all_positive(self):
        rng = np.random.default_rng(3)
        ups, downs = assign_bandwidth(rng, 1000)
        assert len(ups) == len(downs) == 1000
        assert all(up > 0 and down > 0 for up, down in zip(ups, downs))

    def test_bad_profiles_rejected(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError):
            assign_bandwidth(rng, 1, {512.0: 0.5, 1024.0: 0.6})
        with pytest.raises(ValueError):
            assign_bandwidth(rng, 1, {-512.0: 1.0})
        with pytest.raises(ValueError):
            assign_bandwidth(rng, 1, {512.0: float("nan"), 1024.0: 1.0})

    @pytest.mark.parametrize("profile", [
        None,
        {10240.0: 0.15, 512.0: 0.20, 3072.0: 0.25, 1024.0: 0.40},   # unsorted order
        {2048.0: 1.0},
        {300.0: 0.0, 100.0: 0.5, 200.0: 0.5},                        # empty bucket
        {1.0: 0.1, 2.0: 0.2, 3.0: 0.3, 4.0: 0.4, 5.0: 0.0},
    ])
    def test_same_draws_as_generator_choice(self, profile):
        ref_profile = dict(DEFAULT_UPLINK_PROFILE) if profile is None else profile
        buckets = sorted(ref_profile)
        probs = np.array([ref_profile[b] for b in buckets], dtype=float)
        for seed in (0, 1, 7, 12345):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            ups, downs = assign_bandwidth(rng, 2000, profile, 3.0)
            expected = ref.choice(np.array(buckets, dtype=float), p=probs, size=2000)
            assert ups.tolist() == expected.tolist()
            assert downs.tolist() == [e * 3.0 for e in expected.tolist()]
            assert rng.random() == ref.random()   # streams stay aligned

    def test_columns_are_float64_bucket_values(self):
        ups, downs = assign_bandwidth(np.random.default_rng(5), 500)
        assert ups.dtype == downs.dtype == np.float64 and ups.shape == downs.shape == (500,)
        assert set(ups.tolist()) <= set(DEFAULT_UPLINK_PROFILE)
        assert {type(v) for v in ups.tolist() + downs.tolist()} == {float}


class TestIsp:
    def test_single_isp(self):
        rng = np.random.default_rng(0)
        assert assign_isp(rng, 32, 1).tolist() == [1] * 32

    def test_uniform_over_three(self):
        rng = np.random.default_rng(5)
        draws = assign_isp(rng, 100_000, 3)
        for isp in (1, 2, 3):
            assert abs(np.mean(draws == isp) - 1.0 / 3.0) < 0.01

    def test_deterministic(self):
        a = assign_isp(np.random.default_rng(6), 5, 3)
        b = assign_isp(np.random.default_rng(6), 5, 3)
        assert a.tolist() == b.tolist()
        assert a.dtype == np.int64 and {type(v) for v in a.tolist()} == {int}

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            assign_isp(np.random.default_rng(0), 1, 0)


class TestFailureInjection:
    def make_region(self, n, city="Beijing"):
        return [make_peer(i, city=city) for i in range(n)]

    @staticmethod
    def columns(peers):
        return peer_columns(peers)

    def test_floor_sampling(self):
        peers = self.make_region(100)
        out = inject_failure("Beijing", 0.6, self.columns(peers), np.random.default_rng(0))
        assert out.dtype == np.int64 and len(out) == 60
        assert np.all(out[1:] > out[:-1])   # sorted, no id twice
        assert set(out.tolist()) <= {p.id for p in peers}

    def test_ratio_zero(self):
        out = inject_failure("Beijing", 0.0, self.columns(self.make_region(100)),
                             np.random.default_rng(0))
        assert out.tolist() == []

    def test_ratio_one(self):
        peers = self.make_region(25)
        out = inject_failure("Beijing", 1.0, self.columns(peers), np.random.default_rng(0))
        assert out.tolist() == [p.id for p in peers]

    def test_only_region_peers_sampled(self):
        peers = (self.make_region(50, "Beijing")
                 + [make_peer(100 + i, city="Shanghai") for i in range(50)])
        out = inject_failure("Beijing", 1.0, self.columns(peers), np.random.default_rng(0))
        assert all(i < 100 for i in out)
        assert len(out) == 50

    def test_empty_region_ok(self):
        out = inject_failure("Beijing", 0.6, self.columns([]), np.random.default_rng(0))
        assert out.tolist() == []

    def test_window_half_open(self):
        # A peer affected over [10, 20) is cut off at a join from 10 up to,
        # not including, 20: the start edge is inclusive, the end exclusive.
        joins = {1: 9.999, 2: 10.0, 3: 19.999, 4: 20.0}
        p = population([make_peer(pid, join_time=t) for pid, t in joins.items()],
                       FailureScenario(frozenset(joins), start_time=10.0, end_time=20.0))
        assert dict(zip(p.ids.tolist(), p.cut.tolist())) == {1: False, 2: True, 3: True,
                                                             4: False}


def relay_attempt_at(t, affected):
    """The outcome of an attempt at t >= 10 on relay 1, affected when
    affected is, under a failure window [10, 20). The requester, peer
    2, joins at 10 cut off and first tries a peer that is not yet online,
    whose rejection ends after a handshake of t - 10 s (a base latency of
    (t - 10) / 2 s, all peers in one city), when the attempt on relay 1
    starts."""
    offline = make_peer(3, join_time=1e6)
    cfg = SimConfig(peer_count=3, latency_base_ms=500.0 * (t - 10.0), latency_per_km_ms=0.0,
                    sim_duration=math.inf, content_size_kb=1.0)
    sim = fixed_list_simulation(cfg, [make_peer(1), make_peer(2, join_time=10.0), offline],
                                FailureScenario({2, 1} if affected else {2}, start_time=10.0,
                                                end_time=20.0), {2: (3, 1)})
    sim.run()
    (out,) = [o for o in sim.outcomes if o.requester_id == 2]
    assert out.attempts == 2
    return out


class TestConnectivity:
    """The failure rule as a run applies it: a requester cut off at its
    join enters the relay phase (TestFailureInjection.test_window_half_open),
    and an attempt on a relay cut off when it starts is rejected. A relay
    attempt starts no earlier than its requester's join, which lies in the
    window, so the window's start edge is reached only through joins."""

    def scenario(self, affected, start=0.0, end=math.inf):
        return FailureScenario(frozenset(affected), region="Beijing", start_time=start,
                               end_time=end)

    def test_truth_table_during_window(self):
        # Inside [10, 20) only an affected relay is rejected, at the start
        # edge as before the end; a rejection delivers nothing.
        for t in (10.0, 15.0, 19.999):
            assert relay_attempt_at(t, affected=True).served_by is None
            assert relay_attempt_at(t, affected=False).served_by == 1
        one = make_peer(1)
        assert one_attempt(one, make_peer(2), t=5.0, affected={1}).served_by is None
        assert one_attempt(one, make_peer(2), t=5.0).served_by == 1

    def test_outside_window(self):
        # From the end edge on, the affected relay serves again.
        for t in (20.0, 100.0):
            assert relay_attempt_at(t, affected=True).served_by == 1

    def test_no_scenario(self):
        # A scenario without affected peers names a region but cuts no peer
        # off: every request of a run on it is a server fetch.
        peers = [make_peer(i, join_time=float(i)) for i in range(4)]
        p = population(peers, FailureScenario(frozenset(), region="Beijing"))
        assert p.affected.tolist() == p.cut.tolist() == [False] * 4
        sim = fixed_list_simulation(SimConfig(peer_count=4, sim_duration=math.inf), peers,
                                    FailureScenario((), region="Beijing"), {})
        assert sim.run().relay_phase_requests == 0
        assert [o.served_by for o in sim.outcomes] == [SERVER] * 4

    def test_affected_ids_become_a_sorted_read_only_id_array(self):
        for ids in ({5, 2}, [5, 2], np.array([5, 2], np.int32), range(2, 6, 3)):
            affected = FailureScenario(ids).affected
            assert affected.dtype == np.int64 and affected.tolist() == [2, 5]
            assert not affected.flags.writeable

    @pytest.mark.parametrize("ids, dtype", [([1, 2.5], "float64"), ([3, "4"], "<U21"),
                                            (np.array([2.0]), "float64"), ({None}, "object"),
                                            ([True], "bool"), ([2**70], "object")])
    def test_an_affected_id_that_is_not_an_integer_is_rejected(self, ids, dtype):
        # Unchecked, 2.5 would be truncated to peer 2, and "4" would name
        # peer 4.
        with pytest.raises(ValueError, match=f"^affected ids must be integers, not {dtype}$"):
            FailureScenario(ids)

    @pytest.mark.parametrize("start, end", [
        (math.nan, math.inf), (5.0, 1.0), (0.0, math.nan), (3.0, 3.0)])
    def test_window_no_run_can_use_is_rejected(self, start, end):
        # Unchecked, a NaN or empty window cuts no affected peer off, and a
        # run reports its affected requests as served without a word.
        with pytest.raises(ValueError, match="needs start_time < end_time"):
            self.scenario({1, 2}, start=start, end=end)


SIZE_KBITS = 512.0 * 8.0


def attempt(relay, requester, in_use=None, affected=()):
    """The requester's outcome after one attempt on relay at t = 0 for 512
    KB (one_attempt): it ends at 0 when the attempt is rejected and at
    SIZE_KBITS / rate when the relay delivers at rate."""
    return one_attempt(relay, requester, in_use=in_use, affected=affected,
                       content_size_kb=512.0)


class TestThroughput:
    def test_min_of_legs(self):
        relay = make_peer(1, uplink_kbps=1024.0)
        req = make_peer(2, downlink_kbps=4096.0)
        assert attempt(relay, req).end_time == SIZE_KBITS / 1024.0

    def test_requester_downlink_binds(self):
        relay = make_peer(1, uplink_kbps=10240.0)
        req = make_peer(2, downlink_kbps=2048.0)
        assert attempt(relay, req).end_time == SIZE_KBITS / 2048.0

    def test_saturated_relay(self):
        relay = make_peer(1, uplink_kbps=1024.0)
        out = attempt(relay, make_peer(2), in_use={1: 1024.0})
        assert out.end_time == 0.0 and out.served_by is None

    def test_partial_commitment(self):
        relay = make_peer(1, uplink_kbps=1024.0)
        req = make_peer(2, downlink_kbps=4096.0)
        assert attempt(relay, req, in_use={1: 600.0}).end_time == pytest.approx(
            SIZE_KBITS / 424.0)

    def test_disconnected_pair(self):
        # An affected relay is rejected for an affected requester.
        out = attempt(make_peer(1), make_peer(2), affected={1, 2})
        assert out.end_time == 0.0 and out.served_by is None

    def test_bounds(self):
        # A delivery at a rate of at most x kbps takes at least SIZE_KBITS / x.
        rng = np.random.default_rng(7)
        for _ in range(200):
            relay = make_peer(1, uplink_kbps=float(rng.integers(1, 10000)))
            in_use = float(rng.uniform(0, relay.uplink_kbps))
            req = make_peer(2, downlink_kbps=float(rng.integers(1, 10000)))
            out = attempt(relay, req, in_use={1: in_use})
            if out.end_time > 0.0:
                assert out.served_by == 1
                assert out.end_time >= SIZE_KBITS / (relay.uplink_kbps - in_use + 1e-9)
                assert out.end_time >= SIZE_KBITS / req.downlink_kbps
            else:
                assert out.served_by is None
