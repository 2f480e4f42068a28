"""Event engine tests: protocol arithmetic, ledger, determinism, metrics."""

import copy
import csv
import dataclasses
import heapq
import math
import sys
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relaysim import engine
from relaysim.engine import (
    ATTEMPT_ABORT,
    ATTEMPT_COMPLETE,
    CandidateDraws,
    MetricsReport,
    Population,
    RequestOutcome,
    Simulation,
    build_population,
    collect_metrics,
    draw_candidates,
    draw_population,
    run,
    _stream,
    _STREAM_POPULATION,
)
from relaysim.churn import SessionModel
from relaysim.io import build_trace_peers, synthesize_trace, write_outcomes_csv
from relaysim.model import RATE_EPS, CapacityError, PeerColumns, RelayLedger, SimConfig
from relaysim.netsim import SERVER, CityTable, FailureScenario, UnknownCityError, haversine_km

from helpers import (Peer, candidate_lists, fixed_draws, fixed_list_simulation, one_attempt,
                     outcome_tables, outcomes_table, peer_columns, peer_of, peer_rows, peers_of,
                     row_by_id, run_recording_lists, trace_columns, trace_rows)
from reference import collect_metrics_rows, primary_success, reference_draws, reference_run


def make_peer(pid, city="Beijing", isp=1, join=0.0, dur=1e9,
              up=1024.0, down=4096.0, **kw):
    base = dict(id=pid, city=city, isp=isp, uplink_kbps=up, downlink_kbps=down,
                join_time=join, session_duration=dur)
    base.update(kw)
    return Peer(**base)


def small_cfg(**kw):
    base = dict(peer_count=60, rng_seed=0, sim_duration=900.0)
    base.update(kw)
    return SimConfig(**base)


class TestEventOrdering:
    def test_priorities(self):
        # deliveries before aborts at the same instant; request issues do
        # not enter the heap
        assert ATTEMPT_COMPLETE < ATTEMPT_ABORT
        assert (ATTEMPT_COMPLETE, ATTEMPT_ABORT) == (0, 1)


class TestCollectMetrics:
    def test_ratio_arithmetic(self):
        outs = [RequestOutcome(i, 100.0, 0.0, served_by=SERVER) for i in range(3)]
        outs.append(RequestOutcome(3, 100.0, 0.0))
        rep = collect_metrics(outcomes_table(outs))
        assert rep.success_ratio == 0.75
        assert rep.served_by_server == 3
        assert rep.unserved == 1
        assert rep.avg_repeated_requests is None

    def test_avg_attempts_over_relay_served(self):
        outs = []
        for i, k in enumerate((1, 2, 3)):
            outs.append(RequestOutcome(i, 100.0, 0.0, served_by=50 + i, attempts=k,
                                       entered_relay_phase=True))
        rep = collect_metrics(outcomes_table(outs))
        assert rep.avg_repeated_requests == 2.0
        assert rep.primary_success_ratio == pytest.approx(1.0 / 3.0)

    def test_empty_report(self):
        rep = collect_metrics(outcomes_table([]))
        assert rep.total_requests == 0
        assert rep.success_ratio is None
        assert rep.primary_success_ratio is None

    def test_no_relay_phase_means_absent_primary_ratio(self):
        rep = collect_metrics(outcomes_table([RequestOutcome(0, 1.0, 0.0, served_by=SERVER)]))
        assert rep.primary_success_ratio is None

    def test_slices(self):
        outs = [RequestOutcome(0, 1.0, 0.0, served_by=SERVER),
                RequestOutcome(1, 1.0, 0.0)]
        rep = collect_metrics(outcomes_table(outs), affected=np.array([False, True]),
                              in_region=np.array([True, True]))
        assert rep.affected_requests == 1
        assert rep.affected_success_ratio == 0.0
        assert rep.region_success_ratio == 0.5
        # a mask of another length would broadcast or fail deep in numpy
        for masks in ({"affected": np.array([True])}, {"in_region": np.ones(3, bool)}):
            with pytest.raises(ValueError, match="one entry per outcome row"):
                collect_metrics(outcomes_table(outs), **masks)

    def test_to_dict_round(self):
        rep = collect_metrics(outcomes_table([RequestOutcome(0, 1.0, 0.0, served_by=SERVER)]))
        d = rep.to_dict()
        assert d["total_requests"] == 1
        assert d["success_ratio"] == 1.0
        assert MetricsReport(**d) == rep

    @settings(max_examples=300, deadline=None)
    @given(outcome_tables(), st.data())
    def test_matches_the_row_reference(self, table, data):
        ids = table.requester_id.tolist()
        id_sets = st.frozensets(st.one_of(st.sampled_from(ids), st.integers(0, 10**6))
                                if ids else st.integers(0, 10**6))
        affected, region = data.draw(id_sets), data.draw(id_sets)
        masks = (np.isin(table.requester_id, list(ids)) for ids in (affected, region))
        assert collect_metrics(table, *masks).to_dict() == collect_metrics_rows(
            list(table), affected, region).to_dict()

    def test_primary_success_is_derived(self, tmp_path):
        # served by the first relay tried: the metrics and the outcome CSV
        # read it off served_by and attempts; no record stores it
        outs = [RequestOutcome(0, 1.0, 0.0, served_by=7, attempts=1, entered_relay_phase=True),
                RequestOutcome(1, 1.0, 0.0, served_by=7, attempts=2, entered_relay_phase=True),
                RequestOutcome(2, 1.0, 0.0, served_by=SERVER),
                RequestOutcome(3, 1.0, 0.0, attempts=1, entered_relay_phase=True)]
        assert [primary_success(o) for o in outs] == [True, False, False, False]
        table = outcomes_table(outs)
        assert collect_metrics(table).primary_success_ratio == 1 / 3
        write_outcomes_csv(table, tmp_path / "o.csv")
        with open(tmp_path / "o.csv", newline="") as fh:
            assert [row["primary_success"] for row in csv.DictReader(fh)] == ["1", "0", "0", "0"]


class TestPopulation:
    def test_shape_and_ranges(self):
        cfg = SimConfig(peer_count=300)
        peers = peer_rows(build_population(cfg, _stream(1, _STREAM_POPULATION)))
        assert len(peers) == 300
        assert [p.id for p in peers] == list(range(300))
        joins = [p.join_time for p in peers]
        assert all(b > a for a, b in zip(joins, joins[1:]))
        cities = set(cfg.city_table)
        buckets = set(cfg.uplink_profile)
        for p in peers:
            assert p.city in cities
            assert 1 <= p.isp <= cfg.isp_count
            assert p.uplink_kbps in buckets
            assert p.downlink_kbps == p.uplink_kbps * cfg.downlink_factor
            assert p.session_duration >= 13.0   # Pareto floor in seconds

    def test_deterministic(self):
        cfg = SimConfig(peer_count=50)
        a = build_population(cfg, _stream(3, _STREAM_POPULATION))
        b = build_population(cfg, _stream(3, _STREAM_POPULATION))
        assert a.cities == b.cities
        assert all(np.array_equal(x, y) for x, y in zip(a[1:], b[1:]))
        assert peer_rows(a) == peer_rows(b)

    def test_fields_are_builtin_values(self):
        # A numpy scalar would leak into the outcome CSV as 'np.float64(...)'.
        for p in peers_of(draw_population(SimConfig(peer_count=200, rng_seed=2))):
            assert [type(getattr(p, f.name)) for f in dataclasses.fields(p)] == [
                int, str, int, float, float, float, float]

    def test_default_session_model(self):
        assert engine.session_model(SimConfig()) == SessionModel()

    def test_empty_population(self):
        columns = build_population(SimConfig(peer_count=0), _stream(1, _STREAM_POPULATION))
        assert [len(column) for column in columns[1:]] == [0] * 7
        assert peer_rows(columns) == []


class TestCapacityLedger:
    def test_commit_release_roundtrip(self):
        ledger = RelayLedger()
        ledger.commit(1, 1024.0, 500.0)
        assert ledger.in_use_kbps[1] == 500.0
        assert ledger.workload[1] == 1
        ledger.release(1, 500.0)
        assert ledger.in_use_kbps.get(1, 0.0) == 0.0
        assert ledger.in_use_kbps == {} and ledger.workload == {}

    def test_overcommit_is_a_bug_trap(self):
        ledger = RelayLedger()
        ledger.commit(1, 1024.0, 600.0)
        with pytest.raises(CapacityError):
            ledger.commit(1, 1024.0, 600.0)

    def test_over_release_is_a_bug_trap(self):
        ledger = RelayLedger()
        ledger.commit(1, 1024.0, 100.0)
        with pytest.raises(CapacityError):
            ledger.release(1, 200.0)

    def test_nonpositive_commit_rejected(self):
        with pytest.raises(ValueError):
            RelayLedger().commit(1, 1024.0, 0.0)


class TestAttemptDownload:
    """One request through the server-then-relay protocol.

    Every peer also requests the content itself when it joins, so relays
    join no later than the requester (t = 0) unless a test needs them
    offline; a relay's own server fetch holds no relay capacity.
    """

    def download(self, requester, relays=(), affected=(), candidates=(), workload=None):
        cfg = SimConfig(peer_count=1 + len(relays), content_size_kb=512.0,
                        sim_duration=math.inf)
        scenario = FailureScenario(frozenset(affected), region="Beijing")
        sim = fixed_list_simulation(cfg, [requester, *relays], scenario,
                                    {requester.id: tuple(candidates)} if candidates else {})
        if workload is not None:
            rows = row_by_id(sim.population)
            sim.ledger.workload.update({rows[pid]: n for pid, n in workload.items()})
        sim.run()
        (out,) = [o for o in sim.outcomes if o.requester_id == requester.id]
        return out, sim

    def test_unaffected_served_by_server(self):
        out, _ = self.download(make_peer(0, down=4096.0))
        assert out.served_by == SERVER
        assert out.attempts == 0
        assert not out.entered_relay_phase
        # 10 ms handshake + 4096 kbit / 4096 kbps
        assert out.end_time == pytest.approx(1.01)

    def test_session_too_short_for_server(self):
        out, _ = self.download(make_peer(0, dur=0.5))
        assert out.served_by is None
        assert out.attempts == 0
        assert out.end_time == 0.5

    def test_primary_success(self):
        out, sim = self.download(make_peer(0), [make_peer(1)], affected={0},
                                 candidates=(1,))
        assert out.served_by == 1
        assert out.attempts == 1
        assert primary_success(out)
        assert out.entered_relay_phase
        assert [o.requester_id for o in sim.outcomes if o.entered_relay_phase] == [0]
        assert sim.ledger.in_use_kbps == {} and sim.ledger.workload == {}
        # handshake + 4096 kbit / min(1024 uplink, 4096 down, 4096 share)
        assert out.end_time == pytest.approx(0.01 + 4.0)

    def test_affected_candidate_then_unaffected(self):
        out, _ = self.download(make_peer(0), [make_peer(1), make_peer(2)],
                               affected={0, 1}, candidates=(1, 2))
        assert out.attempts == 2
        assert out.served_by == 2
        assert not primary_success(out)

    def test_exhausted_list_unserved(self):
        out, _ = self.download(make_peer(0), [make_peer(1)], affected={0, 1},
                               candidates=(1,))
        assert out.served_by is None
        assert out.attempts == 1

    def test_requester_death_terminal(self):
        # dies before the 4 s transfer ends
        out, _ = self.download(make_peer(0, dur=2.0), [make_peer(1), make_peer(2)],
                               affected={0}, candidates=(1, 2))
        assert out.served_by is None
        assert out.attempts == 1
        assert out.end_time == 2.0

    def test_relay_death_tries_next(self):
        out, _ = self.download(make_peer(0), [make_peer(1, dur=2.0), make_peer(2)],
                               affected={0}, candidates=(1, 2))
        assert out.served_by == 2
        assert out.attempts == 2
        # dying relay holds the request until its departure at t=2
        assert out.end_time == pytest.approx(2.0 + 0.01 + 4.0)

    def test_offline_relay_rejected_cheaply(self):
        out, _ = self.download(make_peer(0), [make_peer(1, join=500.0)], affected={0},
                               candidates=(1,))
        assert out.served_by is None
        assert out.end_time == pytest.approx(0.01)

    def test_online_window_half_open(self):
        # a relay is online over [join, join + duration), here [10, 70):
        # join inclusive, departure exclusive, and offline attempts rejected
        # (a rejected attempt without handshake latency ends its request at t)
        relay = make_peer(2, join=10.0, dur=60.0)
        for t in (0.0, 9.9, 9.999, 10.0, 40.0, 69.9, 69.999, 70.0, 200.0):
            outside = t < 10.0 or t >= 70.0
            out = one_attempt(relay, make_peer(5), t, content_size_kb=512.0)
            assert (out.end_time == t and out.served_by is None) == outside

    def test_requester_gone_after_rejected_handshake(self):
        out, _ = self.download(make_peer(0, dur=0.005),
                               [make_peer(1, join=500.0), make_peer(2, join=500.0)],
                               affected={0}, candidates=(1, 2))
        assert out.served_by is None
        assert out.attempts == 1
        assert out.end_time == 0.005

    def test_workload_share_binds_rate(self):
        out, _ = self.download(make_peer(0, down=40960.0),
                               [make_peer(1, up=10240.0, down=4096.0)], affected={0},
                               candidates=(1,), workload={1: 1})
        # share = 4096 / (1+1) = 2048 kbps beats uplink and downlink
        assert out.end_time == pytest.approx(0.01 + 4096.0 / 2048.0)

    def test_cross_city_handshake(self):
        out, sim = self.download(make_peer(0, city="Beijing"),
                                 [make_peer(1, city="Shanghai")], affected={0},
                                 candidates=(1,))
        table = CityTable(sim.cfg.city_table)
        km = haversine_km(*table.coords("Beijing"), *table.coords("Shanghai"))
        handshake = 2.0 * (5.0 + 0.02 * km) / 1000.0
        assert out.end_time == pytest.approx(handshake + 4.0, abs=1e-9)

    def test_handshakes_follow_each_population_city_order(self):
        # City codes follow first appearance in the peer list, not the
        # cfg.city_table order. A bystander in Wuhan, listed first or last,
        # moves the codes of Beijing and Shanghai; both runs must pay the
        # Beijing-Shanghai handshake.
        cfg = SimConfig(peer_count=3, content_size_kb=512.0, sim_duration=math.inf)
        table = CityTable(cfg.city_table)
        km = haversine_km(*table.coords("Beijing"), *table.coords("Shanghai"))
        handshake = 2.0 * (5.0 + 0.02 * km) / 1000.0
        pair = [make_peer(0, city="Beijing"), make_peer(1, city="Shanghai")]
        bystander = make_peer(2, city="Wuhan", join=1.0)
        for peers in ([bystander, *pair], [*pair, bystander], [bystander, *pair]):
            sim = fixed_list_simulation(cfg, peers, FailureScenario(frozenset({0})),
                                        {0: (1,)})
            sim.run()
            (out,) = [o for o in sim.outcomes if o.requester_id == 0]
            assert out.served_by == 1
            assert out.end_time == pytest.approx(handshake + 4.0, abs=1e-9)

    def test_unknown_city_fails_loudly(self):
        cfg = SimConfig(peer_count=2)
        known = [make_peer(0), make_peer(1, city="Wuhan")]
        Simulation(cfg, Population(peer_columns(known), FailureScenario(frozenset())))
        for cities in (("Atlantis", "Beijing"), ("Beijing", "Atlantis")):
            peers = [make_peer(i, city=city) for i, city in enumerate(cities)]
            population = Population(peer_columns(peers), FailureScenario(frozenset()))
            with pytest.raises(UnknownCityError, match="Atlantis"):
                Simulation(cfg, population)

    def test_attempts_bounded_by_list(self):
        relays = [make_peer(i) for i in range(1, 6)]
        out, _ = self.download(make_peer(0), relays, affected={0, 1, 2, 3, 4, 5},
                               candidates=(1, 2, 3, 4, 5))
        assert out.attempts <= 5
        assert out.served_by is None


    def test_delivery_frees_capacity_before_a_retry_at_the_same_instant(self):
        # Requester 0 loses its slow relay 3 at t = 4.01, the instant requester
        # 2's transfer from relay 1 completes; the completion is handled first,
        # so relay 1's uplink is free when requester 0 turns to it.
        peers = [make_peer(0), make_peer(1), make_peer(2),
                 make_peer(3, up=512.0, dur=4.01)]
        cfg = SimConfig(peer_count=4, content_size_kb=512.0, sim_duration=math.inf)
        scenario = FailureScenario(frozenset({0, 2}), region="Beijing")
        sim = fixed_list_simulation(cfg, peers, scenario, {0: (3, 1), 2: (1,)})
        sim.run()
        first, _, second, _ = sim.outcomes
        assert (second.served_by, second.end_time) == (1, 4.01)
        assert first.served_by == 1
        assert first.attempts == 2
        assert first.end_time == pytest.approx(4.01 + 0.01 + 4.0)

    def test_zero_handshake_reject_resolves_before_a_same_instant_issue(self):
        # With no latency, requester 1's reject of the offline relay 3
        # resolves at t = 0, the instant requester 2 is issued; the
        # resolution runs first, so requester 1 takes relay 0's whole uplink.
        peers = [make_peer(0), make_peer(1), make_peer(2), make_peer(3, join=500.0)]
        cfg = SimConfig(peer_count=4, content_size_kb=512.0, latency_base_ms=0.0,
                        latency_per_km_ms=0.0, sim_duration=math.inf)
        scenario = FailureScenario(frozenset({1, 2}), region="Beijing")
        sim = fixed_list_simulation(cfg, peers, scenario, {1: (3, 0), 2: (0,)})
        sim.run()
        by_id = {o.requester_id: o for o in sim.outcomes}
        assert (by_id[1].served_by, by_id[1].attempts, by_id[1].end_time) == (0, 2, 4.0)
        assert (by_id[2].served_by, by_id[2].attempts, by_id[2].end_time) == (None, 1, 0.0)


class TestSimulation:
    def test_no_failure_no_relay_full_success(self):
        rep = run(small_cfg(failure_ratio=0.0, strategy="no-relay"))
        assert rep.success_ratio == 1.0
        assert rep.served_by_relay == 0
        assert rep.relay_phase_requests == 0

    def test_conservation(self):
        rep = run(small_cfg(sim_duration=math.inf))
        assert rep.total_requests == 60
        assert rep.served_by_server + rep.served_by_relay + rep.unserved == 60

    def test_everything_released_at_end(self):
        sim = Simulation(small_cfg(sim_duration=math.inf))
        sim.run()
        for row in range(len(sim.population.ids)):
            assert sim.ledger.in_use_kbps.get(row, 0.0) == 0.0
            assert sim.ledger.workload.get(row, 0) == 0
        assert sim.ledger.in_use_kbps == {} and sim.ledger.workload == {}
        # the failure did send requests to relays
        assert any(o.entered_relay_phase for o in sim.outcomes)

    def test_supplied_population_left_unchanged(self):
        cfg = small_cfg(sim_duration=math.inf)
        population = draw_population(cfg)
        columns = ("ids", "city", "isp", "uplink", "downlink", "join", "dep", "cut", "by_id")
        before = copy.deepcopy([getattr(population, name) for name in columns])
        for strategy in ("random", "path-aware"):
            sim = Simulation(replace(cfg, strategy=strategy), population)
            sim.run()
            assert sim.ledger.in_use_kbps == {} and sim.ledger.workload == {}
            assert any(o.entered_relay_phase for o in sim.outcomes)
            # no run or caller can write through the shared columns
            out = sim.outcomes
            for column in ([getattr(population, name) for name in columns]
                           + [out.requester_id, out.start_time, out.entered_relay_phase]):
                assert not column.flags.writeable
        assert all(np.array_equal(getattr(population, name), column)
                   for name, column in zip(columns, before))

    def test_shared_draw_matches_own_draw(self):
        cfg = small_cfg(rng_seed=4)
        population = draw_population(cfg)
        for strategy in ("no-relay", "random", "path-aware"):
            cell = replace(cfg, strategy=strategy)
            shared = Simulation(cell, population)
            own = Simulation(cell)
            assert shared.run() == own.run()
            assert list(shared.outcomes) == list(own.outcomes)

    def test_peers_are_immutable(self):
        peer = make_peer(1)
        with pytest.raises(AttributeError):
            peer.uplink_kbps = 1.0
        assert not hasattr(peer, "workload")

    def test_outcomes_have_terminal_state(self):
        sim = Simulation(small_cfg())
        sim.run()
        for o in sim.outcomes:
            assert o.end_time is not None
            assert o.served_by in (SERVER, None) or isinstance(o.served_by, int)
            if primary_success(o):
                assert o.attempts == 1
            if o.served_by == SERVER:
                assert o.attempts == 0
            assert o.attempts <= sim.cfg.zeta

    def test_bit_identical_runs(self):
        cfg = small_cfg(rng_seed=5)
        sim1, sim2 = Simulation(cfg), Simulation(cfg)
        rep1, rep2 = sim1.run(), sim2.run()
        assert rep1 == rep2
        assert len(sim1.outcomes) == len(sim2.outcomes)
        for a, b in zip(sim1.outcomes, sim2.outcomes):
            assert a == b

    def test_population_shared_across_strategies(self):
        cfg = small_cfg(rng_seed=9)
        a = Simulation(replace(cfg, strategy="random"))
        b = Simulation(replace(cfg, strategy="path-aware"))
        assert peers_of(a.population) == peers_of(b.population)
        assert a.population.scenario.affected == b.population.scenario.affected

    def test_single_shot(self):
        sim = Simulation(small_cfg())
        sim.run()
        with pytest.raises(RuntimeError):
            sim.run()

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            Simulation(small_cfg(strategy="psychic"))

    def test_relay_strategies_beat_no_relay_here(self):
        cfg = small_cfg(peer_count=200, sim_duration=1800.0)
        no_relay = run(replace(cfg, strategy="no-relay"))
        random_rep = run(replace(cfg, strategy="random"))
        path = run(replace(cfg, strategy="path-aware"))
        assert random_rep.success_ratio > no_relay.success_ratio
        assert path.success_ratio > no_relay.success_ratio
        assert no_relay.affected_success_ratio == 0.0

    def test_duplicate_peer_ids_rejected(self):
        population = draw_population(small_cfg(peer_count=50))
        peers = peers_of(population)
        with pytest.raises(ValueError, match="unique"):
            Population(peer_columns([*peers, peers[7]]), population.scenario)

    def test_negative_peer_ids_rejected(self):
        # Outcomes.served_by codes the server and unserved as negative ids
        peers = [make_peer(0), make_peer(-1)]
        with pytest.raises(ValueError, match="non-negative"):
            Population(peer_columns(peers), FailureScenario(frozenset()))

    @pytest.mark.parametrize("field, value, rule", [
        ("join", math.nan, "a finite join"), ("join", math.inf, "a finite join"),
        ("join", -math.inf, "a finite join"),
        ("dur", math.nan, "a non-negative duration"), ("dur", -5.0, "a non-negative duration"),
        ("up", math.nan, "a finite non-negative uplink"),
        ("up", math.inf, "a finite non-negative uplink"),
        ("up", -1.0, "a finite non-negative uplink"),
        ("down", 0.0, "a finite positive downlink"), ("down", -1.0, "a finite positive downlink"),
        ("down", math.nan, "a finite positive downlink"),
        ("down", math.inf, "a finite positive downlink")])
    def test_peers_no_run_can_simulate_are_rejected(self, field, value, rule):
        # Unchecked, a duration of -5 ends a request before it starts, a NaN
        # join drops the peer's request and a zero downlink divides by zero.
        # The first peer listed that breaks the rule is named, here 7.
        peers = [make_peer(0), make_peer(7, **{field: value}), make_peer(3, **{field: value})]
        with pytest.raises(ValueError, match=f"^peer 7 needs {rule}$"):
            Population(peer_columns(peers), FailureScenario(frozenset()))

    def test_affected_ids_the_population_lacks_are_rejected(self):
        # Unchecked, they cut no one off and the run reports 0 affected
        # requests; the smallest missing id is named.
        columns = peer_columns([make_peer(0), make_peer(5), make_peer(2)])
        for affected in ({10**9}, {0, 7, 10**9, 3}):
            with pytest.raises(ValueError, match=rf"^affected peer {min(affected - {0})} is "
                                                 r"not in the population$"):
                Population(columns, FailureScenario(frozenset(affected)))
        assert Population(columns, FailureScenario(frozenset({0, 2}))).affected.tolist() == [
            True, False, True]

    def test_endless_sessions_and_idle_uplinks_are_accepted(self):
        peers = [make_peer(0, dur=math.inf, up=0.0), make_peer(1, dur=0.0)]
        population = Population(peer_columns(peers), FailureScenario(frozenset()))
        assert population.dep.tolist() == [math.inf, 0.0]

    def test_run_returns_report(self):
        rep = run(small_cfg())
        assert isinstance(rep, MetricsReport)
        assert rep.total_requests > 0

    def test_zero_length_session_never_goes_online(self):
        # Its departure runs before its arrival at the same instant, so
        # admitting it would keep it online for good.
        peers = [make_peer(0, join=0.0, dur=0.0), make_peer(1, join=5.0, dur=100.0)]
        scenario = FailureScenario(frozenset({1}))
        population = Population(peer_columns(peers), scenario)
        cfg = small_cfg(strategy="random")
        lists, pools = reference_draws(cfg, peers, scenario)
        sim = Simulation(cfg, population)
        sim.run()
        # peer 1 drew from an empty pool: peer 0 was never online, and the
        # requester is not its own candidate
        assert pools == {1: (5.0, [], [])}
        assert candidate_lists(sim._draws) == lists == {1: ()}
        by_id = {o.requester_id: o for o in sim.outcomes}
        assert by_id[0].served_by is None and by_id[0].end_time == 0.0
        assert by_id[1].attempts == 0 and by_id[1].served_by is None

    def test_candidates_need_their_population(self):
        cfg = small_cfg(strategy="random")
        draws = draw_candidates(cfg, draw_population(cfg))
        with pytest.raises(ValueError, match="another population"):
            Simulation(cfg, candidates=draws)

    def test_candidates_from_another_population_rejected(self):
        # The config key holds no failure field: without the population
        # check, B's run would look up requesters that A's draw never had.
        cfg = SimConfig(peer_count=300, rng_seed=1, strategy="random")
        draws = draw_candidates(cfg, draw_population(cfg))
        other = draw_population(replace(cfg, failure_ratio=0.59))
        assert set(other.ids[other.cut]) - set(candidate_lists(draws))
        with pytest.raises(ValueError, match="another population"):
            Simulation(cfg, other, draws)

    @pytest.mark.parametrize("change", [
        {"strategy": "path-aware"}, {"zeta": 4}, {"alpha": 0.5}, {"rng_seed": 1},
        {"sim_duration": 600.0}, {"tts_coeffs": (-0.01, 1.0, 3.0)}, {"tts_clamp_min": 30.0},
    ])
    def test_candidates_must_match_the_config(self, change):
        cfg = small_cfg(strategy="random")
        population = draw_population(cfg)
        draws = draw_candidates(cfg, population)
        with pytest.raises(ValueError, match="made for"):
            Simulation(replace(cfg, **change), population, draws)
        # the content size and the workload filter are not part of the lists
        Simulation(replace(cfg, content_size_kb=16000.0, gamma=0.5, workload_mode="count"),
                   population, draws).run()

    def test_shared_candidates_match_own_draws(self):
        cfg = small_cfg(strategy="path-aware", rng_seed=4)
        population = draw_population(cfg)
        draws = draw_candidates(cfg, population)
        # built-in ints, so ledger keys and served_by codes are too
        made, real = [], engine.generate_relay_list

        def kept(ranked, *args, **kwargs):
            made.extend((ranked, real(ranked, *args, **kwargs)))
            return made[-1]
        with mock.patch.object(engine, "generate_relay_list", kept):
            Simulation(cfg, population, draws).run()
        assert any(made[1::2]) and all(type(d) is tuple and all(type(row) is int for row in d)
                                       for d in made)
        assert CandidateDraws._fields == ("made_for", "population", "relays", "offsets")
        for column in (draws.relays, draws.offsets):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = -1
        for size in (500.0, 16000.0):
            cell = replace(cfg, content_size_kb=size)
            shared = Simulation(cell, population, draws)
            own = Simulation(cell, population)
            assert shared.run() == own.run()
            assert list(shared.outcomes) == list(own.outcomes)

    def test_no_relay_draws_no_selection_stream(self, monkeypatch):
        real = engine._stream

        def no_select(seed, label):
            assert label != engine._STREAM_SELECT
            return real(seed, label)
        monkeypatch.setattr(engine, "_stream", no_select)
        rep = run(small_cfg(strategy="no-relay"))
        assert rep.relay_phase_requests > 0


def scheduled_by_priority(sim):
    """Run sim, counting the attempt resolutions it schedules (its
    heapq.heappush calls) by priority; returns (report, counts)."""
    counts, real = [0] * (ATTEMPT_ABORT + 1), heapq.heappush

    def counted(heap, entry):
        counts[entry[1]] += 1
        real(heap, entry)
    with mock.patch.object(heapq, "heappush", counted):
        report = sim.run()
    return report, counts


class TestNoRelaySkipsOnlineSet:
    def test_no_arrival_or_departure_events(self, monkeypatch):
        cfg = small_cfg(rng_seed=3, strategy="no-relay")
        population = draw_population(cfg)
        peers, scenario = peers_of(population), population.scenario
        streams, real = [], engine._stream
        monkeypatch.setattr(engine, "_stream",
                            lambda *key: streams.append(key) or real(*key))
        # no-relay draws nothing and builds no selection stream
        assert candidate_lists(draw_candidates(cfg, population)) == {}
        # the relay strategy's one draw pass builds one selection stream
        relay_cfg = replace(cfg, strategy="random")
        assert candidate_lists(draw_candidates(relay_cfg, population))
        assert [key for key in streams if key[1] == engine._STREAM_SELECT] == [
            (cfg.rng_seed, engine._STREAM_SELECT)]
        # a relay-strategy run whose every list is empty: the no-relay protocol
        skipped = Simulation(cfg, population)
        tracked = Simulation(relay_cfg, population, fixed_draws(relay_cfg, population, {}))
        (skipped_report, skipped_scheduled), (tracked_report, tracked_scheduled) = (
            scheduled_by_priority(sim) for sim in (skipped, tracked))
        assert skipped_report == tracked_report
        assert list(skipped.outcomes) == list(tracked.outcomes)
        assert candidate_lists(skipped._draws) == {}
        # the loop issues the relay-phase requests and schedules their
        # resolutions only: one issue per peer cut off at a join by the
        # horizon, each ending its request at its join with no attempt (no
        # drawn session is empty, so no other row ends there), and no
        # resolution for a server fetch (no-relay has no relay attempt)
        cut = [p for p in peers
               if p.join_time <= cfg.sim_duration and scenario.cut_off(p.id, p.join_time)]
        issued = [o for o in skipped.outcomes
                  if o.end_time == o.start_time and o.attempts == 0 and o.entered_relay_phase]
        assert (skipped_scheduled, len(issued)) == ([0, 0], len(cut))
        assert len(cut) < len(peers)
        assert tracked_scheduled == skipped_scheduled
        assert any(o.entered_relay_phase for o in skipped.outcomes)


@st.composite
def small_runs(draw):
    """A hand-built population with ties in time, in a drawn list order, a
    failure draw, a strategy and a horizon. A 512 kbps downlink is below a
    1024 kbps relay uplink and its downlink share, so a requester's
    downlink can bind a relay rate.

    Two more peers share a city and ISP no other peer has: a cut-off
    requester with a 512 kbps downlink joining inside the failure window,
    and an endless relay online from time 0, its careful slot under
    path-aware. Under a relay strategy, a long horizon and a short
    handshake they make a relay-served request, and the config draws
    favour those values, so most examples hold a relay transfer."""
    n = draw(st.integers(1, 16))
    peers = [Peer(id=i, city=draw(st.sampled_from(("Beijing", "Shanghai"))),
                  isp=draw(st.integers(1, 2)),
                  uplink_kbps=draw(st.sampled_from((256.0, 1024.0))),
                  downlink_kbps=draw(st.sampled_from((512.0, 1024.0, 4096.0))),
                  join_time=draw(st.sampled_from((0.0, 0.0, 1.0, 2.0, 5.0))),
                  session_duration=draw(st.sampled_from((1.0, 3.0, 4.01, 60.0, 1e9, 1e9))))
             for i in range(n)]
    start = draw(st.sampled_from((0.0, 0.0, 1.0, 3.0)))
    end = start + draw(st.sampled_from((math.inf, 8.0, math.inf, 1.0)))
    peers += [Peer(id=n, city="Guangzhou", isp=3, uplink_kbps=1024.0, downlink_kbps=512.0,
                   join_time=start + 0.5, session_duration=1e9),
              Peer(id=n + 1, city="Guangzhou", isp=3, uplink_kbps=1024.0, downlink_kbps=4096.0,
                   join_time=0.0, session_duration=1e9)]
    affected = frozenset(draw(st.sets(st.integers(0, n - 1)))) | {n}
    scenario = FailureScenario(affected, region="Beijing", start_time=start, end_time=end)
    cfg = SimConfig(peer_count=n + 2, rng_seed=draw(st.integers(0, 2**16)),
                    zeta=draw(st.integers(1, 4)),
                    content_size_kb=draw(st.sampled_from((100.0, 100.0, 512.0, 2000.0))),
                    workload_mode=draw(st.sampled_from(("utilization", "count"))),
                    strategy=draw(st.sampled_from(("path-aware", "random") * 3 + ("no-relay",))),
                    # a 20 s handshake lets a reject outlast its requester's
                    # departure and a finite horizon after it
                    latency_base_ms=draw(st.sampled_from((5.0, 5.0, 10000.0))),
                    sim_duration=draw(st.sampled_from((math.inf, 30.0, math.inf, 6.0, math.inf,
                                                       3.0, math.inf, 1.5))))
    return cfg, draw(st.permutations(peers)), scenario


def downlink_bound_run():
    """A requester whose 512 kbps downlink is below both its one relay's
    uplink and the relay's downlink share."""
    cfg = SimConfig(peer_count=2, strategy="random", sim_duration=math.inf)
    peers = [make_peer(0, down=512.0), make_peer(1, up=4096.0, down=16384.0)]
    return cfg, peers, FailureScenario(frozenset({0}))


def crossed_reject(horizon):
    """Two cut-off peers, each the other's only candidate, and a 1.2 s
    handshake: requester 0's reject resolves past its departure at 1.0
    and, at a horizon of 1.1, past the horizon too."""
    cfg = SimConfig(peer_count=2, strategy="random", latency_base_ms=600.0,
                    sim_duration=horizon)
    return cfg, [make_peer(0, dur=1.0), make_peer(1)], FailureScenario(frozenset({0, 1}))


class TestProtocolProperties:
    @settings(max_examples=200, deadline=None)
    @given(small_runs())
    @example(crossed_reject(1.1))
    @example(downlink_bound_run())
    def test_every_request_ends_once_and_consistently(self, run_args):
        cfg, peers, scenario = run_args
        horizon = cfg.sim_duration
        sim = Simulation(cfg, Population(peer_columns(peers), scenario))
        lists = run_recording_lists(sim)
        assert sorted(o.requester_id for o in sim.outcomes) == sorted(
            p.id for p in peers if p.join_time <= horizon)
        for o in sim.outcomes:
            requester = peer_of(sim.population, o.requester_id)
            assert o.start_time <= o.end_time <= min(requester.departure_time, horizon)
            if o.served_by is not None:
                # no transfer outruns the requester's downlink
                fetch = cfg.content_size_kb * 8.0 / requester.downlink_kbps
                assert o.end_time - o.start_time >= fetch
            relay_served = isinstance(o.served_by, int)
            if relay_served:
                assert o.served_by != o.requester_id
                assert o.served_by in sim.population.ids.tolist()
            else:
                assert o.served_by in (SERVER, None)
            if o.served_by == SERVER:
                assert o.attempts == 0 and not o.entered_relay_phase
            tried = lists.get(o.requester_id, ())[:o.attempts]
            assert len(tried) == o.attempts <= cfg.zeta
            if relay_served:
                assert tried[-1] == o.served_by
            assert primary_success(o) == (relay_served and tried == (o.served_by,))
        # every relay-phase request made a list, and no path-aware list
        # holds a relay-phase requester issued no later than its owner: the
        # fetch-failure history at that request
        relay_phase = [o.requester_id for o in sim.outcomes if o.entered_relay_phase]
        assert set(lists) == set(relay_phase)
        if cfg.strategy == "path-aware":
            for i, owner in enumerate(relay_phase):
                assert not set(lists[owner]) & set(relay_phase[:i + 1])
        if horizon == math.inf:
            # a finite horizon may cut transfers that still hold capacity
            assert sim.ledger.in_use_kbps == {} and sim.ledger.workload == {}

    def test_committed_rate_fits_free_uplink_and_downlink(self):
        # Each RelayLedger.commit is checked against the ledger it commits
        # to. The resolution the run schedules next holds the requester's
        # row, the relay and the rate it holds, so it names the downlink.
        # The example is one where the requester's downlink binds, as
        # small_runs' 512 kbps downlinks can.
        commit_counts = []

        @settings(max_examples=200, deadline=None)
        @given(small_runs())
        @example(downlink_bound_run())
        def check(run_args):
            cfg, peers, scenario = run_args
            commits, held = [], []
            real_commit, real_push = RelayLedger.commit, heapq.heappush

            def commit(ledger, relay, uplink_kbps, kbps):
                commits.append((relay, kbps, ledger.uplink_free_kbps(relay, uplink_kbps)))
                real_commit(ledger, relay, uplink_kbps, kbps)

            def push(heap, entry):
                _, _, _, row, _, _, relay, rate, _ = entry
                if rate:
                    held.append((relay, rate, row))
                real_push(heap, entry)
            sim = Simulation(cfg, Population(peer_columns(peers), scenario))
            with mock.patch.object(RelayLedger, "commit", commit), \
                    mock.patch.object(heapq, "heappush", push):
                sim.run()
            assert [c[:2] for c in commits] == [h[:2] for h in held]
            downlink = sim.population.downlink
            for (_, rate, free_uplink), (_, _, row) in zip(commits, held):
                assert rate <= min(free_uplink, downlink[row]) + RATE_EPS
            commit_counts.append(len(commits))

        check()
        assert any(commit_counts), "no example committed a transfer"

    @settings(max_examples=200, deadline=None)
    @given(small_runs(), st.data())
    def test_peer_order_does_not_matter_with_distinct_joins(self, run_args, data):
        # With equal join times, arrivals and requests at one instant run in
        # list order, so only distinct joins are order-free.
        cfg, peers, scenario = run_args
        quarters = data.draw(st.lists(st.integers(0, 40), min_size=len(peers),
                                      max_size=len(peers), unique=True))
        peers = [dataclasses.replace(p, join_time=q / 4.0) for p, q in zip(peers, quarters)]
        shuffled = data.draw(st.permutations(peers))
        runs = [Simulation(cfg, Population(peer_columns(order), scenario))
                for order in (peers, shuffled)]
        reports = [sim.run() for sim in runs]
        assert reports[0] == reports[1]
        by_id = [sorted(sim.outcomes, key=lambda o: o.requester_id) for sim in runs]
        assert by_id[0] == by_id[1]


# (latency_base_ms, latency_per_km_ms) pairs. With both zero every
# handshake is zero, so a reject resolves at the instant its attempt
# starts, which may be the join of another relay-phase request: the
# resolution must still run before that request is issued.
LATENCIES = ((5.0, 0.02), (5.0, 0.02), (250.0, 0.02), (10000.0, 0.02), (0.0, 0.0))


@st.composite
def reference_runs(draw):
    """Hand-built populations for the whole-run reference: same-instant
    joins and departures, zero-length and endless sessions, most peers cut
    off so that requesters share relays, capacities under which a relay's
    fair downlink share binds, failure windows whose edges fall on joins,
    and finite horizons."""
    n = draw(st.integers(2, 16))
    peers = [Peer(id=i, city=draw(st.sampled_from(("Beijing", "Shanghai"))),
                  isp=draw(st.integers(1, 2)),
                  uplink_kbps=draw(st.sampled_from((256.0, 1024.0, 4096.0))),
                  downlink_kbps=draw(st.sampled_from((512.0, 1024.0, 4096.0))),
                  join_time=draw(st.sampled_from((0.0, 0.0, 0.5, 1.0, 2.0, 4.0, 6.0))),
                  session_duration=draw(st.sampled_from((0.0, 1.0, 3.0, 60.0, math.inf,
                                                         math.inf))))
             for i in range(n)]
    cut = st.sampled_from((True, True, True, False))
    affected = frozenset(i for i in range(n) if draw(cut))
    start = draw(st.sampled_from((0.0, 1.0, 2.0)))
    end = start + draw(st.sampled_from((1.0, 2.0, math.inf, math.inf)))
    scenario = FailureScenario(affected, region="Beijing", start_time=start, end_time=end)
    base_ms, per_km_ms = draw(st.sampled_from(LATENCIES))
    cfg = SimConfig(peer_count=n, rng_seed=draw(st.integers(0, 2**16)),
                    zeta=draw(st.integers(1, 4)),
                    alpha=draw(st.one_of(st.sampled_from((0.0, 0.5, 1.0)),
                                         st.floats(0.0, 1.0))),
                    gamma=draw(st.sampled_from((0.5, 1.0))),
                    content_size_kb=draw(st.sampled_from((100.0, 100.0, 100.0, 512.0,
                                                          2000.0))),
                    workload_mode=draw(st.sampled_from(("utilization", "count"))),
                    strategy=draw(st.sampled_from(("no-relay", "random", "path-aware"))),
                    latency_base_ms=base_ms, latency_per_km_ms=per_km_ms,
                    sim_duration=draw(st.sampled_from((2.0, 4.5, 30.0, math.inf, math.inf,
                                                       math.inf))))
    return cfg, draw(st.permutations(peers)), scenario


@st.composite
def crowded_relay_runs(draw):
    """A few relays that are never cut off and stay online, with small
    uplinks and, often, downlinks below their uplinks, and many cut-off
    requesters whose joins overlap one another's transfers. Requesters
    queue for the same relays, so the release of capacity when an attempt
    resolves and the relay's fair downlink share both decide who is served
    and when."""
    relays = draw(st.integers(1, 3))
    n = relays + draw(st.integers(3, 12))
    peers = [Peer(id=i, city=draw(st.sampled_from(("Beijing", "Shanghai"))),
                  isp=draw(st.integers(1, 2)),
                  uplink_kbps=draw(st.sampled_from((256.0, 512.0, 1024.0))),
                  downlink_kbps=draw(st.sampled_from((128.0, 256.0, 512.0, 4096.0))),
                  join_time=0.0, session_duration=math.inf)
             for i in range(relays)]
    peers += [Peer(id=i, city=draw(st.sampled_from(("Beijing", "Shanghai"))),
                   isp=draw(st.integers(1, 2)), uplink_kbps=1024.0,
                   downlink_kbps=draw(st.sampled_from((512.0, 4096.0))),
                   join_time=draw(st.sampled_from((0.0, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0))),
                   session_duration=draw(st.sampled_from((4.0, 10.0, 60.0, math.inf))))
              for i in range(relays, n)]
    scenario = FailureScenario(frozenset(range(relays, n)), region="Beijing",
                               end_time=draw(st.sampled_from((6.0, math.inf, math.inf))))
    base_ms, per_km_ms = draw(st.sampled_from(((5.0, 0.02), (5.0, 0.02), (0.0, 0.0))))
    cfg = SimConfig(peer_count=n, rng_seed=draw(st.integers(0, 2**16)),
                    zeta=draw(st.integers(2, 6)),
                    alpha=draw(st.sampled_from((0.0, 0.5, 1.0))),
                    gamma=draw(st.sampled_from((0.5, 1.0))),
                    content_size_kb=draw(st.sampled_from((50.0, 100.0, 200.0))),
                    workload_mode=draw(st.sampled_from(("utilization", "count"))),
                    strategy=draw(st.sampled_from(("random", "path-aware", "path-aware"))),
                    latency_base_ms=base_ms, latency_per_km_ms=per_km_ms,
                    sim_duration=draw(st.sampled_from((7.0, math.inf, math.inf))))
    return cfg, draw(st.permutations(peers)), scenario


class TestWholeRunReference:
    """Whole runs against tests/reference.py, a slow model written from the
    protocol's rules: every request's server, attempt count, end time and
    relay-phase flag must match exactly."""

    @staticmethod
    def check(cfg, peers, scenario):
        sim = Simulation(cfg, Population(peer_columns(peers), scenario))
        sim.run()
        got = {o.requester_id: (o.served_by, o.attempts, o.end_time, o.entered_relay_phase)
               for o in sim.outcomes}
        assert len(got) == len(sim.outcomes)
        assert got == reference_run(cfg, peers, scenario)

    @settings(max_examples=400, deadline=None)
    @given(reference_runs())
    @example(crossed_reject(1.1))
    def test_outcomes_match_the_reference(self, run_args):
        self.check(*run_args)

    @settings(max_examples=400, deadline=None)
    @given(crowded_relay_runs())
    def test_crowded_relays_match_the_reference(self, run_args):
        self.check(*run_args)


class TestHorizon:
    @pytest.mark.parametrize("horizon", [1.1, math.inf])
    def test_open_request_ends_by_its_departure(self, horizon):
        cfg, peers, scenario = crossed_reject(horizon)
        sim = Simulation(cfg, Population(peer_columns(peers), scenario))
        sim.run()
        assert [(o.requester_id, o.served_by, o.attempts) for o in sim.outcomes] == [
            (0, None, 1), (1, None, 1)]
        assert [o.end_time for o in sim.outcomes] == [1.0, min(1.2, horizon)]


@st.composite
def draw_populations(draw):
    """A population whose join and departure times collide: same-instant
    joins, zero-length and infinite sessions, departures landing on other
    peers' joins, and joins past a finite horizon. Ids are sparse, with
    gaps from 1 up to 10**12, so no id is its id rank, and the peers are
    listed in a drawn order."""
    n = draw(st.integers(1, 20))
    ids = np.cumsum(draw(st.lists(st.sampled_from((1, 2, 5, 10**11)), min_size=n,
                                  max_size=n))).tolist()
    peers = [Peer(id=i, city=draw(st.sampled_from(("Beijing", "Shanghai"))),
                  isp=draw(st.integers(1, 2)), uplink_kbps=1024.0, downlink_kbps=4096.0,
                  join_time=draw(st.sampled_from((0.0, 0.0, 1.0, 2.0, 3.0, 5.0, 8.0))),
                  session_duration=draw(st.sampled_from((0.0, 1.0, 2.0, 3.0, math.inf))))
             for i in ids]
    start = draw(st.sampled_from((0.0, 1.0, 2.0)))
    end = start + draw(st.sampled_from((2.0, math.inf)))
    scenario = FailureScenario(frozenset(draw(st.sets(st.sampled_from(ids)))),
                               region="Beijing", start_time=start, end_time=end)
    cfg = SimConfig(peer_count=n, rng_seed=draw(st.integers(0, 2**16)),
                    zeta=draw(st.integers(1, 4)),
                    alpha=draw(st.sampled_from((0.0, 0.2, 0.5, 1.0))),
                    sim_duration=draw(st.sampled_from((3.0, 5.0, math.inf))))
    return cfg, draw(st.permutations(peers)), scenario


class TestColumnsOnly:
    """Runs read the population's columns."""

    @pytest.mark.parametrize("source", ["draw", "trace"])
    def test_rows_round_trip_to_equal_columns(self, source):
        cfg = SimConfig(peer_count=500, rng_seed=1)
        if source == "draw":
            population = draw_population(cfg)
        else:
            # a trace listed out of join order: ids are not issue rows
            rows = trace_rows(synthesize_trace(500, seed=2, fail_fraction=0.5))
            trace = trace_columns(rows[::-1])
            population = Population(build_trace_peers(trace, cfg, np.random.default_rng(3)),
                                    FailureScenario(frozenset(range(0, 500, 2))))
            assert population.ids.tolist() != list(range(500))
        again = Population(peer_columns(peers_of(population)), population.scenario)
        for name in ("ids", "isp", "uplink", "downlink", "join", "dep", "affected", "cut",
                     "in_region", "by_id"):
            assert np.array_equal(getattr(again, name), getattr(population, name)), name
        # city codes index each population's own city names
        names = [[p.cities[code] for code in p.city.tolist()] for p in (population, again)]
        assert names[0] == names[1]

    def test_by_id_maps_ids_to_rows(self):
        peers = [make_peer(7, join=2.0, dur=3.0), make_peer(3, city="Wuhan", isp=2, join=1.0),
                 make_peer(5, join=0.5)]
        population = Population(peer_columns(peers), FailureScenario(frozenset()))
        assert population.ids.tolist() == [5, 3, 7] and population.by_id.tolist() == [1, 0, 2]
        assert [peer_of(population, pid) for pid in (7, 3, 5)] == peers
        assert peer_of(population, np.int64(7)) == peers[0]
        for missing in (0, 4, 6, 8, -1):
            with pytest.raises(KeyError):
                peer_of(population, missing)

    @pytest.mark.parametrize("strategy", ["random", "path-aware"])
    def test_no_array_is_sized_by_the_largest_id(self, strategy):
        # requesters 1 and 2 are cut off and served by the peer with id
        # 10**7; peer 3, which joins after both, has an ISP of 10**12, so a
        # list sized by its raw bucket code would not fit in memory
        peers = [make_peer(10**7), make_peer(1, join=1.0), make_peer(2, join=1000.0),
                 make_peer(3, isp=10**12, join=2000.0)]
        population = Population(peer_columns(peers), FailureScenario(frozenset({1, 2})))
        cfg = small_cfg(peer_count=3, strategy=strategy, sim_duration=math.inf)
        sim = Simulation(cfg, population)
        sim.run()
        assert [(o.requester_id, o.served_by) for o in sim.outcomes if o.entered_relay_phase] == [
            (1, 10**7), (2, 10**7)]
        arrays = [v for v in vars(population).values() if isinstance(v, np.ndarray)]
        assert arrays and all(v.size <= len(peers) for v in arrays)
        assert peer_of(population, 10**7) == peers[0]
        with pytest.raises(KeyError):
            peer_of(population, 10**7 - 1)

    def test_a_run_copies_no_column(self):
        # The loop reads and writes its columns through memoryviews. A list
        # copy of one float column costs a pointer and a float object per
        # peer, and the peak of a run stays below two such lists.
        n = 20_000
        cfg = SimConfig(peer_count=n, strategy="path-aware")
        population = draw_population(cfg)
        draws = draw_candidates(cfg, population)
        tracemalloc.start()
        try:
            Simulation(cfg, population, draws).run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * n * (8 + sys.getsizeof(0.5))

    def test_the_draw_pass_holds_no_event_record(self):
        # At 20,000 path-aware peers the draw pass holds at once, per
        # issued peer: bucket_of, a list slot per peer (8 B), and the live
        # peers' id ranks and arrive and leave steps as int32 (12 B), with
        # either the columns they are compacted from (id ranks, steps and
        # the live mask, 13 B) or one stream's int64 sort order and sorted
        # id ranks (12 B): 33 B. Per requester: its step columns (rank,
        # later, pool, same, the two streams' starts and the part lengths,
        # 64 B), the relay table sized by the draws' lengths (zeta = 10
        # rows of 8 B) and the table sizes and offsets, 200 B in all. A
        # block holds at most _RANK_BLOCK steps and events as ints (28 B)
        # in two lists (16 B). A record per event, or an int64 column per
        # issued peer beside the step columns, does not fit.
        n = 20_000
        cfg = SimConfig(peer_count=n, strategy="path-aware")
        population = draw_population(cfg)
        requesters = np.count_nonzero(population.cut[:population.issued_by(cfg.sim_duration)])
        tracemalloc.start()
        try:
            draw_candidates(cfg, population)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cfg.zeta == 10
        assert peak < 33 * n + 200 * requesters + 44 * engine._RANK_BLOCK

    def test_a_whole_run_holds_each_column_once(self):
        # From its config to its metrics, a 20,000-peer path-aware run holds
        # per peer the Population's eight 8 B columns (ids, city, isp,
        # uplink, downlink, join, dep and by_id) and three masks, 67 B, and
        # on top the largest of: the build's duration column (8 B), the draw
        # pass's 33 B (above), and the run's three outcome columns with one
        # float temporary (32 B); 100 B in all. Per requester it holds the
        # scenario's affected id, an int in a frozenset (120 B), and the
        # draw pass's 200 B. A Population that copies the columns it is
        # built from, or a draw pass that sizes int64 temporaries by the
        # issued peers, does not fit.
        n = 20_000
        cfg = SimConfig(peer_count=n, strategy="path-aware")
        tracemalloc.start()
        try:
            population = draw_population(cfg)
            Simulation(cfg, population, draw_candidates(cfg, population)).run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        requesters = np.count_nonzero(population.cut[:population.issued_by(cfg.sim_duration)])
        assert peak < 100 * n + 320 * requesters + 44 * engine._RANK_BLOCK

    def test_a_population_shares_only_read_only_columns(self):
        # build_population's columns are read-only and in issue order, so
        # the Population holds them, not copies
        columns = build_population(SimConfig(peer_count=50), _stream(1, _STREAM_POPULATION))
        population = Population(columns, FailureScenario(frozenset({3})))
        for name in ("ids", "city", "isp", "uplink", "downlink", "join"):
            assert getattr(population, name) is getattr(columns, name), name
        with pytest.raises(ValueError):
            columns.join[0] = 1.0

    @pytest.mark.parametrize("listed", ["in join order", "reversed"])
    def test_a_population_keeps_no_view_of_writable_columns(self, listed):
        # the caller's columns are writable, or a read-only view of a
        # writable array (join); writes after the build do not reach the
        # Population, in issue order as listed or not
        n = 6
        order = slice(None) if listed == "in join order" else slice(None, None, -1)
        join = np.arange(n, dtype=np.float64)[order].copy()
        view = join.view()
        view.flags.writeable = False
        writable = (np.arange(n)[order].copy(), np.array([0, 1] * 3), np.ones(n, np.int64),
                    np.full(n, 1024.0), np.full(n, 4096.0), join, np.full(n, 10.0))
        columns = PeerColumns(("Beijing", "Wuhan"), *writable[:5], view, writable[6])
        population = Population(columns, FailureScenario(frozenset({1, 4}), region="Beijing"))
        names = ("ids", "city", "isp", "uplink", "downlink", "join", "dep", "cut", "in_region")
        before = {name: getattr(population, name).copy() for name in names}
        for column in writable:
            column += 1
        for name in names:
            assert np.array_equal(getattr(population, name), before[name]), name
            assert not any(np.shares_memory(getattr(population, name), c) for c in writable)


def unread_buckets():
    """Every requester draws from Beijing ISP 1, while peers of the three
    other buckets arrive and leave at the requesters' steps (joins 1, 2, 3
    and 5), some at the same instant as a same-bucket peer."""
    peers = [make_peer(10**11 + 9, join=1.0), make_peer(40, join=2.0, dur=1.0),
             make_peer(12, join=3.0), make_peer(7, join=5.0),
             make_peer(2, join=0.0, dur=9.0), make_peer(31, join=2.0, dur=3.0),
             make_peer(5, city="Shanghai", join=0.0, dur=2.0),
             make_peer(3, city="Shanghai", isp=2, join=1.0, dur=2.0),
             make_peer(8, isp=2, join=2.0, dur=3.0),
             make_peer(11, city="Shanghai", join=3.0),
             make_peer(6, city="Shanghai", isp=2, join=1.0, dur=0.0),
             make_peer(10**11, isp=2, join=0.0, dur=5.0)]
    scenario = FailureScenario(frozenset({10**11 + 9, 40, 12, 7}), region="Beijing")
    cfg = SimConfig(peer_count=len(peers), rng_seed=3, zeta=4, alpha=0.5,
                    sim_duration=math.inf)
    return cfg, peers, scenario


class TestDrawPass:
    @settings(max_examples=300, deadline=None)
    @given(draw_populations(), st.sampled_from(("random", "path-aware")),
           st.sampled_from((1, 3, 2048)))
    @example(unread_buckets(), "path-aware", 1)
    @example(unread_buckets(), "path-aware", 3)
    @example(unread_buckets(), "path-aware", 2048)
    def test_pools_are_the_online_peers_at_the_request(self, case, strategy, block):
        # reference_draws checks that its pools are the online peers at each
        # join, and its bucket pools the same-bucket ones; blocks of 1 and 3
        # requesters carry the sweep's lists across block edges
        cfg, peers, scenario = case
        cfg = replace(cfg, strategy=strategy)
        with mock.patch.object(engine, "_RANK_BLOCK", block):
            lists = candidate_lists(draw_candidates(cfg, Population(peer_columns(peers),
                                                                    scenario)))
        want, pools = reference_draws(cfg, peers, scenario)
        requesters = {p.id for p in peers if p.join_time <= cfg.sim_duration
                      and scenario.cut_off(p.id, p.join_time)}
        assert set(pools) == set(lists) == requesters
        assert lists == want

    @pytest.mark.parametrize("strategy", ["random", "path-aware"])
    def test_request_at_a_departure_and_past_the_horizon(self, strategy):
        # Peer 1 leaves at t = 2, the instant peer 2 joins; peer 3 joins at
        # the same instant; peer 4 joins past the finite horizon.
        peers = [make_peer(0, join=0.0, dur=math.inf), make_peer(1, join=1.0, dur=1.0),
                 make_peer(2, join=2.0, dur=5.0), make_peer(3, join=2.0, dur=0.0),
                 make_peer(4, join=4.0, dur=5.0)]
        scenario = FailureScenario(frozenset({1, 2, 3, 4}))
        cfg = small_cfg(strategy=strategy, sim_duration=3.0)
        lists, pools = reference_draws(cfg, peers, scenario)
        assert pools == {1: (1.0, [0], [0]), 2: (2.0, [0], [0]), 3: (2.0, [0, 2], [0, 2])}
        draws = draw_candidates(cfg, Population(peer_columns(peers), scenario))
        assert candidate_lists(draws) == lists

    @pytest.mark.parametrize("strategy", ["random", "path-aware"])
    def test_blocks_give_the_same_table(self, strategy, monkeypatch):
        # A trace listed out of join order, so ids are not issue rows, whose
        # joins are rounded to 5 s so equal joins straddle block edges of 1
        # and 3 requesters; every fourth session is empty.
        records = [replace(rec, request_ts=5.0 * (rec.request_ts // 5.0))
                   for rec in trace_rows(synthesize_trace(300, seed=4, fail_fraction=0.6))[::-1]]
        records = [replace(rec, leave_ts=rec.request_ts) if i % 4 == 0 else rec
                   for i, rec in enumerate(records)]
        cfg = small_cfg(strategy=strategy, peer_count=300, alpha=0.5, sim_duration=math.inf)
        columns = build_trace_peers(trace_columns(records), cfg,
                                    np.random.default_rng(5))
        population = Population(columns, FailureScenario(
            frozenset(i for i, rec in enumerate(records) if rec.fetch_failure)))
        cut = population.join[population.cut]
        assert population.ids.tolist() != sorted(population.ids.tolist())
        assert any(cut[i] == cut[i + 1] for i in range(2, len(cut) - 1, 3))
        tables = []
        for block in (1, 3, 2048):
            monkeypatch.setattr(engine, "_RANK_BLOCK", block)
            draws = draw_candidates(cfg, population)
            tables.append((draws.relays.tolist(), draws.offsets.tolist()))
        assert tables[0] == tables[1] == tables[2]
        lists, _ = reference_draws(cfg, peer_rows(columns), population.scenario)
        assert candidate_lists(draws) == lists

    def test_equal_joins_take_the_fetch_failure_history_in_issue_order(self):
        # Cut-off peers 5 and 2 join at the same instant and 5 comes first in
        # list order, so 5 is issued first though 2 ranks first by id; relay
        # 9 is not cut off. At 5's request 2 has no fetch failure on record
        # yet; at 2's, 5 has one. With alpha 0 and equal elapsed times both
        # lists are in id order, and 5's first attempt, at 2, is rejected
        # without holding capacity, so 9 is not busy at 2's request.
        peers = [make_peer(5), make_peer(2), make_peer(9)]
        cfg = small_cfg(peer_count=3, strategy="path-aware", alpha=0.0, zeta=3,
                        sim_duration=math.inf)
        lists = run_recording_lists(Simulation(cfg, Population(peer_columns(
            peers), FailureScenario(frozenset({5, 2})))))
        assert lists[5] == (2, 9)
        assert lists[2] == (9,)


# A 250 ms base latency makes the in-city server handshake 0.5 s, and 512 KB
# takes 1 s at 4096 kbps and 2 s at 2048 kbps, so a server fetch ends at
# join + 1.5 or join + 2.5, exactly, and lands on the departures and
# horizons below.
SERVER_CFG = dict(content_size_kb=512.0, latency_base_ms=250.0)


def server_oracle(peer, horizon):
    """(served_by, end_time) of one request that reaches the server: it is
    served when the fetch ends while the requester is still there and no
    later than the horizon, and otherwise ends when the requester leaves
    or the run stops, whichever comes first."""
    fetch_end = peer.join_time + 0.5 + 4096.0 / peer.downlink_kbps
    if fetch_end <= peer.departure_time and fetch_end <= horizon:
        return SERVER, fetch_end
    return None, min(peer.departure_time, horizon)


def check_server_path(cfg, peers, scenario):
    sim = Simulation(cfg, Population(peer_columns(peers), scenario))
    sim.run()
    horizon = cfg.sim_duration
    # one outcome per request issued by the horizon, in join order and, at
    # equal joins, in list order
    issued = sorted((p for p in peers if p.join_time <= horizon),
                    key=lambda p: p.join_time)
    assert [o.requester_id for o in sim.outcomes] == [p.id for p in issued]
    for peer, o in zip(issued, sim.outcomes):
        assert o.start_time == peer.join_time
        if scenario.cut_off(peer.id, peer.join_time):
            assert o.entered_relay_phase and o.served_by != SERVER
        else:
            assert not o.entered_relay_phase and o.attempts == 0
            assert (o.served_by, o.end_time) == server_oracle(peer, horizon)
    return sim.outcomes


@st.composite
def server_populations(draw):
    """Hand-built populations whose server fetches end exactly on a
    departure or the horizon, whose joins tie and land on the horizon and
    the failure window's edges, and some of whose joins come after the
    horizon."""
    n = draw(st.integers(1, 12))
    peers = [Peer(id=i, city=draw(st.sampled_from(("Beijing", "Shanghai"))), isp=1,
                  uplink_kbps=1024.0, downlink_kbps=draw(st.sampled_from((2048.0, 4096.0))),
                  join_time=draw(st.sampled_from((0.0, 0.0, 0.5, 1.0, 2.0, 4.0, 6.0))),
                  session_duration=draw(st.sampled_from((0.0, 1.0, 1.5, 2.5, 4.0, math.inf))))
             for i in range(n)]
    start = draw(st.sampled_from((0.0, 1.0, 2.0)))
    end = start + draw(st.sampled_from((1.0, 4.0, math.inf)))
    scenario = FailureScenario(frozenset(draw(st.sets(st.integers(0, n - 1)))),
                               region="Beijing", start_time=start, end_time=end)
    cfg = SimConfig(peer_count=n, rng_seed=draw(st.integers(0, 2**16)),
                    strategy=draw(st.sampled_from(("no-relay", "random", "path-aware"))),
                    sim_duration=draw(st.sampled_from((1.5, 2.5, 4.0, 6.0, math.inf))),
                    **SERVER_CFG)
    return cfg, draw(st.permutations(peers)), scenario


class TestServerFetch:
    """Server fetches are decided at issue time, outside the event loop;
    every outcome must still match a per-peer reference."""

    @settings(max_examples=300, deadline=None)
    @given(server_populations())
    def test_outcomes_match_a_per_peer_oracle(self, case):
        check_server_path(*case)

    @pytest.mark.parametrize("join, duration, horizon, expected", [
        (0.0, 1.5, math.inf, (SERVER, 1.5)),   # fetch ends on the departure
        (0.0, math.inf, 1.5, (SERVER, 1.5)),   # fetch ends on the horizon
        (0.0, math.inf, 1.0, (None, 1.0)),     # fetch ends past the horizon
        (0.0, 1.0, math.inf, (None, 1.0)),     # requester leaves first
        (0.0, 1.0, 0.75, (None, 0.75)),        # ... after the horizon
        (2.0, math.inf, 2.0, (None, 2.0)),     # join on the horizon is issued
        (2.5, math.inf, 2.0, None),            # join past it is not
    ])
    def test_edges(self, join, duration, horizon, expected):
        peer = make_peer(0, join=join, dur=duration)
        cfg = SimConfig(peer_count=1, sim_duration=horizon, **SERVER_CFG)
        outcomes = check_server_path(cfg, [peer], FailureScenario(frozenset(), "Beijing"))
        assert [(o.served_by, o.end_time) for o in outcomes] == (
            [expected] if expected else [])

    def test_failure_window_edges_and_same_instant_order(self):
        # joins at failure_start are cut off, joins at failure_end reach the
        # server, and same-instant joins keep the list order
        peers = [make_peer(pid, join=join) for pid, join in
                 ((3, 2.0), (1, 1.0), (0, 1.0), (2, 2.0), (4, 0.5))]
        scenario = FailureScenario(frozenset(range(5)), "Beijing", start_time=1.0,
                                   end_time=2.0)
        cfg = SimConfig(peer_count=5, strategy="no-relay", **SERVER_CFG)
        outcomes = check_server_path(cfg, peers, scenario)
        assert [(o.requester_id, o.entered_relay_phase) for o in outcomes] == [
            (4, False), (1, True), (0, True), (3, False), (2, False)]
