"""Event engine tests: protocol arithmetic, ledger, determinism, metrics."""

import copy
import dataclasses
import math
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relaysim import engine
from relaysim.engine import (
    ATTEMPT_ABORT,
    ATTEMPT_COMPLETE,
    REQUEST_ISSUE,
    MetricsReport,
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
from relaysim.model import RATE_EPS, CapacityError, Peer, RelayLedger, SimConfig
from relaysim.netsim import SERVER, FailureScenario
from relaysim.selection import RelayCandidateList, no_relay_list

from reference import reference_run


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
        # deliveries before aborts before request issues at the same instant,
        # and each priority indexes the run's handler tuple
        assert ATTEMPT_COMPLETE < ATTEMPT_ABORT < REQUEST_ISSUE
        assert (ATTEMPT_COMPLETE, ATTEMPT_ABORT, REQUEST_ISSUE) == (0, 1, 2)


class TestCollectMetrics:
    def test_ratio_arithmetic(self):
        outs = [RequestOutcome(i, 100.0, 0.0, served_by=SERVER) for i in range(3)]
        outs.append(RequestOutcome(3, 100.0, 0.0))
        rep = collect_metrics(outs)
        assert rep.success_ratio == 0.75
        assert rep.served_by_server == 3
        assert rep.unserved == 1
        assert rep.avg_repeated_requests is None

    def test_avg_attempts_over_relay_served(self):
        outs = []
        for i, k in enumerate((1, 2, 3)):
            outs.append(RequestOutcome(i, 100.0, 0.0, served_by=50 + i, attempts=k,
                                       entered_relay_phase=True))
        rep = collect_metrics(outs)
        assert rep.avg_repeated_requests == 2.0
        assert rep.primary_success_ratio == pytest.approx(1.0 / 3.0)

    def test_empty_report(self):
        rep = collect_metrics([])
        assert rep.total_requests == 0
        assert rep.success_ratio is None
        assert rep.primary_success_ratio is None

    def test_no_relay_phase_means_absent_primary_ratio(self):
        rep = collect_metrics([RequestOutcome(0, 1.0, 0.0, served_by=SERVER)])
        assert rep.primary_success_ratio is None

    def test_slices(self):
        outs = [RequestOutcome(0, 1.0, 0.0, served_by=SERVER),
                RequestOutcome(1, 1.0, 0.0)]
        rep = collect_metrics(outs, affected_ids=frozenset({1}),
                              region_ids=frozenset({0, 1}))
        assert rep.affected_requests == 1
        assert rep.affected_success_ratio == 0.0
        assert rep.region_success_ratio == 0.5

    def test_to_dict_round(self):
        rep = collect_metrics([RequestOutcome(0, 1.0, 0.0, served_by=SERVER)])
        d = rep.to_dict()
        assert d["total_requests"] == 1
        assert d["success_ratio"] == 1.0
        assert MetricsReport(**d) == rep

    def test_primary_success_is_derived(self):
        assert RequestOutcome(0, 1.0, 0.0, served_by=7, attempts=1).primary_success
        assert not RequestOutcome(0, 1.0, 0.0, served_by=7, attempts=2).primary_success
        assert not RequestOutcome(0, 1.0, 0.0, served_by=SERVER).primary_success
        assert not RequestOutcome(0, 1.0, 0.0, attempts=1).primary_success
        with pytest.raises(AttributeError):
            RequestOutcome(0, 1.0, 0.0).primary_success = True


class TestPopulation:
    def test_shape_and_ranges(self):
        cfg = SimConfig(peer_count=300)
        peers = build_population(cfg, _stream(1, _STREAM_POPULATION))
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
        assert a == b

    def test_fields_are_builtin_values(self):
        # A numpy scalar would leak into the outcome CSV as 'np.float64(...)'.
        peers = build_population(SimConfig(peer_count=200), _stream(2, _STREAM_POPULATION))
        for p in peers:
            assert [type(getattr(p, f.name)) for f in dataclasses.fields(p)] == [
                int, str, int, float, float, float, float]

    def test_capacities_share_the_bucket_floats(self):
        cfg = SimConfig(peer_count=400)
        peers = build_population(cfg, _stream(2, _STREAM_POPULATION))
        assert len({id(p.uplink_kbps) for p in peers}) <= len(cfg.uplink_profile)
        assert len({id(p.downlink_kbps) for p in peers}) <= len(cfg.uplink_profile)

    def test_empty_population(self):
        assert build_population(SimConfig(peer_count=0), _stream(1, _STREAM_POPULATION)) == []


class TestCapacityLedger:
    def test_commit_release_roundtrip(self):
        relay = make_peer(1, up=1024.0)
        ledger = RelayLedger()
        ledger.commit(relay, 500.0)
        assert ledger.in_use_kbps[1] == 500.0
        assert ledger.workload[1] == 1
        ledger.release(relay, 500.0)
        assert ledger.in_use_kbps.get(1, 0.0) == 0.0
        assert ledger.in_use_kbps == {} and ledger.workload == {}

    def test_overcommit_is_a_bug_trap(self):
        relay = make_peer(1, up=1024.0)
        ledger = RelayLedger()
        ledger.commit(relay, 600.0)
        with pytest.raises(CapacityError):
            ledger.commit(relay, 600.0)

    def test_over_release_is_a_bug_trap(self):
        relay = make_peer(1, up=1024.0)
        ledger = RelayLedger()
        ledger.commit(relay, 100.0)
        with pytest.raises(CapacityError):
            ledger.release(relay, 200.0)

    def test_nonpositive_commit_rejected(self):
        with pytest.raises(ValueError):
            RelayLedger().commit(make_peer(1), 0.0)


class FixedListSimulation(Simulation):
    """Simulation whose requesters walk given relay lists; every other
    peer gets an empty list."""

    def __init__(self, cfg, peers, scenario, lists):
        super().__init__(cfg, peers=peers, scenario=scenario)
        self.lists = lists

    def _make_candidates(self, peer, t):
        return self.lists.get(peer.id, RelayCandidateList((), 0))


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
        sim = FixedListSimulation(cfg, [requester, *relays], scenario,
                                  {requester.id: RelayCandidateList(tuple(candidates), 0)})
        if workload is not None:
            sim.ledger.workload.update(workload)
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
        assert out.primary_success
        assert out.entered_relay_phase
        assert sim.ledger.fetch_failed == {0}
        assert sim.ledger.in_use_kbps == {} and sim.ledger.workload == {}
        # handshake + 4096 kbit / min(1024 uplink, 4096 down, 4096 share)
        assert out.end_time == pytest.approx(0.01 + 4.0)

    def test_affected_candidate_then_unaffected(self):
        out, _ = self.download(make_peer(0), [make_peer(1), make_peer(2)],
                               affected={0, 1}, candidates=(1, 2))
        assert out.attempts == 2
        assert out.served_by == 2
        assert not out.primary_success

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
        table = sim.city_table
        handshake = 2.0 * (5.0 + 0.02 * table.distance_km("Beijing", "Shanghai")) / 1000.0
        assert out.end_time == pytest.approx(handshake + 4.0, abs=1e-9)

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
        sim = FixedListSimulation(cfg, peers, scenario,
                                  {0: RelayCandidateList((3, 1), 0),
                                   2: RelayCandidateList((1,), 0)})
        sim.run()
        first, _, second, _ = sim.outcomes
        assert (second.served_by, second.end_time) == (1, 4.01)
        assert first.served_by == 1
        assert first.attempts == 2
        assert first.end_time == pytest.approx(4.01 + 0.01 + 4.0)


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
        for p in sim.peers.values():
            assert sim.ledger.in_use_kbps.get(p.id, 0.0) == 0.0
            assert sim.ledger.workload.get(p.id, 0) == 0
        assert sim.ledger.in_use_kbps == {} and sim.ledger.workload == {}
        assert sim.ledger.fetch_failed   # the failure did send requests to relays

    def test_supplied_population_left_unchanged(self):
        cfg = small_cfg(sim_duration=math.inf)
        peers, scenario = draw_population(cfg)
        before = copy.deepcopy(peers)
        for strategy in ("random", "path-aware"):
            sim = Simulation(replace(cfg, strategy=strategy), peers=peers,
                             scenario=scenario)
            sim.run()
            assert sim.ledger.in_use_kbps == {} and sim.ledger.workload == {}
            assert sim.ledger.fetch_failed
        assert peers == before

    def test_shared_draw_matches_own_draw(self):
        cfg = small_cfg(rng_seed=4)
        peers, scenario = draw_population(cfg)
        for strategy in ("no-relay", "random", "path-aware"):
            cell = replace(cfg, strategy=strategy)
            shared = Simulation(cell, peers=peers, scenario=scenario)
            own = Simulation(cell)
            assert shared.run() == own.run()
            assert shared.outcomes == own.outcomes

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
            if o.primary_success:
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
        assert list(a.peers.values()) == list(b.peers.values())
        assert a.scenario.affected == b.scenario.affected

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

    def test_population_and_scenario_supplied_together(self):
        peers, scenario = draw_population(small_cfg())
        with pytest.raises(ValueError):
            Simulation(small_cfg(), peers=peers)
        with pytest.raises(ValueError):
            Simulation(small_cfg(), scenario=scenario)

    def test_duplicate_peer_ids_rejected(self):
        cfg = small_cfg(peer_count=50)
        peers, scenario = draw_population(cfg)
        with pytest.raises(ValueError, match="unique"):
            Simulation(cfg, peers=[*peers, peers[7]], scenario=scenario)

    def test_run_returns_report(self):
        rep = run(small_cfg())
        assert isinstance(rep, MetricsReport)
        assert rep.total_requests > 0

    def test_zero_length_session_never_goes_online(self, monkeypatch):
        # Its departure runs before its arrival at the same instant, so
        # admitting it would keep it online for good.
        peers = [make_peer(0, join=0.0, dur=0.0), make_peer(1, join=5.0, dur=100.0)]
        scenario = FailureScenario(frozenset({1}))
        pools = record_pools(monkeypatch)
        sim = Simulation(small_cfg(strategy="random"), peers=peers, scenario=scenario)
        sim.run()
        # peer 1 drew from an empty pool: peer 0 was never online, and the
        # requester is not its own candidate
        assert pools == {1: (5.0, [], [])}
        by_id = {o.requester_id: o for o in sim.outcomes}
        assert by_id[0].served_by is None and by_id[0].end_time == 0.0
        assert by_id[1].attempts == 0 and by_id[1].served_by is None

    def test_candidates_need_their_population(self):
        cfg = small_cfg(strategy="random")
        peers, scenario = draw_population(cfg)
        draws = draw_candidates(cfg, peers, scenario)
        with pytest.raises(ValueError, match="peers and scenario"):
            Simulation(cfg, candidates=draws)

    @pytest.mark.parametrize("change", [
        {"strategy": "path-aware"}, {"zeta": 4}, {"alpha": 0.5}, {"rng_seed": 1},
        {"sim_duration": 600.0},
    ])
    def test_candidates_must_match_the_config(self, change):
        cfg = small_cfg(strategy="random")
        peers, scenario = draw_population(cfg)
        draws = draw_candidates(cfg, peers, scenario)
        with pytest.raises(ValueError, match="made for"):
            Simulation(replace(cfg, **change), peers=peers, scenario=scenario,
                       candidates=draws)
        # the content size and the rank parameters are not part of the draw
        Simulation(replace(cfg, content_size_kb=16000.0, gamma=0.5), peers=peers,
                   scenario=scenario, candidates=draws).run()

    def test_shared_candidates_match_own_draws(self):
        cfg = small_cfg(strategy="path-aware", rng_seed=4)
        peers, scenario = draw_population(cfg)
        draws = draw_candidates(cfg, peers, scenario)
        assert draws.lists and all(isinstance(d, tuple) for d in draws.lists.values())
        with pytest.raises(TypeError):
            draws.lists[-1] = ((), ())
        for size in (500.0, 16000.0):
            cell = replace(cfg, content_size_kb=size)
            shared = Simulation(cell, peers=peers, scenario=scenario, candidates=draws)
            own = Simulation(cell, peers=peers, scenario=scenario)
            assert shared.run() == own.run()
            assert shared.outcomes == own.outcomes

    def test_no_relay_draws_no_selection_stream(self, monkeypatch):
        real = engine._stream

        def no_select(seed, label):
            assert label != engine._STREAM_SELECT
            return real(seed, label)
        monkeypatch.setattr(engine, "_stream", no_select)
        rep = run(small_cfg(strategy="no-relay"))
        assert rep.relay_phase_requests > 0


def record_pools(monkeypatch):
    """Record, per relay-phase requester, its request time, the online ids
    other than its own and its (city, ISP) bucket less itself, as the
    draw pass hands them to either strategy's draw."""
    pools = {}

    def recording(real):
        def draw(requester, online, *args, **kwargs):
            pools[requester.id] = (
                requester.join_time,
                [i for i in online.ids if i != requester.id],
                [i for i in online.bucket(requester.city, requester.isp)
                 if i != requester.id])
            return real(requester, online, *args, **kwargs)
        return draw
    for name in ("random_relay_list", "draw_path_aware"):
        monkeypatch.setattr(engine, name, recording(getattr(engine, name)))
    return pools


class EventCountingSimulation(Simulation):
    """Simulation that counts the events it schedules, by priority."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.scheduled = [0] * (REQUEST_ISSUE + 1)

    def _schedule(self, time, priority, payload):
        self.scheduled[priority] += 1
        super()._schedule(time, priority, payload)


class EmptyListSimulation(EventCountingSimulation):
    """A relay-strategy run whose every list is empty: the no-relay
    protocol, after a full candidate draw."""

    def _make_candidates(self, peer, t):
        return no_relay_list()


class TestNoRelaySkipsOnlineSet:
    def test_no_arrival_or_departure_events(self, monkeypatch):
        cfg = small_cfg(rng_seed=3, strategy="no-relay")
        peers, scenario = draw_population(cfg)
        streams, real = [], engine._stream
        monkeypatch.setattr(engine, "_stream",
                            lambda *key: streams.append(key) or real(*key))
        # no-relay draws nothing and builds no selection stream
        assert draw_candidates(cfg, peers, scenario).lists == {}
        skipped = EventCountingSimulation(cfg, peers=peers, scenario=scenario)
        tracked = EmptyListSimulation(replace(cfg, strategy="random"), peers=peers,
                                      scenario=scenario)
        assert skipped.run() == tracked.run()
        assert skipped.outcomes == tracked.outcomes
        assert skipped._draws.lists == {}
        # the relay strategy's one draw pass builds one selection stream
        assert tracked._draws.lists
        assert [key for key in streams if key[1] == engine._STREAM_SELECT] == [
            (cfg.rng_seed, engine._STREAM_SELECT)]
        # the loop schedules the relay-phase requests and their resolutions
        # only: one issue per peer cut off at a join by the horizon, and no
        # resolution for a server fetch (no-relay has no relay attempt)
        cut = [p for p in peers
               if p.join_time <= cfg.sim_duration and scenario.cut_off(p.id, p.join_time)]
        assert skipped.scheduled == [0, 0, len(cut)]
        assert len(cut) < len(peers)
        assert tracked.scheduled == skipped.scheduled
        assert any(o.entered_relay_phase for o in skipped.outcomes)


class RecordingSimulation(Simulation):
    """Simulation that keeps every candidate list it generates."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.lists = {}

    def _make_candidates(self, peer, t):
        self.lists[peer.id] = super()._make_candidates(peer, t)
        return self.lists[peer.id]


@st.composite
def small_runs(draw):
    """A hand-built population with ties in time, a failure draw, a strategy
    and a horizon."""
    n = draw(st.integers(1, 16))
    peers = [Peer(id=i, city=draw(st.sampled_from(("Beijing", "Shanghai"))),
                  isp=draw(st.integers(1, 2)),
                  uplink_kbps=draw(st.sampled_from((256.0, 1024.0))),
                  downlink_kbps=draw(st.sampled_from((1024.0, 4096.0))),
                  join_time=draw(st.sampled_from((0.0, 0.0, 1.0, 2.0, 5.0))),
                  session_duration=draw(st.sampled_from((1.0, 3.0, 4.01, 60.0, 1e9, 1e9))))
             for i in range(n)]
    start = draw(st.sampled_from((0.0, 1.0, 3.0)))
    end = start + draw(st.sampled_from((1.0, 8.0, math.inf)))
    scenario = FailureScenario(frozenset(draw(st.sets(st.integers(0, n - 1)))),
                               region="Beijing", start_time=start, end_time=end)
    cfg = SimConfig(peer_count=n, rng_seed=draw(st.integers(0, 2**16)),
                    zeta=draw(st.integers(1, 4)),
                    content_size_kb=draw(st.sampled_from((100.0, 512.0, 2000.0))),
                    workload_mode=draw(st.sampled_from(("utilization", "count"))),
                    strategy=draw(st.sampled_from(("no-relay", "random", "path-aware"))),
                    # a 20 s handshake lets a reject outlast its requester's
                    # departure and a finite horizon after it
                    latency_base_ms=draw(st.sampled_from((5.0, 10000.0))),
                    sim_duration=draw(st.sampled_from((1.5, 3.0, 6.0, math.inf))))
    return cfg, peers, scenario


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
    def test_every_request_ends_once_and_consistently(self, run_args):
        cfg, peers, scenario = run_args
        horizon = cfg.sim_duration
        sim = RecordingSimulation(cfg, peers=peers, scenario=scenario)
        sim.run()
        assert sorted(o.requester_id for o in sim.outcomes) == [
            p.id for p in peers if p.join_time <= horizon]
        for o in sim.outcomes:
            requester = sim.peers[o.requester_id]
            assert o.start_time <= o.end_time <= min(requester.departure_time, horizon)
            if o.served:
                # no transfer outruns the requester's downlink
                fetch = cfg.content_size_kb * 8.0 / requester.downlink_kbps
                assert o.end_time - o.start_time >= fetch
            relay_served = isinstance(o.served_by, int)
            if relay_served:
                assert o.served_by != o.requester_id and o.served_by in sim.peers
            else:
                assert o.served_by in (SERVER, None)
            if o.served_by == SERVER:
                assert o.attempts == 0 and not o.entered_relay_phase
            tried = sim.lists.get(o.requester_id, RelayCandidateList((), 0)).peer_ids
            tried = tried[:o.attempts]
            assert len(tried) == o.attempts <= cfg.zeta
            if relay_served:
                assert tried[-1] == o.served_by
            assert o.primary_success == (relay_served and tried == (o.served_by,))
        assert sim.ledger.fetch_failed == {o.requester_id for o in sim.outcomes
                                           if o.entered_relay_phase}
        if horizon == math.inf:
            # a finite horizon may cut transfers that still hold capacity
            assert sim.ledger.in_use_kbps == {} and sim.ledger.workload == {}

    @settings(max_examples=200, deadline=None)
    @given(small_runs())
    def test_committed_rate_fits_free_uplink_and_downlink(self, run_args):
        # _start_next_attempt commits a plan's rate the moment it is planned,
        # so the ledger read here is the ledger at commit time.
        cfg, peers, scenario = run_args
        real, commits = Simulation._plan_attempt, []

        def checked(sim, relay, requester, t):
            plan = real(sim, relay, requester, t)
            if plan.rate_kbps > 0:
                commits.append((plan.rate_kbps, sim.ledger.uplink_free_kbps(relay),
                                requester.downlink_kbps))
            return plan

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Simulation, "_plan_attempt", checked)
            Simulation(cfg, peers=peers, scenario=scenario).run()
        for rate, free_uplink, downlink in commits:
            assert rate <= min(free_uplink, downlink) + RATE_EPS

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
        runs = [Simulation(cfg, peers=order, scenario=scenario)
                for order in (peers, shuffled)]
        reports = [sim.run() for sim in runs]
        assert reports[0] == reports[1]
        by_id = [sorted(sim.outcomes, key=lambda o: o.requester_id) for sim in runs]
        assert by_id[0] == by_id[1]


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
    cfg = SimConfig(peer_count=n, rng_seed=draw(st.integers(0, 2**16)),
                    zeta=draw(st.integers(1, 4)),
                    alpha=draw(st.one_of(st.sampled_from((0.0, 0.5, 1.0)),
                                         st.floats(0.0, 1.0))),
                    gamma=draw(st.sampled_from((0.5, 1.0))),
                    content_size_kb=draw(st.sampled_from((100.0, 100.0, 100.0, 512.0,
                                                          2000.0))),
                    workload_mode=draw(st.sampled_from(("utilization", "count"))),
                    strategy=draw(st.sampled_from(("no-relay", "random", "path-aware"))),
                    latency_base_ms=draw(st.sampled_from((5.0, 5.0, 250.0, 10000.0))),
                    sim_duration=draw(st.sampled_from((2.0, 4.5, 30.0, math.inf, math.inf,
                                                       math.inf))))
    return cfg, draw(st.permutations(peers)), scenario


class TestWholeRunReference:
    """Whole runs against tests/reference.py, a slow model written from the
    protocol's rules: every request's server, attempt count, end time and
    relay-phase flag must match exactly."""

    @settings(max_examples=400, deadline=None)
    @given(reference_runs())
    @example(crossed_reject(1.1))
    def test_outcomes_match_the_reference(self, run_args):
        cfg, peers, scenario = run_args
        sim = Simulation(cfg, peers=peers, scenario=scenario)
        sim.run()
        got = {o.requester_id: (o.served_by, o.attempts, o.end_time, o.entered_relay_phase)
               for o in sim.outcomes}
        assert len(got) == len(sim.outcomes)
        assert got == reference_run(cfg, peers, scenario)


class TestHorizon:
    @pytest.mark.parametrize("horizon", [1.1, math.inf])
    def test_open_request_ends_by_its_departure(self, horizon):
        cfg, peers, scenario = crossed_reject(horizon)
        sim = Simulation(cfg, peers=peers, scenario=scenario)
        sim.run()
        assert [(o.requester_id, o.served_by, o.attempts) for o in sim.outcomes] == [
            (0, None, 1), (1, None, 1)]
        assert [o.end_time for o in sim.outcomes] == [1.0, min(1.2, horizon)]


@st.composite
def draw_populations(draw):
    """A population whose join and departure times collide: same-instant
    joins, zero-length and infinite sessions, departures landing on other
    peers' joins, and joins past a finite horizon."""
    n = draw(st.integers(1, 20))
    peers = [Peer(id=i, city=draw(st.sampled_from(("Beijing", "Shanghai"))),
                  isp=draw(st.integers(1, 2)), uplink_kbps=1024.0, downlink_kbps=4096.0,
                  join_time=draw(st.sampled_from((0.0, 0.0, 1.0, 2.0, 3.0, 5.0, 8.0))),
                  session_duration=draw(st.sampled_from((0.0, 1.0, 2.0, 3.0, math.inf))))
             for i in range(n)]
    start = draw(st.sampled_from((0.0, 1.0, 2.0)))
    end = start + draw(st.sampled_from((2.0, math.inf)))
    scenario = FailureScenario(frozenset(draw(st.sets(st.integers(0, n - 1)))),
                               region="Beijing", start_time=start, end_time=end)
    cfg = SimConfig(peer_count=n, rng_seed=draw(st.integers(0, 2**16)),
                    zeta=draw(st.integers(1, 4)), alpha=draw(st.sampled_from((0.0, 0.5, 1.0))),
                    sim_duration=draw(st.sampled_from((3.0, 5.0, math.inf))))
    return cfg, draw(st.permutations(peers)), scenario


class TestDrawPass:
    @settings(max_examples=300, deadline=None)
    @given(draw_populations(), st.sampled_from(("random", "path-aware")))
    def test_pools_are_the_online_peers_at_the_request(self, case, strategy):
        cfg, peers, scenario = case
        cfg = replace(cfg, strategy=strategy)
        with pytest.MonkeyPatch.context() as mp:
            pools = record_pools(mp)
            draws = draw_candidates(cfg, peers, scenario)
        requesters = {p.id: p for p in peers if p.join_time <= cfg.sim_duration
                      and scenario.cut_off(p.id, p.join_time)}
        assert set(pools) == set(draws.lists) == set(requesters)
        for pid, (t, pool, bucket) in pools.items():
            me = requesters[pid]
            online = [q for q in sorted(peers, key=lambda q: q.id)
                      if q.id != pid and q.join_time <= t < q.departure_time]
            assert t == me.join_time
            assert pool == [q.id for q in online]
            assert bucket == [q.id for q in online if (q.city, q.isp) == (me.city, me.isp)]
            drawn = draws.lists[pid]
            ids = drawn.peer_ids if strategy == "random" else drawn[0] + drawn[1]
            assert set(ids) <= set(pool) and len(ids) == len(set(ids)) <= cfg.zeta

    @pytest.mark.parametrize("strategy", ["random", "path-aware"])
    def test_request_at_a_departure_and_past_the_horizon(self, strategy, monkeypatch):
        # Peer 1 leaves at t = 2, the instant peer 2 joins; peer 3 joins at
        # the same instant; peer 4 joins past the finite horizon.
        peers = [make_peer(0, join=0.0, dur=math.inf), make_peer(1, join=1.0, dur=1.0),
                 make_peer(2, join=2.0, dur=5.0), make_peer(3, join=2.0, dur=0.0),
                 make_peer(4, join=4.0, dur=5.0)]
        scenario = FailureScenario(frozenset({1, 2, 3, 4}))
        pools = record_pools(monkeypatch)
        draw_candidates(small_cfg(strategy=strategy, sim_duration=3.0), peers, scenario)
        assert pools == {1: (1.0, [0], [0]), 2: (2.0, [0], [0]), 3: (2.0, [0, 2], [0, 2])}


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
    sim = Simulation(cfg, peers=peers, scenario=scenario)
    sim.run()
    horizon = cfg.sim_duration
    # one outcome per request issued by the horizon, in join order and, at
    # equal joins, in peers= list order
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
        # server, and same-instant joins keep the peers= list order
        peers = [make_peer(pid, join=join) for pid, join in
                 ((3, 2.0), (1, 1.0), (0, 1.0), (2, 2.0), (4, 0.5))]
        scenario = FailureScenario(frozenset(range(5)), "Beijing", start_time=1.0,
                                   end_time=2.0)
        cfg = SimConfig(peer_count=5, strategy="no-relay", **SERVER_CFG)
        outcomes = check_server_path(cfg, peers, scenario)
        assert [(o.requester_id, o.entered_relay_phase) for o in outcomes] == [
            (4, False), (1, True), (0, True), (3, False), (2, False)]
