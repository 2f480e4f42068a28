"""Event engine tests: protocol arithmetic, ledger, determinism, metrics."""

import copy
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaysim.engine import (
    EVENT_PRIORITY,
    MetricsReport,
    RequestOutcome,
    Simulation,
    build_population,
    collect_metrics,
    draw_population,
    run,
    _stream,
    _STREAM_POPULATION,
)
from relaysim.model import CapacityError, Peer, RelayLedger, SimConfig
from relaysim.netsim import SERVER, FailureScenario
from relaysim.selection import RelayCandidateList


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
        p = EVENT_PRIORITY
        # departures strictly before arrivals before request issues
        assert p["peer-departure"] < p["peer-arrival"] < p["request-issue"]
        # deliveries before aborts before departures at the same instant
        assert p["attempt-complete"] < p["attempt-abort"] < p["peer-departure"]


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
        assert rep.is_empty
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
        scenario = FailureScenario(region="Beijing", ratio=0.5,
                                   affected=frozenset(affected))
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
        scenario = FailureScenario(region="Beijing", ratio=0.5,
                                   affected=frozenset({0, 2}))
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
        rep = run(small_cfg(failure_ratio=0.0), strategy="no-relay")
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
            sim = Simulation(cfg, strategy=strategy, peers=peers, scenario=scenario)
            sim.run()
            assert sim.ledger.in_use_kbps == {} and sim.ledger.workload == {}
            assert sim.ledger.fetch_failed
        assert peers == before

    def test_shared_draw_matches_own_draw(self):
        cfg = small_cfg(rng_seed=4)
        peers, scenario = draw_population(cfg)
        for strategy in ("no-relay", "random", "path-aware"):
            shared = Simulation(cfg, strategy=strategy, peers=peers, scenario=scenario)
            own = Simulation(cfg, strategy=strategy)
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
        a = Simulation(cfg, strategy="random")
        b = Simulation(cfg, strategy="path-aware")
        assert list(a.peers.values()) == list(b.peers.values())
        assert a.scenario.affected == b.scenario.affected

    def test_single_shot(self):
        sim = Simulation(small_cfg())
        sim.run()
        with pytest.raises(RuntimeError):
            sim.run()

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            Simulation(small_cfg(), strategy="psychic")

    def test_relay_strategies_beat_no_relay_here(self):
        cfg = small_cfg(peer_count=200, sim_duration=1800.0)
        no_relay = run(cfg, strategy="no-relay")
        random_rep = run(cfg, strategy="random")
        path = run(cfg, strategy="path-aware")
        assert random_rep.success_ratio > no_relay.success_ratio
        assert path.success_ratio > no_relay.success_ratio
        assert no_relay.affected_success_ratio == 0.0

    def test_external_scenario_must_be_resolved(self):
        with pytest.raises(ValueError):
            Simulation(small_cfg(),
                       scenario=FailureScenario(region="Beijing", ratio=0.5))
        peers, _ = draw_population(small_cfg())
        with pytest.raises(ValueError):
            Simulation(small_cfg(), peers=peers,
                       scenario=FailureScenario(region="Beijing", ratio=0.5))

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
        assert not rep.is_empty


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
    """A hand-built population with ties in time, a failure draw and a strategy."""
    n = draw(st.integers(1, 16))
    peers = [Peer(id=i, city=draw(st.sampled_from(("Beijing", "Shanghai"))),
                  isp=draw(st.integers(1, 2)),
                  uplink_kbps=draw(st.sampled_from((256.0, 1024.0))),
                  downlink_kbps=draw(st.sampled_from((1024.0, 4096.0))),
                  join_time=draw(st.sampled_from((0.0, 0.0, 1.0, 2.0, 5.0))),
                  session_duration=draw(st.sampled_from((1.0, 3.0, 4.01, 60.0, 1e9, 1e9))))
             for i in range(n)]
    start = draw(st.sampled_from((0.0, 1.0, 3.0)))
    scenario = FailureScenario(
        region="Beijing", ratio=0.5, start_time=start,
        end_time=start + draw(st.sampled_from((1.0, 8.0, math.inf))),
        affected=frozenset(draw(st.sets(st.integers(0, n - 1)))))
    cfg = SimConfig(peer_count=n, rng_seed=draw(st.integers(0, 2**16)),
                    zeta=draw(st.integers(1, 4)),
                    content_size_kb=draw(st.sampled_from((100.0, 512.0, 2000.0))),
                    workload_mode=draw(st.sampled_from(("utilization", "count"))),
                    sim_duration=math.inf)
    strategy = draw(st.sampled_from(("no-relay", "random", "path-aware")))
    return cfg, strategy, peers, scenario


class TestProtocolProperties:
    @settings(max_examples=200, deadline=None)
    @given(small_runs())
    def test_every_request_ends_once_and_consistently(self, run_args):
        cfg, strategy, peers, scenario = run_args
        sim = RecordingSimulation(cfg, strategy=strategy, peers=peers, scenario=scenario)
        sim.run()
        assert sorted(o.requester_id for o in sim.outcomes) == [p.id for p in peers]
        for o in sim.outcomes:
            requester = sim.peers[o.requester_id]
            assert o.start_time <= o.end_time <= requester.departure_time
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
        assert sim.ledger.in_use_kbps == {} and sim.ledger.workload == {}
