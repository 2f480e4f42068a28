"""Discrete-event engine for joint server and relay-peer delivery.

Each peer issues one content request when it arrives. Requests first try
the server; a peer cut off by a regional failure falls back to its relay
candidate list and works through it one attempt at a time. One question
decides every path: is this peer cut off now (FailureScenario.cut_off)? A
requester that is not reaches the server; a relay that is not reaches the
server and any requester. A server fetch holds no relay capacity, so it
is decided at issue time, before the event loop, and never enters the
heap: the loop holds only relay-phase request issues and relay attempt
resolutions. Each relay attempt is planned in full as an AttemptPlan when
it starts, and one handler resolves it. Relay uplink capacity is tracked
in a per-run ledger: rates are fixed when an attempt starts and released
when it resolves. An event's priority orders it at equal timestamps
(deliveries, other resolutions, request issues), so runs are
bit-reproducible for a given seed, and picks its handler.

Who is online when a request is issued depends only on the population, so
the relay candidate draws are made before the event loop, in one pass over
the join and departure times (draw_candidates); the loop schedules no
arrival or departure events. At request time the path-aware draw is ranked
against the run's ledger (selection.generate_relay_list). A sweep makes the
draws once per population and relay strategy and hands them to every
content size. The population is drawn column by column
(churn.sample_sessions, then draw_peer_attributes, which trace replay
shares) into built-in values.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable, Mapping
from dataclasses import asdict, dataclass
from operator import attrgetter
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from relaysim import churn
from relaysim.churn import SessionModel, TimeToStayModel
from relaysim.model import (RATE_EPS, ContentItem, Peer, RelayLedger, SimConfig,
                            validate_config)
from relaysim.netsim import (SERVER, CityTable, FailureScenario, assign_bandwidth,
                             assign_isp, inject_failure, latency_ms)
from relaysim.selection import (OnlineSet, RelayCandidateList, draw_path_aware,
                                generate_relay_list, no_relay_list, random_relay_list)

# Heap entries are (time, priority, seq, payload) tuples; the priority
# orders events at equal timestamps and indexes Simulation's handler tuple,
# and seq keeps insertion order. No server fetch enters the heap. A relay
# attempt resolves as ATTEMPT_COMPLETE when its plan delivers and as
# ATTEMPT_ABORT otherwise; REQUEST_ISSUE starts a cut-off requester's relay
# phase. Every payload is the _Request.
ATTEMPT_COMPLETE, ATTEMPT_ABORT, REQUEST_ISSUE = range(3)


@dataclass(slots=True)
class RequestOutcome:
    """Terminal record of one request."""

    requester_id: int
    size_kb: float
    start_time: float
    served_by: int | str | None = None   # relay id, SERVER, or None
    attempts: int = 0
    entered_relay_phase: bool = False
    end_time: float | None = None

    @property
    def served(self) -> bool:
        return self.served_by is not None

    @property
    def primary_success(self) -> bool:
        """Served by the first relay tried."""
        return isinstance(self.served_by, int) and self.attempts == 1


@dataclass
class MetricsReport:
    """Aggregated run statistics; ratios are None when undefined."""

    total_requests: int
    served_by_server: int
    served_by_relay: int
    unserved: int
    success_ratio: float | None
    relay_phase_requests: int
    primary_success_ratio: float | None
    avg_repeated_requests: float | None
    affected_requests: int
    affected_success_ratio: float | None
    region_requests: int
    region_success_ratio: float | None

    def to_dict(self) -> dict:
        return asdict(self)


def collect_metrics(outcomes: list[RequestOutcome],
                    affected_ids: frozenset[int] = frozenset(),
                    region_ids: frozenset[int] = frozenset()) -> MetricsReport:
    """Aggregate outcomes; affected/region slices use the given id sets."""
    total = len(outcomes)
    served_server = sum(1 for o in outcomes if o.served_by == SERVER)
    relay_served = [o for o in outcomes if isinstance(o.served_by, int)]
    unserved = total - served_server - len(relay_served)
    relay_phase = [o for o in outcomes if o.entered_relay_phase]
    primaries = sum(1 for o in relay_phase if o.primary_success)

    def ratio(part, whole):
        return part / whole if whole else None

    affected = [o for o in outcomes if o.requester_id in affected_ids]
    region = [o for o in outcomes if o.requester_id in region_ids]
    return MetricsReport(
        total_requests=total,
        served_by_server=served_server,
        served_by_relay=len(relay_served),
        unserved=unserved,
        success_ratio=ratio(served_server + len(relay_served), total),
        relay_phase_requests=len(relay_phase),
        primary_success_ratio=ratio(primaries, len(relay_phase)),
        avg_repeated_requests=(sum(o.attempts for o in relay_served) / len(relay_served)
                               if relay_served else None),
        affected_requests=len(affected),
        affected_success_ratio=ratio(sum(1 for o in affected if o.served), len(affected)),
        region_requests=len(region),
        region_success_ratio=ratio(sum(1 for o in region if o.served), len(region)),
    )


def draw_peer_attributes(cfg: SimConfig, rng: np.random.Generator,
                         n: int) -> tuple[list[str], list[int], list[float], list[float]]:
    """City, ISP, uplink and downlink columns for n peers, drawn in that
    order: uniform city and ISP, bucketed access capacity."""
    cities = list(cfg.city_table)
    return ([cities[i] for i in rng.integers(len(cities), size=n).tolist()],
            assign_isp(rng, n, cfg.isp_count),
            *assign_bandwidth(rng, n, cfg.uplink_profile, cfg.downlink_factor))


def build_population(cfg: SimConfig, rng: np.random.Generator) -> list[Peer]:
    """Sample the peer population: Poisson arrivals and Pareto sessions,
    then the attribute columns of draw_peer_attributes."""
    pareto = {"pareto_shape": cfg.pareto_shape, "pareto_scale_min": cfg.pareto_scale_min}
    # None keeps SessionModel's default, the calibrated parameter.
    model = SessionModel(cfg.arrival_rate_lambda,
                         **{k: v for k, v in pareto.items() if v is not None})
    n = cfg.peer_count
    joins, durations = churn.sample_sessions(model, rng, n)
    return list(map(Peer, range(n), *draw_peer_attributes(cfg, rng, n),
                    joins.tolist(), durations.tolist()))


class AttemptPlan(NamedTuple):
    """Resolution of one relay attempt started at a fixed time.

    verdict: 'reject' (preconditions failed; resolve_time is the end of
    the wasted handshake), 'success' (resolve_time is delivery),
    'relay-lost' or 'requester-lost' (resolve_time is the departure that
    kills the transfer). Completion landing exactly on a departure instant
    counts as delivered. rate_kbps is the relay capacity the attempt holds
    until it resolves; 0 when it holds none.
    """

    verdict: str
    resolve_time: float
    rate_kbps: float = 0.0


@dataclass
class _Request:
    outcome: RequestOutcome
    requester: Peer
    candidates: RelayCandidateList = no_relay_list()   # immutable, so shared
    next_index: int = 0
    # (plan, relay) of the scheduled resolution
    pending: tuple[AttemptPlan, Peer] | None = None


# Sub-stream labels under the master seed. Population and failure draws are
# shared by every strategy at a given seed (common random numbers). The
# selection stream is drawn once per population as a block with one row per
# relay-phase requester, indexed by its rank by id, so candidate draws stay
# aligned across strategies and content sizes too.
_STREAM_POPULATION = 0
_STREAM_FAILURE = 1
_STREAM_SELECT = 2


def _stream(seed: int, label: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, label)))


def draw_population(cfg: SimConfig) -> tuple[list[Peer], FailureScenario]:
    """The population and failure scenario a valid cfg describes.

    Only the population and failure fields and rng_seed enter the draw, so
    configs that differ in content size or strategy alone share it.
    """
    peers = build_population(cfg, _stream(cfg.rng_seed, _STREAM_POPULATION))
    affected = inject_failure(cfg.failure_region, cfg.failure_ratio, peers,
                              _stream(cfg.rng_seed, _STREAM_FAILURE))
    return peers, FailureScenario(affected, cfg.failure_region, cfg.failure_start,
                                  cfg.failure_end)


class CandidateDraws(NamedTuple):
    """The relay candidate draws of one population under one strategy.

    lists maps each relay-phase requester's id to its draw: the final
    RelayCandidateList for random, the unranked (careful ids, random ids)
    for path-aware, nothing for no-relay. made_for is the config key
    (_draws_key) the draws were made under. Both are read-only, so the
    cells of a sweep group can share them.
    """

    made_for: tuple
    lists: Mapping[int, RelayCandidateList | tuple[tuple[int, ...], tuple[int, ...]]]


def _draws_key(cfg: SimConfig) -> tuple:
    """The config fields a candidate draw depends on, beside the population."""
    return (cfg.strategy, cfg.zeta, cfg.alpha, cfg.rng_seed, cfg.sim_duration)


def draw_candidates(cfg: SimConfig, peers: Iterable[Peer],
                    scenario: FailureScenario) -> CandidateDraws:
    """Draw the relay candidates of every relay-phase requester, without
    running the event loop.

    A requester enters the relay phase when it joins by cfg.sim_duration
    and is cut off at its join. Peer q is online at time t iff join_q <= t
    < departure_q: one walk over the join and departure times, with
    departures before arrivals at equal times, keeps an OnlineSet, and a
    zero-length session never comes online. The selection stream is drawn
    once, as a block of cfg.zeta uniform floats per requester, and the
    requester with rank r by id reads row r, so the draws do not depend on
    the order the walk visits requesters at one instant. no-relay draws
    nothing and builds no stream.
    """
    lists: dict = {}
    strategy = cfg.strategy
    if strategy == "no-relay":
        return CandidateDraws(_draws_key(cfg), MappingProxyType(lists))
    peers = list(peers)
    horizon = cfg.sim_duration
    requesters = sorted((p for p in peers if p.join_time <= horizon
                         and scenario.cut_off(p.id, p.join_time)), key=attrgetter("id"))
    rows = _stream(cfg.rng_seed, _STREAM_SELECT).random((len(requesters), cfg.zeta))
    by_join = sorted(peers, key=attrgetter("join_time"))
    by_departure = sorted(peers, key=attrgetter("departure_time"))
    online = OnlineSet()
    arrived = departed = 0
    for r in sorted(range(len(requesters)), key=lambda r: requesters[r].join_time):
        requester = requesters[r]
        t = requester.join_time
        while departed < len(peers) and by_departure[departed].departure_time <= t:
            online.discard(by_departure[departed])
            departed += 1
        while arrived < len(peers) and by_join[arrived].join_time <= t:
            if by_join[arrived].departure_time > t:
                online.add(by_join[arrived])
            arrived += 1
        u = rows[r].tolist()
        if strategy == "random":
            lists[requester.id] = random_relay_list(requester, online, cfg.zeta, u)
        else:
            lists[requester.id] = draw_path_aware(requester, online, alpha=cfg.alpha,
                                                  zeta=cfg.zeta, u=u)
    return CandidateDraws(_draws_key(cfg), MappingProxyType(lists))


class Simulation:
    """One seeded simulation run; single-shot.

    All randomness derives from cfg.rng_seed through labeled sub-streams,
    so two runs with the same config are bit-identical and two strategies
    under the same seed see the identical population and failure draw.
    The strategy is cfg.strategy. A caller may pass that draw as peers and
    scenario, together, to run several cells on one population; peers
    are immutable and the run's own state lives in self.ledger. With
    them it may also pass the population's candidate draws (draw_candidates)
    for cfg's strategy, zeta, alpha, seed and horizon, which cells differing
    only in content size share; without them run() makes its own.
    """

    def __init__(self, cfg: SimConfig, peers: list[Peer] | None = None,
                 scenario: FailureScenario | None = None,
                 candidates: CandidateDraws | None = None):
        validate_config(cfg)
        self.cfg = cfg
        if (peers is None) != (scenario is None):
            raise ValueError("peers and scenario are supplied together or not at all")
        if candidates is not None:
            if peers is None:
                raise ValueError("candidate draws need the peers and scenario they "
                                 "were drawn from")
            if candidates.made_for != _draws_key(cfg):
                raise ValueError(f"candidate draws made for {candidates.made_for}, "
                                 f"not {_draws_key(cfg)}")
        if peers is None:
            peers, scenario = draw_population(cfg)
        self.peers: dict[int, Peer] = {p.id: p for p in peers}
        if len(self.peers) != len(peers):
            raise ValueError("peer ids must be unique")
        self.city_table = CityTable(cfg.city_table)
        self.scenario = scenario
        self.tts = TimeToStayModel(*cfg.tts_coeffs, cfg.tts_clamp_min)
        self.content = ContentItem(cfg.content_size_kb)
        # Two-way handshake seconds per (requester city, relay city), filled
        # on first use; the server fetch goes to the in-city edge.
        self._handshakes: dict[tuple[str, str], float] = {}
        self.outcomes: list[RequestOutcome] = []
        self.ledger = RelayLedger()
        self._draws = candidates
        self._heap: list = []
        self._seq = 0
        self._now = 0.0
        self._ran = False

    def _schedule(self, time: float, priority: int, payload) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (time, priority, self._seq, payload))

    def run(self) -> MetricsReport:
        """Process events until the horizon, then aggregate metrics."""
        if self._ran:
            raise RuntimeError("Simulation.run is single-shot; build a new instance")
        self._ran = True
        if self._draws is None:
            self._draws = draw_candidates(self.cfg, self.peers.values(), self.scenario)
        horizon = self.cfg.sim_duration
        # Record every request issued by the horizon in join order (list
        # order at equal joins). A server fetch holds no relay capacity, so
        # it is decided here; only cut-off requesters enter the loop.
        size_kb, size_kbits = self.content.size_kb, self.content.size_kbits
        for peer in sorted(self.peers.values(), key=attrgetter("join_time")):
            t = peer.join_time
            if t > horizon:
                break
            out = RequestOutcome(peer.id, size_kb, t)
            self.outcomes.append(out)
            if self.scenario.cut_off(peer.id, t):
                self._schedule(t, REQUEST_ISSUE, _Request(out, peer))
                continue
            t_end = t + self._handshake(peer.city, peer.city) + size_kbits / peer.downlink_kbps
            if t_end <= peer.departure_time and t_end <= horizon:
                out.served_by, out.end_time = SERVER, t_end
            else:
                out.end_time = min(peer.departure_time, horizon)
        handlers = (self._on_resolve, self._on_resolve, self._on_request_issue)
        heap = self._heap
        while heap and heap[0][0] <= horizon:
            t, priority, _, payload = heapq.heappop(heap)
            self._now = t
            handlers[priority](payload)
        # Each request still open waits on one event past the horizon; it
        # ends at the horizon, or at its requester's departure if earlier.
        for *_, req in heap:
            req.outcome.end_time = min(req.requester.departure_time, horizon)
        # A region of None (trace replay) matches no city.
        region_ids = frozenset(p.id for p in self.peers.values()
                               if p.city == self.scenario.region)
        return collect_metrics(self.outcomes, self.scenario.affected, region_ids)

    def _on_request_issue(self, req: _Request) -> None:
        peer, t = req.requester, self._now
        self.ledger.fetch_failed.add(peer.id)
        req.outcome.entered_relay_phase = True
        req.candidates = self._make_candidates(peer, t)
        self._start_next_attempt(req, t)

    def _make_candidates(self, peer: Peer, t: float) -> RelayCandidateList:
        """The requester's list: its draw, ranked now for path-aware."""
        strategy = self.cfg.strategy
        if strategy == "no-relay":
            return no_relay_list()
        drawn = self._draws.lists[peer.id]
        if strategy == "random":
            return drawn
        return generate_relay_list(drawn, self.peers, gamma=self.cfg.gamma, t=t,
                                   tts=self.tts, workload_mode=self.cfg.workload_mode,
                                   ledger=self.ledger)

    def _handshake(self, requester_city: str, relay_city: str) -> float:
        key = (requester_city, relay_city)
        seconds = self._handshakes.get(key)
        if seconds is None:
            dist = self.city_table.distance_km(requester_city, relay_city)
            seconds = self._handshakes[key] = 2.0 * latency_ms(
                dist, self.cfg.latency_base_ms, self.cfg.latency_per_km_ms) / 1000.0
        return seconds

    def _plan_attempt(self, relay: Peer, requester: Peer, t: float) -> AttemptPlan:
        """Decide how a single relay attempt plays out, without side effects.

        A relay that is offline or cut off is rejected. Otherwise the
        transfer rate is fixed at start: the smaller of the relay's free
        uplink, the requester's downlink, and the relay's fair downlink
        share across its current workload plus this transfer, both read
        from the run's ledger. Every attempt pays a two-way handshake at
        the city-to-city latency.
        """
        handshake = self._handshake(requester.city, relay.city)
        if not relay.online(t) or self.scenario.cut_off(relay.id, t):
            return AttemptPlan("reject", t + handshake)
        ledger = self.ledger
        rate = min(ledger.uplink_free_kbps(relay), requester.downlink_kbps,
                   relay.downlink_kbps / (ledger.workload.get(relay.id, 0) + 1))
        if rate <= RATE_EPS:
            return AttemptPlan("reject", t + handshake)
        t_end = t + handshake + self.content.size_kbits / rate
        if t_end <= relay.departure_time and t_end <= requester.departure_time:
            return AttemptPlan("success", t_end, rate)
        if requester.departure_time <= relay.departure_time:
            return AttemptPlan("requester-lost", requester.departure_time, rate)
        return AttemptPlan("relay-lost", relay.departure_time, rate)

    def _start_next_attempt(self, req: _Request, t: float) -> None:
        requester = req.requester
        if t >= requester.departure_time:
            req.outcome.end_time = requester.departure_time
            return
        if req.next_index >= len(req.candidates):
            req.outcome.end_time = t
            return
        relay = self.peers[req.candidates[req.next_index]]
        req.next_index += 1
        req.outcome.attempts += 1
        plan = self._plan_attempt(relay, requester, t)
        if plan.rate_kbps > 0:
            self.ledger.commit(relay, plan.rate_kbps)
        req.pending = (plan, relay)
        priority = ATTEMPT_COMPLETE if plan.verdict == "success" else ATTEMPT_ABORT
        self._schedule(plan.resolve_time, priority, req)

    def _on_resolve(self, req: _Request) -> None:
        plan, relay = req.pending
        if plan.rate_kbps > 0:
            self.ledger.release(relay, plan.rate_kbps)
        if plan.verdict == "success":
            req.outcome.served_by, req.outcome.end_time = relay.id, self._now
        elif plan.verdict == "requester-lost":
            req.outcome.end_time = self._now
        else:
            self._start_next_attempt(req, self._now)


def run(cfg: SimConfig) -> MetricsReport:
    """Build a Simulation from cfg and run it to completion."""
    return Simulation(cfg).run()
