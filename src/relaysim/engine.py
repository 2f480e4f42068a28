"""Discrete-event engine for joint server and relay-peer delivery.

Each peer issues one content request when it arrives. Requests first try
the server; a peer cut off by a regional failure falls back to its relay
candidate list and works through it one attempt at a time. One question
decides every path: is this peer cut off now (FailureScenario.cut_off)? A
requester that is not reaches the server; a relay that is not reaches the
server and any requester.

A run reads a Population, built once and shared by the cells run on it:
the peers in issue order with read-only id, join, departure and cut-off
columns. The requests issued by the horizon are a prefix of that order,
and the cut-off ones enter the relay phase. A server fetch holds no relay
capacity, so it is decided at issue time for every request at once with
array operations. Who is online at a request, and who failed a fetch
before it, depend only on the population, so the relay candidate draws
are made in one walk in issue order before the event loop
(draw_candidates), once per population and strategy in a sweep. The loop
walks the relay-phase rows in issue order and resolves the attempts due by
each join before issuing that request, so its heap holds attempt
resolutions only. At request time a path-aware draw is ranked against the
workload in the run's ledger (selection.generate_relay_list), where relay
capacity is committed when an attempt starts and released when it
resolves; each attempt is planned in full as an AttemptPlan when it
starts. Results are one Outcomes table of columns in issue order; a
relay-phase request writes its end into its own row.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import asdict, dataclass
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

# Heap entries are (time, priority, seq, request), one per relay attempt
# resolution: ATTEMPT_COMPLETE when its plan delivers, ATTEMPT_ABORT
# otherwise, so deliveries run first at equal times; seq keeps insertion
# order. Every resolution due at t runs before a request issued at t.
ATTEMPT_COMPLETE, ATTEMPT_ABORT = range(2)


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


# Codes of Outcomes.served_by besides a relay's id, which is non-negative.
SERVED_BY_SERVER, UNSERVED = -1, -2


@dataclass(eq=False)
class Outcomes:
    """The terminal records of one run's requests as columns, one row per
    request in the Population's issue order; requester_id, start_time and
    entered_relay_phase are read-only views of its columns.

    served_by holds the serving relay's id, SERVED_BY_SERVER or UNSERVED;
    size_kb is the run's content size. Iteration yields the rows as
    RequestOutcome records of built-in values, and two tables are equal
    when their rows are.
    """

    size_kb: float
    requester_id: np.ndarray          # int64
    start_time: np.ndarray            # float64
    end_time: np.ndarray              # float64
    served_by: np.ndarray             # int64 codes
    attempts: np.ndarray              # int64
    entered_relay_phase: np.ndarray   # bool

    def __len__(self) -> int:
        return len(self.requester_id)

    def __iter__(self) -> Iterator[RequestOutcome]:
        labels = {SERVED_BY_SERVER: SERVER, UNSERVED: None}
        size_kb = self.size_kb
        for pid, start, end, code, attempts, relay_phase in zip(
                self.requester_id.tolist(), self.start_time.tolist(),
                self.end_time.tolist(), self.served_by.tolist(), self.attempts.tolist(),
                self.entered_relay_phase.tolist()):
            yield RequestOutcome(pid, size_kb, start, labels.get(code, code), attempts,
                                 relay_phase, end)

    def __eq__(self, other):
        return list(self) == list(other) if isinstance(other, Outcomes) else NotImplemented


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


def collect_metrics(outcomes: Outcomes,
                    affected_ids: frozenset[int] = frozenset(),
                    region_ids: frozenset[int] = frozenset()) -> MetricsReport:
    """Aggregate outcomes; affected/region slices use the given id sets.
    Counts are built-in ints, and each ratio divides two of them."""
    def count(mask) -> int:
        return int(np.count_nonzero(mask))

    def ratio(part, whole):
        return part / whole if whole else None

    served_by, attempts = outcomes.served_by, outcomes.attempts
    total = len(outcomes)
    by_server = count(served_by == SERVED_BY_SERVER)
    relay_served = served_by >= 0
    by_relay = count(relay_served)
    served = served_by != UNSERVED
    in_relay_phase = outcomes.entered_relay_phase
    relay_phase = count(in_relay_phase)
    affected = np.isin(outcomes.requester_id, list(affected_ids))
    region = np.isin(outcomes.requester_id, list(region_ids))
    return MetricsReport(
        total_requests=total,
        served_by_server=by_server,
        served_by_relay=by_relay,
        unserved=total - by_server - by_relay,
        success_ratio=ratio(by_server + by_relay, total),
        relay_phase_requests=relay_phase,
        primary_success_ratio=ratio(count(in_relay_phase & relay_served & (attempts == 1)),
                                    relay_phase),
        avg_repeated_requests=ratio(int(attempts[relay_served].sum()), by_relay),
        affected_requests=count(affected),
        affected_success_ratio=ratio(count(affected & served), count(affected)),
        region_requests=count(region),
        region_success_ratio=ratio(count(region & served), count(region)),
    )


def draw_peer_attributes(cfg: SimConfig, rng: np.random.Generator,
                         n: int) -> tuple[list[str], list[int], list[float], list[float]]:
    """City, ISP, uplink and downlink columns for n peers, drawn in that
    order: uniform city and ISP, bucketed access capacity."""
    cities = list(cfg.city_table)
    return ([cities[i] for i in rng.integers(len(cities), size=n).tolist()],
            assign_isp(rng, n, cfg.isp_count),
            *assign_bandwidth(rng, n, cfg.uplink_profile, cfg.downlink_factor))


def session_model(cfg: SimConfig) -> SessionModel:
    """cfg's session model; a None Pareto field keeps the calibrated default."""
    pareto = {"pareto_shape": cfg.pareto_shape, "pareto_scale_min": cfg.pareto_scale_min}
    return SessionModel(cfg.arrival_rate_lambda,
                        **{k: v for k, v in pareto.items() if v is not None})


def build_population(cfg: SimConfig, rng: np.random.Generator) -> list[Peer]:
    """Sample the peer population: Poisson arrivals and Pareto sessions,
    then the attribute columns of draw_peer_attributes."""
    n = cfg.peer_count
    joins, durations = churn.sample_sessions(session_model(cfg), rng, n)
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


@dataclass(slots=True)
class _Request:
    row: int                 # in Simulation.outcomes
    requester: Peer
    candidates: RelayCandidateList = no_relay_list()   # immutable, so shared
    next_index: int = 0      # also the number of attempts started
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


class Population:
    """The peers of one run and their failure scenario, in issue order:
    join order, list order at equal joins. issued holds the peers in it,
    and ids, join, dep (join + duration, as Peer.departure_time) and cut
    (cut off at its join: the request enters the relay phase) are read-only
    columns in it. region_ids are the peers in the scenario's region (None,
    in trace replay, matches none). Ids must be unique and non-negative
    (Outcomes.served_by codes are negative). Runs only read a population.
    """

    def __init__(self, peers: Iterable[Peer], scenario: FailureScenario):
        peers = list(peers)
        self.peers: dict[int, Peer] = {p.id: p for p in peers}
        if len(self.peers) != len(peers):
            raise ValueError("peer ids must be unique")
        if min(self.peers, default=0) < 0:
            raise ValueError("peer ids must be non-negative")
        self.scenario = scenario
        n = len(peers)
        join = np.fromiter((p.join_time for p in peers), np.float64, n)
        order = np.argsort(join, kind="stable")
        self.issued: tuple[Peer, ...] = tuple(map(peers.__getitem__, order.tolist()))
        self.ids = np.fromiter((p.id for p in self.issued), np.int64, n)
        self.join = join[order]
        self.dep = self.join + np.fromiter((p.session_duration for p in self.issued),
                                           np.float64, n)
        self.cut = scenario.cut_off_array(self.ids, self.join)
        for column in (self.ids, self.join, self.dep, self.cut):
            column.flags.writeable = False
        self.region_ids = frozenset(p.id for p in peers if p.city == scenario.region)

    def issued_by(self, horizon: float) -> int:
        """Requests issued by the horizon: the leading rows with join <= horizon."""
        return int(np.searchsorted(self.join, horizon, side="right"))


def draw_population(cfg: SimConfig) -> Population:
    """The population and failure scenario a valid cfg describes.

    Only the population and failure fields and rng_seed enter the draw, so
    configs that differ in content size or strategy alone share it.
    """
    peers = build_population(cfg, _stream(cfg.rng_seed, _STREAM_POPULATION))
    affected = inject_failure(cfg.failure_region, cfg.failure_ratio, peers,
                              _stream(cfg.rng_seed, _STREAM_FAILURE))
    return Population(peers, FailureScenario(affected, cfg.failure_region, cfg.failure_start,
                                             cfg.failure_end))


class CandidateDraws(NamedTuple):
    """The relay candidate draws of one population under one strategy.

    lists maps each relay-phase requester's id to its draw: the final
    RelayCandidateList for random, draw_path_aware's unranked (careful ids,
    random ids) for path-aware, nothing for no-relay; it is read-only, so a
    sweep group's cells can share it. made_for is the config key
    (_draws_key) the draws were made under, population their source.
    """

    made_for: tuple
    population: Population
    lists: Mapping[int, RelayCandidateList | tuple[tuple[int, ...], tuple[int, ...]]]


def _draws_key(cfg: SimConfig) -> tuple:
    """The config fields a candidate draw depends on, beside the population."""
    return (cfg.strategy, cfg.zeta, cfg.alpha, cfg.rng_seed, cfg.sim_duration)


def draw_candidates(cfg: SimConfig, population: Population) -> CandidateDraws:
    """Draw the relay candidates of every relay-phase requester, without
    running the event loop: the cut-off rows among those issued by
    cfg.sim_duration.

    The walk takes one step per requester, in issue order, as
    Simulation.run issues them, and keeps an OnlineSet of the peers q
    with join_q <= t < departure_q at the step's time t. From the sorted
    step times, searchsorted gives each peer the step it arrives at (the
    first whose time reaches its join) and the step it leaves at (the first
    that reaches its departure); it comes online only when it leaves at a
    later step than it arrives, so a zero-length session never does. Each
    step removes and adds just its own slice of peers. The selection stream
    is drawn once, as a block of cfg.zeta uniform floats per requester, and
    the requester with rank r by id reads row r. The requesters visited so
    far are the fetch-failure history a path-aware draw drops. no-relay
    draws nothing and builds no stream.
    """
    lists: dict = {}
    strategy = cfg.strategy
    if strategy == "no-relay":
        return CandidateDraws(_draws_key(cfg), population, MappingProxyType(lists))
    k = population.issued_by(cfg.sim_duration)
    join, dep = population.join[:k], population.dep[:k]
    requesters = np.flatnonzero(population.cut[:k])
    rank = np.argsort(np.argsort(population.ids[requesters]))
    rows = _stream(cfg.rng_seed, _STREAM_SELECT).random((len(requesters), cfg.zeta))
    times = join[requesters]
    arrive, leave = np.searchsorted(times, join), np.searchsorted(times, dep)
    online_peers = np.flatnonzero(leave > arrive)
    bounds = np.arange(len(requesters) + 1)
    peers = population.issued

    def by_step(step: np.ndarray) -> tuple[list[Peer], list[int]]:
        """The online peers in order of step, and where each step's slice starts."""
        order = online_peers[np.argsort(step[online_peers], kind="stable")]
        return ([peers[i] for i in order.tolist()],
                np.searchsorted(step[order], bounds).tolist())
    arrivals, arrive_at = by_step(arrive)
    departures, leave_at = by_step(leave)
    online, failed = OnlineSet(), set()
    for s, requester in enumerate(map(peers.__getitem__, requesters.tolist())):
        online.update(departures[leave_at[s]:leave_at[s + 1]],
                      arrivals[arrive_at[s]:arrive_at[s + 1]])
        u = rows[rank[s]].tolist()
        if strategy == "random":
            lists[requester.id] = random_relay_list(requester, online, cfg.zeta, u)
        else:
            lists[requester.id] = draw_path_aware(requester, online, alpha=cfg.alpha,
                                                  zeta=cfg.zeta, u=u, failed=failed)
            failed.add(requester.id)
    return CandidateDraws(_draws_key(cfg), population, MappingProxyType(lists))


class Simulation:
    """One seeded simulation run; single-shot.

    All randomness derives from cfg.rng_seed through labeled sub-streams,
    so two runs with the same config are bit-identical and two strategies
    under the same seed see the identical population and failure draw.
    The strategy is cfg.strategy. To run several cells on one population,
    pass it (draw_population), and with it its candidate draws
    (draw_candidates) for cfg's strategy, zeta, alpha, seed and horizon,
    which cells differing only in content size share; draws from another
    population or config key are rejected. The run's state is self.ledger.
    """

    def __init__(self, cfg: SimConfig, population: Population | None = None,
                 candidates: CandidateDraws | None = None):
        validate_config(cfg)
        self.cfg = cfg
        if population is None:
            population = draw_population(cfg)
        if candidates is not None:
            if candidates.population is not population:
                raise ValueError("candidate draws were drawn from another population")
            if candidates.made_for != _draws_key(cfg):
                raise ValueError(f"candidate draws made for {candidates.made_for}, "
                                 f"not {_draws_key(cfg)}")
        self.population = population
        self.peers = population.peers
        self.scenario = population.scenario
        self.city_table = CityTable(cfg.city_table)
        self.tts = TimeToStayModel(*cfg.tts_coeffs, cfg.tts_clamp_min)
        self.content = ContentItem(cfg.content_size_kb)
        # Two-way handshake seconds per (requester city, relay city), filled
        # on first use; the server fetch goes to the in-city edge.
        self._handshakes: dict[tuple[str, str], float] = {}
        self.outcomes: Outcomes | None = None   # set by run()
        self.ledger = RelayLedger()
        self._draws = candidates
        self._heap: list = []
        self._seq = 0
        self._ran = False

    def _schedule(self, time: float, priority: int, req: _Request) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (time, priority, self._seq, req))

    def _resolve_until(self, t: float) -> None:
        """Resolve every attempt due by t, in heap order."""
        heap = self._heap
        while heap and heap[0][0] <= t:
            time, _, _, req = heapq.heappop(heap)
            self._on_resolve(req, time)

    def run(self) -> MetricsReport:
        """Decide the server fetches, then run the relay phase in issue order
        up to the horizon; aggregate metrics."""
        if self._ran:
            raise RuntimeError("Simulation.run is single-shot; build a new instance")
        self._ran = True
        population, horizon = self.population, self.cfg.sim_duration
        if self._draws is None:
            self._draws = draw_candidates(self.cfg, population)
        issued = population.issued_by(horizon)
        self._decide_server_fetches(issued)
        for row in np.flatnonzero(population.cut[:issued]).tolist():
            peer = population.issued[row]
            self._resolve_until(peer.join_time)
            self._issue(_Request(row, peer), peer.join_time)
        self._resolve_until(horizon)
        # Each request still open waits on one event past the horizon; it
        # ends at the horizon, or at its requester's departure if earlier.
        for *_, req in self._heap:
            self._end(req, min(req.requester.departure_time, horizon))
        return collect_metrics(self.outcomes, self.scenario.affected, population.region_ids)

    def _decide_server_fetches(self, issued: int) -> None:
        """Record the first issued requests in self.outcomes. A server fetch
        holds no relay capacity, so it is decided here on whole columns, with
        the float operations of the per-request rule: it ends at join +
        handshake + size_kbits / downlink and serves the request when that is
        by both its departure and the horizon; else the request ends at the
        earlier of the two. Relay-phase rows are written when they end.
        """
        horizon = self.cfg.sim_duration
        population = self.population
        ids, join, dep, cut, peers = (column[:issued] for column in (
            population.ids, population.join, population.dep, population.cut, population.issued))
        cities = [p.city for p in peers]
        in_city = {city: self._handshake(city, city) for city in set(cities)}
        t_end = (join + np.fromiter(map(in_city.__getitem__, cities), np.float64, issued)
                 + self.content.size_kbits
                 / np.fromiter((p.downlink_kbps for p in peers), np.float64, issued))
        served = ~cut & (t_end <= dep) & (t_end <= horizon)
        self.outcomes = Outcomes(
            self.content.size_kb, ids, join, np.where(served, t_end, np.minimum(dep, horizon)),
            np.where(served, SERVED_BY_SERVER, UNSERVED), np.zeros(issued, np.int64), cut)

    def _end(self, req: _Request, t: float, served_by: int = UNSERVED) -> None:
        """Write a relay-phase request's terminal state into its row."""
        out, row = self.outcomes, req.row
        out.end_time[row], out.served_by[row], out.attempts[row] = t, served_by, req.next_index

    def _issue(self, req: _Request, t: float) -> None:
        """Start a cut-off requester's relay phase at its join t."""
        req.candidates = self._make_candidates(req.requester, t)
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
            self._end(req, requester.departure_time)
            return
        if req.next_index >= len(req.candidates):
            self._end(req, t)
            return
        relay = self.peers[req.candidates[req.next_index]]
        req.next_index += 1
        plan = self._plan_attempt(relay, requester, t)
        if plan.rate_kbps > 0:
            self.ledger.commit(relay, plan.rate_kbps)
        req.pending = (plan, relay)
        priority = ATTEMPT_COMPLETE if plan.verdict == "success" else ATTEMPT_ABORT
        self._schedule(plan.resolve_time, priority, req)

    def _on_resolve(self, req: _Request, t: float) -> None:
        plan, relay = req.pending
        if plan.rate_kbps > 0:
            self.ledger.release(relay, plan.rate_kbps)
        if plan.verdict == "success":
            self._end(req, t, relay.id)
        elif plan.verdict == "requester-lost":
            self._end(req, t)
        else:
            self._start_next_attempt(req, t)


def run(cfg: SimConfig) -> MetricsReport:
    """Build a Simulation from cfg and run it to completion."""
    return Simulation(cfg).run()
