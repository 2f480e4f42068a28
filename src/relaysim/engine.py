"""Discrete-event engine for joint server and relay-peer delivery.

Each peer issues one content request when it arrives. Requests first try
the server; a peer cut off by a regional failure falls back to its relay
candidate list and works through it one attempt at a time. One question
decides every path: is this peer cut off now (FailureScenario.cut_off)? A
requester that is not reaches the server; a relay that is not reaches the
server and any requester.

A run reads a Population, read-only columns in issue order; a Peer record
is only an input (Population.from_peers). Rules read the columns: a peer
is online over [join, dep) (_walk, _plan_attempt). Server fetches hold no
relay capacity, so they are decided at issue time on whole columns. The
candidate draws and the path-aware rank depend only on the population, so
draw_candidates makes every list before the event loop, a block of
requesters at a time: pick positions as arrays from the pool sizes, one
sweep that only indexes the ascending online id ranks (positions in
by_id), one gather from id ranks to rows, then the fetch-failure history
and the rank as array steps. From there a relay is its row: a list is a
tuple of relay rows in try order, and the run's ledger is keyed by row.
The loop resolves the attempts due by each relay-phase join before issuing
that request, so its heap holds attempt resolutions only; a path-aware
list then drops the relays busy in the ledger, and each attempt is planned
in full (AttemptPlan) when it starts. Results are one Outcomes table of
columns. The loop reads and writes one scalar at a time through
memoryviews of the population, draw-table and outcome columns: indexing
one gives a built-in int or float, at under half the cost of ndarray.item,
and copies nothing.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right, insort
from collections.abc import Iterable, Iterator
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from relaysim import churn
from relaysim.churn import SessionModel, TimeToStayModel
from relaysim.model import (RATE_EPS, Peer, PeerColumns, RelayLedger, SimConfig,
                            validate_config)
from relaysim.netsim import (SERVER, CityTable, FailureScenario, assign_bandwidth,
                             assign_isp, handshake_table, inject_failure)
from relaysim.selection import (careful_slots, generate_relay_list, pool_positions,
                                rank_path_aware)
# random_relay_list is not called here; perfbench's tracer patches this binding.
from relaysim.selection import random_relay_list  # noqa: F401

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


# Codes of Outcomes.served_by besides a relay's id, which is non-negative.
SERVED_BY_SERVER, UNSERVED = -1, -2


@dataclass(eq=False)
class Outcomes:
    """The terminal records of one run's requests as columns, one row per
    request in the Population's issue order; requester_id, start_time and
    entered_relay_phase are read-only views of its columns. served_by
    holds the serving relay's id, SERVED_BY_SERVER or UNSERVED; a row is a
    primary success when served_by >= 0 and attempts == 1. Iteration
    yields the rows as RequestOutcome records of built-in values, and two
    tables are equal when their rows are.
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


def collect_metrics(outcomes: Outcomes, affected: np.ndarray | None = None,
                    in_region: np.ndarray | None = None) -> MetricsReport:
    """Aggregate outcomes; the affected and region slices take the rows
    that the given bool masks, one entry per outcome row, mark (None marks
    none). Counts are built-in ints, and each ratio divides two of them."""
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
    none = np.zeros(total, bool)
    affected, region = (none if mask is None else mask for mask in (affected, in_region))
    if len(affected) != total or len(region) != total:
        raise ValueError(f"a mask needs one entry per outcome row, {total}")
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
                         n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """City code (into cfg.city_table), ISP, uplink and downlink columns for
    n peers, drawn in that order: uniform city and ISP, bucketed capacity."""
    return (rng.integers(len(cfg.city_table), size=n), assign_isp(rng, n, cfg.isp_count),
            *assign_bandwidth(rng, n, cfg.uplink_profile, cfg.downlink_factor))


def session_model(cfg: SimConfig) -> SessionModel:
    """cfg's session model; a None Pareto field keeps the calibrated default."""
    pareto = {"pareto_shape": cfg.pareto_shape, "pareto_scale_min": cfg.pareto_scale_min}
    return SessionModel(cfg.arrival_rate_lambda,
                        **{k: v for k, v in pareto.items() if v is not None})


def build_population(cfg: SimConfig, rng: np.random.Generator) -> PeerColumns:
    """Sample the peer population as columns, ids 0..n-1: Poisson arrivals
    and Pareto sessions, then the attribute columns of draw_peer_attributes."""
    n = cfg.peer_count
    joins, durations = churn.sample_sessions(session_model(cfg), rng, n)
    return PeerColumns(tuple(cfg.city_table), np.arange(n),
                       *draw_peer_attributes(cfg, rng, n), joins, durations)


class AttemptPlan(NamedTuple):
    """Resolution of one relay attempt. verdict: 'reject' (resolve_time
    ends the wasted handshake), 'success' (delivery, also when it lands
    exactly on a departure), 'relay-lost' or 'requester-lost' (the departure
    that kills the transfer). rate_kbps is the relay capacity held until it
    resolves; 0 when it holds none."""

    verdict: str
    resolve_time: float
    rate_kbps: float = 0.0


@dataclass(slots=True)
class _Request:
    row: int                 # the requester's, in the Population and Simulation.outcomes
    ordinal: int             # issue order among the relay-phase requests
    candidates: tuple[int, ...] = ()   # relay rows to try, in order
    next_index: int = 0      # also the number of attempts started
    pending: tuple[AttemptPlan, int] | None = None   # scheduled (plan, relay row)


# Sub-stream labels under the master seed. Population and failure draws are
# shared by every strategy at a given seed (common random numbers); the
# selection stream is one block per population, a row per relay-phase
# requester by rank of id, so draws stay aligned across strategies and sizes.
_STREAM_POPULATION = 0
_STREAM_FAILURE = 1
_STREAM_SELECT = 2


def _stream(seed: int, label: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, label)))


class Population:
    """The peers of one run and their failure scenario, as read-only
    columns in issue order (join order, list order at equal joins).

    The columns are ids, city (codes into cities), isp, uplink, downlink,
    join, dep (join + duration), the masks affected, in_region (of the
    scenario) and cut (cut off at its join: the request enters the relay
    phase), and bucket (a code per city and ISP); by_id holds the rows in
    ascending id order, so by_id[np.searchsorted(ids, pid, sorter=by_id)]
    is the row of a present id pid. Ids are unique and non-negative.
    """

    def __init__(self, columns: PeerColumns, scenario: FailureScenario):
        if len(columns.ids) and columns.ids.min() < 0:
            raise ValueError("peer ids must be non-negative")
        self.scenario, self.cities = scenario, columns.cities
        order = np.argsort(columns.join, kind="stable")
        self.ids, self.city, self.isp, self.uplink, self.downlink, self.join = (
            column[order] for column in columns[1:7])
        self.dep = self.join + columns.duration[order]
        self.affected = np.isin(self.ids, list(scenario.affected))
        self.cut = self.affected & (scenario.start_time <= self.join) & (
            self.join < scenario.end_time)
        self.in_region = columns.in_city(scenario.region)[order]
        self.bucket = (self.isp - self.isp.min(initial=0)) * len(self.cities) + self.city
        self.by_id = np.argsort(self.ids)
        if np.any(np.diff(self.ids[self.by_id]) == 0):
            raise ValueError("peer ids must be unique")
        for column in filter(lambda v: isinstance(v, np.ndarray), vars(self).values()):
            column.flags.writeable = False

    @classmethod
    def from_peers(cls, peers: Iterable[Peer], scenario: FailureScenario) -> Population:
        """The population of the given Peer records, in list order."""
        return cls(PeerColumns.from_peers(peers), scenario)

    def issued_by(self, horizon: float) -> int:
        """Requests issued by the horizon: the leading rows with join <= horizon."""
        return int(np.searchsorted(self.join, horizon, side="right"))


def draw_population(cfg: SimConfig) -> Population:
    """The population and failure scenario a valid cfg describes.

    Only the population and failure fields and rng_seed enter the draw, so
    configs that differ in content size or strategy alone share it.
    """
    columns = build_population(cfg, _stream(cfg.rng_seed, _STREAM_POPULATION))
    affected = inject_failure(cfg.failure_region, cfg.failure_ratio, columns,
                              _stream(cfg.rng_seed, _STREAM_FAILURE))
    return Population(columns, FailureScenario(affected, cfg.failure_region,
                                               cfg.failure_start, cfg.failure_end))


class CandidateDraws(NamedTuple):
    """One population's relay candidate lists under one strategy (random:
    as drawn; path-aware: ranked, careful partition first), in read-only
    arrays a sweep group shares: list i, of the i-th relay-phase request
    issued, is relays[offsets[i]:offsets[i + 1]], as rows. made_for is the
    config key (_draws_key) they were made under, population their source."""

    made_for: tuple
    population: Population
    relays: np.ndarray
    offsets: np.ndarray


def _draws_key(cfg: SimConfig) -> tuple:
    """The config fields the candidate lists depend on, beside the population."""
    return (cfg.strategy, cfg.zeta, cfg.alpha, cfg.rng_seed, cfg.sim_duration,
            tuple(cfg.tts_coeffs), cfg.tts_clamp_min)


_RANK_BLOCK = 2048   # requesters per block of positions, sweep lists and rank


def draw_candidates(cfg: SimConfig, population: Population) -> CandidateDraws:
    """The candidate lists of every relay-phase requester (the cut-off rows
    issued by cfg.sim_duration), made without running the event loop, a
    block of requesters at a time: _walk's draws, as rows (by_id), then for
    path-aware the fetch-failure history and the rank at the requester's
    join, both on the block's columns. A path-aware draw drops the relays
    that are requesters issued before it: rows are in issue order, so those
    are the cut-off rows above its own. no-relay draws nothing."""
    k = population.issued_by(cfg.sim_duration) if cfg.strategy != "no-relay" else 0
    requesters = np.flatnonzero(population.cut[:k])
    path_aware = cfg.strategy == "path-aware"
    slots = careful_slots(cfg.zeta, cfg.alpha) if path_aware else 0
    tts = TimeToStayModel(*cfg.tts_coeffs, cfg.tts_clamp_min)
    relays, sizes = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
    for block, drawn, parts in _walk(cfg, population, k, requesters, slots):
        rows = population.by_id[drawn]
        if path_aware:
            own = np.repeat(block, parts.sum(axis=1))   # each relay's requester row
            keep = ~(population.cut[rows] & (rows < own))
            part = np.repeat(np.arange(parts.size), parts.ravel())
            parts = np.bincount(part[keep], minlength=parts.size).reshape(-1, 2)
            rows = rank_path_aware(rows[keep], parts, population.join[block], population, tts)
        relays.append(rows)
        sizes.append(parts.sum(axis=1))
    table = (np.concatenate(relays), np.concatenate([[0], np.cumsum(np.concatenate(sizes))]))
    for column in table:
        column.flags.writeable = False
    return CandidateDraws(_draws_key(cfg), population, *table)


def _walk(cfg: SimConfig, population: Population, k: int, requesters: np.ndarray,
          slots: int) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The draws of the requester rows, _RANK_BLOCK at a time, in issue
    order: (the block's rows, the id ranks drawn, each draw's careful part
    and then its random part, the part lengths as an n x 2 array). A
    peer's id rank is its position in population.by_id, so id ranks sort
    as ids do. The slots careful picks come from the requester's bucket
    (zero slots: the random draw).

    Step s is requester s's join t_s. Peer q among the first k rows is
    online at step s when join_q <= t_s < departure_q: it arrives at the
    first step at or after its join and leaves at the first step at or
    after its departure, so a zero-length session never comes online. The
    pool sizes at each step are counts on those step columns, so the pick
    positions of a block need no ids (pool_positions). One sweep keeps the
    online id ranks in an ascending list, and for careful slots one per
    bucket, applies each step's leaving and arriving peers, and maps each
    draw's positions inline: past the requester's slot in the pool it
    draws from, and the random picks also past the careful picks' slots.
    The selection stream is drawn once, cfg.zeta floats per requester; the
    requester with rank r by id reads row r."""
    n = len(requesters)
    if n == 0:
        return
    times = population.join[requesters]
    rows = _stream(cfg.rng_seed, _STREAM_SELECT).random((n, cfg.zeta))
    id_rank = np.empty(len(population.by_id), np.int64)
    id_rank[population.by_id] = np.arange(len(id_rank))
    rank = np.argsort(np.argsort(id_rank[requesters]))
    arrive, leave = (np.searchsorted(times, c[:k]) for c in (population.join, population.dep))
    live = np.flatnonzero(leave > arrive)
    arrive, leave = arrive[live], leave[live]
    by_step = []   # (live rows by step, where each step's rows start) for leave, arrive
    for step in (leave, arrive):
        order = np.argsort(step, kind="stable")
        by_step.append((live[order], np.searchsorted(step[order], np.arange(n + 1))))
    # Pool sizes: the peers online at each step and, for careful slots,
    # those of the step's bucket (keys code * (n + 1) + step), less the
    # requester, which is online at its own step when its session is not
    # empty. Bucket codes are compacted to 0..b-1 over the first k rows,
    # so no list is sized by a raw code. A random draw reads no bucket, so
    # it counts none and the sweep keeps none.
    here = population.dep[requesters] > times
    pool = by_step[1][1][1:] - by_step[0][1][1:] - here
    same, code, buckets = np.zeros(n, np.int64), None, []
    if slots:
        code = np.unique(population.bucket[:k], return_inverse=True)[1]
        buckets = [[] for _ in range(code.max(initial=-1) + 1)]
        keys = [np.sort(code[live] * (n + 1) + step) for step in (arrive, leave)]
        at = code[requesters] * (n + 1) + np.arange(n)
        same = (np.searchsorted(keys[0], at, side="right")
                - np.searchsorted(keys[1], at, side="right") - here)
        del keys, at
    del arrive, leave, live

    def changes(lo: int, hi: int) -> Iterator[list]:
        """Each step's leaving, then arriving, peers, lo to hi: id ranks,
        or for careful slots (id rank, bucket code) pairs."""
        for order, at in by_step:
            block = order[at[lo]:at[hi]]
            peers = id_rank[block].tolist()
            if slots:
                peers = list(zip(peers, code[block].tolist()))
            bounds = (at[lo:hi + 1] - at[lo]).tolist()
            yield [peers[a:b] for a, b in zip(bounds, bounds[1:])]

    online: list[int] = []
    for lo in range(0, n, _RANK_BLOCK):
        hi = min(lo + _RANK_BLOCK, n)
        u, careful = rows[rank[lo:hi]], np.minimum(same[lo:hi], slots)
        steps = zip(id_rank[requesters[lo:hi]].tolist(), here[lo:hi].tolist(),
                    *changes(lo, hi), pool_positions(u[:, slots:], pool[lo:hi] - careful))
        drawn: list[int] = []
        if not slots:
            for me, present, leaving, arriving, randoms in steps:
                for x in leaving:
                    del online[bisect_left(online, x)]
                for x in arriving:
                    insort(online, x)
                r = bisect_left(online, me) if present else len(online)
                for q in randoms:
                    drawn.append(online[q + (q >= r)])
        else:
            for (me, present, leaving, arriving, randoms), mine, picks in zip(
                    steps, code[requesters[lo:hi]].tolist(),
                    pool_positions(u[:, :slots], same[lo:hi])):
                for x, c in leaving:
                    del online[bisect_left(online, x)]
                    bucket = buckets[c]
                    del bucket[bisect_left(bucket, x)]
                for x, c in arriving:
                    insort(online, x)
                    insort(buckets[c], x)
                r = bisect_left(online, me) if present else len(online)
                if picks:
                    bucket = buckets[mine]
                    b = bisect_left(bucket, me) if present else len(bucket)
                    taken = [r]
                    for q in picks:
                        x = bucket[q + (q >= b)]
                        drawn.append(x)
                        taken.append(bisect_left(online, x))
                    # past slots t in ascending order, q becomes
                    # q + #{l : t_l - l <= q}: the skipped slots before the
                    # q-th one not skipped
                    taken.sort()
                    for l in range(1, len(taken)):
                        taken[l] -= l
                    for q in randoms:
                        drawn.append(online[q + bisect_right(taken, q)])
                else:
                    for q in randoms:
                        drawn.append(online[q + (q >= r)])
        del steps   # frees the block's step lists before the caller ranks it
        yield requesters[lo:hi], np.array(drawn, np.int64), np.column_stack(
            (careful, np.minimum(pool[lo:hi] - careful, cfg.zeta - slots)))


class Simulation:
    """One seeded simulation run of cfg.strategy; single-shot.

    All randomness derives from cfg.rng_seed through labeled sub-streams,
    so two runs with the same config are bit-identical and two strategies
    under the same seed see the identical population and failure draw. To
    run several cells on one population, pass it (draw_population) and its
    candidate lists (draw_candidates) for cfg's _draws_key; lists from
    another population or config key are rejected.

    The relay phase reads the population's ids, city, uplink, downlink,
    join and dep, the draw table's relays and offsets, and writes the
    outcome columns end_time, served_by and attempts, one scalar at a time
    through memoryviews of those columns (no per-run copies). The
    population views exist from construction, so _plan_attempt works on a
    Simulation that has not run; run() adds the others.
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
        # Read only by perfbench's check_outcomes, which asks `relay in peers`.
        self.peers = population.ids
        self._ids, self._city, self._uplink, self._downlink, self._join, self._dep = map(
            memoryview, (population.ids, population.city, population.uplink,
                         population.downlink, population.join, population.dep))
        self._size_kbits = cfg.content_size_kb * 8.0
        # Two-way handshake seconds by (requester, relay) city code.
        table = CityTable(cfg.city_table)
        coords = tuple(tuple(table.coords(city)) for city in population.cities)
        self._handshake = handshake_table(coords, cfg.latency_base_ms, cfg.latency_per_km_ms)
        self.outcomes: Outcomes | None = None   # set by run()
        self.ledger = RelayLedger()
        self._draws = candidates
        # Views of the draw table and of the outcome columns run() writes.
        self._relays = self._offsets = None
        self._end_time = self._served_by = self._attempts = None
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
        """Decide the server fetches, run the relay phase up to the horizon,
        aggregate metrics."""
        if self._ran:
            raise RuntimeError("Simulation.run is single-shot; build a new instance")
        self._ran = True
        population, horizon = self.population, self.cfg.sim_duration
        if self._draws is None:
            self._draws = draw_candidates(self.cfg, population)
        self._relays, self._offsets = map(memoryview, (self._draws.relays, self._draws.offsets))
        issued = population.issued_by(horizon)
        self._decide_server_fetches(issued)
        out = self.outcomes
        self._end_time, self._served_by, self._attempts = map(
            memoryview, (out.end_time, out.served_by, out.attempts))
        join, dep = self._join, self._dep
        for ordinal, row in enumerate(np.flatnonzero(population.cut[:issued]).tolist()):
            t = join[row]
            self._resolve_until(t)
            self._issue(_Request(row, ordinal), t)
        self._resolve_until(horizon)
        # Each request still open waits on one event past the horizon; it
        # ends at the horizon, or at its requester's departure if earlier.
        for *_, req in self._heap:
            self._end(req, min(dep[req.row], horizon))
        return collect_metrics(self.outcomes, population.affected[:issued],
                               population.in_region[:issued])

    def _decide_server_fetches(self, issued: int) -> None:
        """Record the first issued requests in self.outcomes, deciding server
        fetches on whole columns: a fetch ends at join + handshake +
        size_kbits / downlink and serves the request when that is by both its
        departure and the horizon; else the request ends at the earlier of
        the two. Relay-phase rows are written when they end."""
        horizon, p = self.cfg.sim_duration, self.population
        ids, join, dep, cut, city, downlink = (
            column[:issued] for column in (p.ids, p.join, p.dep, p.cut, p.city, p.downlink))
        in_city = np.array([shakes[c] for c, shakes in enumerate(self._handshake)], np.float64)
        t_end = join + in_city[city] + self._size_kbits / downlink
        served = ~cut & (t_end <= dep) & (t_end <= horizon)
        self.outcomes = Outcomes(
            self.cfg.content_size_kb, ids, join, np.where(served, t_end, np.minimum(dep, horizon)),
            np.where(served, SERVED_BY_SERVER, UNSERVED), np.zeros(issued, np.int64), cut)

    def _end(self, req: _Request, t: float, served_by: int = UNSERVED) -> None:
        """Write a relay-phase request's terminal state into its row."""
        row = req.row
        self._end_time[row], self._served_by[row], self._attempts[row] = (
            t, served_by, req.next_index)

    def _issue(self, req: _Request, t: float) -> None:
        """Start a cut-off requester's relay phase at its join t."""
        req.candidates = self._make_candidates(req)
        self._start_next_attempt(req, t)

    def _make_candidates(self, req: _Request) -> tuple[int, ...]:
        """The request's ranked relay rows, less its busy relays for
        path-aware; none for no-relay."""
        strategy = self.cfg.strategy
        if strategy == "no-relay":
            return ()
        at = self._offsets
        ranked = tuple(self._relays[at[req.ordinal]:at[req.ordinal + 1]].tolist())
        if strategy == "random":
            return ranked
        return generate_relay_list(ranked, self.population, gamma=self.cfg.gamma,
                                   workload_mode=self.cfg.workload_mode, ledger=self.ledger)

    def _plan_attempt(self, relay: int, requester: int, t: float) -> AttemptPlan:
        """Decide how one relay attempt plays out, without side effects;
        relay and requester are rows. A relay that is offline or cut off is
        rejected. Otherwise the rate is fixed at start: the smaller of the
        relay's free uplink, the requester's downlink, and the relay's fair
        downlink share across its current workload plus this transfer, both
        read from the run's ledger. Every attempt pays a two-way handshake
        at the city-to-city latency.
        """
        city, dep, downlink = self._city, self._dep, self._downlink
        handshake = self._handshake[city[requester]][city[relay]]
        relay_dep = dep[relay]
        if not self._join[relay] <= t < relay_dep or self.population.scenario.cut_off(
                self._ids[relay], t):
            return AttemptPlan("reject", t + handshake)
        ledger = self.ledger
        rate = min(ledger.uplink_free_kbps(relay, self._uplink[relay]), downlink[requester],
                   downlink[relay] / (ledger.workload.get(relay, 0) + 1))
        if rate <= RATE_EPS:
            return AttemptPlan("reject", t + handshake)
        t_end = t + handshake + self._size_kbits / rate
        requester_dep = dep[requester]
        if t_end <= relay_dep and t_end <= requester_dep:
            return AttemptPlan("success", t_end, rate)
        if requester_dep <= relay_dep:
            return AttemptPlan("requester-lost", requester_dep, rate)
        return AttemptPlan("relay-lost", relay_dep, rate)

    def _start_next_attempt(self, req: _Request, t: float) -> None:
        departure = self._dep[req.row]
        if t >= departure or req.next_index >= len(req.candidates):
            self._end(req, min(t, departure))   # requester gone, or list exhausted
            return
        relay = req.candidates[req.next_index]
        req.next_index += 1
        plan = self._plan_attempt(relay, req.row, t)
        if plan.rate_kbps > 0:
            self.ledger.commit(relay, self._uplink[relay], plan.rate_kbps)
        req.pending = (plan, relay)
        priority = ATTEMPT_COMPLETE if plan.verdict == "success" else ATTEMPT_ABORT
        self._schedule(plan.resolve_time, priority, req)

    def _on_resolve(self, req: _Request, t: float) -> None:
        plan, relay = req.pending
        if plan.rate_kbps > 0:
            self.ledger.release(relay, plan.rate_kbps)
        if plan.verdict == "success":
            self._end(req, t, self._ids[relay])
        elif plan.verdict == "requester-lost":
            self._end(req, t)
        else:
            self._start_next_attempt(req, t)


def run(cfg: SimConfig) -> MetricsReport:
    """Build a Simulation from cfg and run it to completion."""
    return Simulation(cfg).run()
