"""Discrete-event engine for joint server and relay-peer delivery.

Each peer issues one content request when it arrives. Requests first try
the server; a peer cut off by a regional failure falls back to its relay
candidate list and works through it one attempt at a time. One rule
decides every path: is the peer's row affected and the time in the
failure window? A requester that is not cut off reaches the server; a
relay that is not reaches the server and any requester.

A run reads a Population, read-only columns in issue order built from
PeerColumns. draw_population checks its config, as Simulation does, and
peer_columns draws the peer attributes from the models the config holds.
Rules read the columns: a peer is online over [join, dep)
(_walk, Simulation.run). Server fetches hold no relay capacity, so they
are decided at issue time on whole columns. The candidate draws and the
path-aware rank depend only on the population, so draw_candidates makes
every list before the event loop, a block of requesters at a time: pick
positions as arrays from the pool sizes, one sweep that only indexes the
ascending online id ranks (positions in by_id), one gather from id ranks
to rows, then the fetch-failure history and the rank as array steps. From
there a relay is its row: a list is a tuple of relay rows in try order,
and the run's relay capacity is keyed by row. The relay phase is one loop
in Simulation.run. It resolves the attempts due by each relay-phase join
before issuing that request, so its heap holds attempt resolutions only;
a path-aware list then drops the relays busy in in_use_kbps, and the loop
decides each attempt's verdict, rate and resolution time in full when it
starts. Results are one Outcomes table of columns. The loop reads and
writes one scalar at a time through memoryviews of the population,
draw-table and outcome columns: indexing one gives a built-in int or
float, at under half the cost of ndarray.item, and copies nothing.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right, insort
from collections.abc import Iterator
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from relaysim import churn
from relaysim.model import RATE_EPS, CapacityError, PeerColumns, SimConfig, validate_config
from relaysim.netsim import (SERVER, FailureScenario, assign_bandwidth, handshake_table,
                             inject_failure)
from relaysim.selection import (careful_slots, generate_relay_list, pool_positions,
                                rank_path_aware)
# random_relay_list is not called here; perfbench's tracer patches this binding.
from relaysim.selection import random_relay_list  # noqa: F401

# Heap entries are (time, priority, seq, row, list, next index, relay, rate,
# verdict), one per relay attempt resolution: ATTEMPT_COMPLETE when the
# attempt delivers, ATTEMPT_ABORT otherwise, so deliveries run first at equal
# times; seq keeps insertion order. Every resolution due at t runs before a
# request issued at t. The next index is also the number of attempts
# started; rate is the relay capacity held until the resolution, 0 when none.
ATTEMPT_COMPLETE, ATTEMPT_ABORT = range(2)
# Verdicts: a delivery (also when it lands exactly on a departure), the
# departure that kills the transfer, or a rejected attempt (its resolution
# ends the wasted handshake).
_SUCCESS, _REQUESTER_LOST, _RELAY_LOST, _REJECT = range(4)


@dataclass(slots=True)
class RequestOutcome:
    """Terminal record of one request. Runs keep Outcomes columns; this row
    form stays because the benchmark's check_outcomes reads rows by attribute."""

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
    yields the rows as RequestOutcome records of built-in values.
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
        # kept for the benchmark's check_outcomes, which reads rows by attribute
        labels = {SERVED_BY_SERVER: SERVER, UNSERVED: None}
        size_kb = self.size_kb
        for pid, start, end, code, attempts, relay_phase in zip(
                self.requester_id.tolist(), self.start_time.tolist(),
                self.end_time.tolist(), self.served_by.tolist(), self.attempts.tolist(),
                self.entered_relay_phase.tolist()):
            yield RequestOutcome(pid, size_kb, start, labels.get(code, code), attempts,
                                 relay_phase, end)


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


def peer_columns(cfg: SimConfig, rng: np.random.Generator, join: np.ndarray,
                 duration: np.ndarray) -> PeerColumns:
    """Read-only columns of len(join) peers, ids 0..n-1: the given join
    times and session durations, and attributes drawn in this order: a
    uniform city code (into cfg.city_table), a uniform ISP in
    1..cfg.isp_count, then the bucketed capacity (assign_bandwidth). join
    and duration are made read-only too, so pass arrays no one writes."""
    n = len(join)
    columns = PeerColumns(tuple(cfg.city_table), np.arange(n),
                          rng.integers(len(cfg.city_table), size=n),
                          rng.integers(1, cfg.isp_count + 1, size=n),
                          *assign_bandwidth(cfg, rng, n), join, duration)
    for column in columns[1:]:
        column.flags.writeable = False
    return columns


def build_population(cfg: SimConfig, rng: np.random.Generator) -> PeerColumns:
    """Sample the peer population as read-only columns, ids 0..n-1:
    Poisson arrivals and Pareto sessions, then the peer attributes."""
    return peer_columns(cfg, rng, *churn.sample_sessions(cfg, rng, cfg.peer_count))


# Sub-stream labels under the master seed. Population and failure draws are
# shared by every strategy at a given seed (common random numbers); the
# selection stream is one block per population, a row per relay-phase
# requester by rank of id, so draws stay aligned across strategies and sizes.
_STREAM_POPULATION, _STREAM_FAILURE, _STREAM_SELECT = range(3)


def _stream(seed: int, label: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, label)))


def _read_only(column: np.ndarray) -> bool:
    """Whether no one can write column's memory through numpy: it and
    every array it views are read-only, and the last owns its memory."""
    while isinstance(column, np.ndarray) and not column.flags.writeable:
        column = column.base
    return column is None


class Population:
    """The peers of one run and their failure scenario, as read-only
    columns in issue order (join order, list order at equal joins).

    The columns are ids, city (codes into cities), isp, uplink, downlink,
    join, dep (join + duration), the masks affected, in_region (of the
    scenario) and cut (cut off at its join: the request enters the relay
    phase); by_id holds the rows in ascending id order, so
    by_id[np.searchsorted(ids, pid, sorter=by_id)] is the row of a present
    id pid; every peer passes the checks of __init__, and every affected id
    of the scenario names one of them. A Population shares no memory its
    caller can write: it keeps an input column itself only when the columns
    are already in issue order and that column is read-only, down to the
    memory it views (as build_population's are), and otherwise holds a
    copy.
    """

    def __init__(self, columns: PeerColumns, scenario: FailureScenario):
        c = columns   # a peer whose duration is inf never leaves
        for rule, ok in (("a non-negative id", c.ids >= 0), ("a finite join", np.isfinite(c.join)),
                         ("a non-negative duration", c.duration >= 0),
                         ("a finite non-negative uplink", (c.uplink >= 0) & (c.uplink < np.inf)),
                         ("a finite positive downlink", (c.downlink > 0) & (c.downlink < np.inf))):
            if not ok.all():
                raise ValueError(f"peer {c.ids[np.argmin(ok)]} needs {rule}")
        self.scenario, self.cities = scenario, columns.cities
        order = None if np.all(c.join[1:] >= c.join[:-1]) else np.argsort(c.join, kind="stable")
        self.ids, self.city, self.isp, self.uplink, self.downlink, self.join = (
            column[order] if order is not None else column if _read_only(column)
            else column.copy() for column in c[1:7])
        self.dep = self.join + (c.duration if order is None else c.duration[order])
        self.by_id = np.argsort(self.ids)
        ranked = self.ids[self.by_id]
        if np.any(ranked[1:] == ranked[:-1]):
            raise ValueError("peer ids must be unique")
        at = np.searchsorted(ranked, affected := scenario.affected)   # both ascend
        found = (at < len(ranked)) & (np.append(ranked, 0)[at] == affected)
        if not found.all():
            raise ValueError(f"affected peer {affected[~found][0]} is not in the population")
        self.affected = np.zeros(len(ranked), bool)
        self.affected[self.by_id[at]] = True
        self.cut = self.affected & (scenario.start_time <= self.join) & (
            self.join < scenario.end_time)
        self.in_region = c._replace(city=self.city).in_city(scenario.region)
        for column in filter(lambda v: isinstance(v, np.ndarray), vars(self).values()):
            column.flags.writeable = False

    def issued_by(self, horizon: float) -> int:
        """Requests issued by the horizon: the leading rows with join <= horizon."""
        return int(np.searchsorted(self.join, horizon, side="right"))


def draw_population(cfg: SimConfig) -> Population:
    """The population and failure scenario of cfg (ConfigError if invalid).

    Only the population and failure fields and rng_seed enter the draw, so
    configs that differ in content size or strategy alone share it.
    """
    validate_config(cfg)
    columns = build_population(cfg, _stream(cfg.rng_seed, _STREAM_POPULATION))
    affected = inject_failure(cfg.failure_region, cfg.failure_ratio, columns,
                              _stream(cfg.rng_seed, _STREAM_FAILURE))
    return Population(columns, FailureScenario(affected, cfg.failure_region,
                                               cfg.failure_start, cfg.failure_end))


class CandidateDraws(NamedTuple):
    """One population's relay candidate lists under one strategy (no-relay:
    empty; random: as drawn; path-aware: ranked, careful partition first),
    in read-only arrays a sweep group shares: list i, of the i-th
    relay-phase request issued, is relays[offsets[i]:offsets[i + 1]], as
    rows. made_for is the config key (_draws_key) they were made under,
    population their source."""

    made_for: tuple
    population: Population
    relays: np.ndarray
    offsets: np.ndarray


def _draws_key(cfg: SimConfig) -> tuple:
    """The config fields the candidate lists depend on, beside the population."""
    return (cfg.strategy, cfg.zeta, cfg.alpha, cfg.rng_seed, cfg.sim_duration,
            tuple(cfg.tts_coeffs), cfg.tts_clamp_min)


# The draw sweep runs in blocks of consecutive requesters. A block holds
# its steps' arrivals and departures and its picks as Python ints, so it
# is bounded by count: its steps plus their arrivals and departures stay
# within _RANK_BLOCK, or it is one step.
_RANK_BLOCK = 2048


def draw_candidates(cfg: SimConfig, population: Population) -> CandidateDraws:
    """The candidate lists of every relay-phase requester (the cut-off rows
    issued by cfg.sim_duration), made without running the event loop, a
    block of requesters at a time: _walk's draws, as rows (by_id), then for
    path-aware the fetch-failure history and the rank at the requester's
    join, both on the block's columns. A path-aware draw drops the relays
    that are requesters issued before it: rows are in issue order, so those
    are the cut-off rows above its own. The table is filled in place, sized
    by the draws' lengths; the tail that drop leaves is cut off in place.
    no-relay draws nothing: each request gets an empty list, and no
    selection stream is built."""
    k = population.issued_by(cfg.sim_duration)
    requesters = np.flatnonzero(population.cut[:k])
    path_aware = cfg.strategy == "path-aware"
    slots = careful_slots(cfg.zeta, cfg.alpha) if path_aware else 0
    parts, blocks = (_walk(cfg, population, k, requesters, slots) if cfg.strategy != "no-relay"
                     else (np.zeros((len(requesters), 2), np.int64), ()))
    sizes, end = parts.sum(axis=1), 0
    relays = np.empty(int(sizes.sum()), np.int64)
    for lo, hi, drawn in blocks:
        rows, block, parts_of = population.by_id[drawn], requesters[lo:hi], parts[lo:hi]
        if path_aware:
            own = np.repeat(block, sizes[lo:hi])   # each relay's requester row
            keep = ~(population.cut[rows] & (rows < own))
            part = np.repeat(np.arange(parts_of.size), parts_of.ravel())
            parts_of = np.bincount(part[keep], minlength=parts_of.size).reshape(-1, 2)
            rows = rank_path_aware(rows[keep], parts_of, population.join[block], population, cfg)
            sizes[lo:hi] = parts_of.sum(axis=1)
        relays[end:end + len(rows)] = rows
        end += len(rows)
    relays.resize(end, refcheck=False)   # no view of relays exists
    table = (relays, np.concatenate([[0], np.cumsum(sizes)]))
    for column in table:
        column.flags.writeable = False
    return CandidateDraws(_draws_key(cfg), population, *table)


def _walk(cfg: SimConfig, population: Population, k: int, requesters: np.ndarray,
          slots: int) -> tuple[np.ndarray, Iterator[tuple[int, int, np.ndarray]]]:
    """The draws of the requester rows: each draw's careful part and then
    its random part, as the part lengths (an n x 2 array), and the blocks
    of draws in issue order, (lo, hi, the id ranks requesters[lo:hi]
    drew). A peer's id rank is its position in population.by_id, so id
    ranks sort as ids do. The slots careful picks come from the
    requester's bucket (zero slots: the random draw).

    Step s is requester s's join t_s. The peer q among the first k rows is
    online at step s when join_q <= t_s < departure_q: it arrives at the
    first step at or after its join and leaves at the first step at or
    after its departure, so a zero-length session never comes online. The
    pool sizes at each step are counts on those step columns (the same
    bucket's over the members of the buckets drawn from), so the pick
    positions of a block need no ids (pool_positions). One sweep keeps the
    online id ranks in an ascending list, and one per bucket some requester
    draws from, applies each step's leaving and arriving id ranks, and maps
    each draw's positions inline: past the requester's slot in the pool it
    draws from, and the random picks also past the careful picks' slots. A
    block is a run of consecutive steps whose count plus their arrivals
    and departures is at most _RANK_BLOCK, or a single step. The selection
    stream holds cfg.zeta floats per requester; the requester with rank r
    by id reads row r. The rows are drawn in order as the blocks first read
    them, and only rows a later block reads are kept."""
    n, zeta = len(requesters), cfg.zeta
    if n == 0:
        return np.zeros((0, 2), np.int64), iter(())
    times = population.join[requesters]
    id_rank = np.empty(len(population.by_id), np.int32)
    id_rank[population.by_id] = np.arange(len(id_rank), dtype=np.int32)
    requester_rank = id_rank[requesters]
    rank = np.argsort(np.argsort(requester_rank))
    later = np.minimum.accumulate(rank[::-1])[::-1]   # the smallest rank read from i on
    # Careful slots draw from the requester's bucket, a code per city and
    # ISP. Only the b buckets requesters draw from are kept, numbered
    # 0..b-1 whatever the ISP numbers: group numbers their members (rows),
    # and bucket_of maps a member's id rank to its bucket's list (others:
    # None); a random draw keeps no bucket, so every entry is None.
    if slots:
        code = np.subtract(population.isp[:k], population.isp.min(initial=0), dtype=np.int64)
        code *= len(population.cities)
        code += population.city[:k]
        drawn_from = np.array(sorted(set(code[requesters].tolist())))
        members = np.flatnonzero(np.isin(code, drawn_from))
        group = np.searchsorted(drawn_from, code[members])
        asked = np.searchsorted(drawn_from, code[requesters]) * (n + 1) + np.arange(n)
        del code
        buckets = np.fromiter(([] for _ in drawn_from), object, len(drawn_from))
        bucket_of = np.full(len(id_rank), None)
        bucket_of[id_rank[members]] = buckets[group]   # no int object per member
        bucket_of = bucket_of.tolist()
    else:
        bucket_of = [None] * len(id_rank)
    arrive, leave = (np.searchsorted(times, c[:k]).astype(np.int32)
                     for c in (population.join, population.dep))
    live = leave > arrive
    # Pool sizes: the peers online at each step and, for careful slots,
    # those of the step's bucket (counted on keys group * (n + 1) + step),
    # less the requester, which is online at its own step when its session
    # is not empty.
    here = population.dep[requesters] > times
    same = np.zeros(n, np.int64)
    if slots:
        alive = live[members]
        keys = (np.sort(group[alive] * (n + 1) + step[members[alive]])
                for step in (arrive, leave))
        same = np.subtract(*(np.searchsorted(key, asked, side="right") for key in keys)) - here
    ranks, arrive, leave = id_rank[:k][live], arrive[live], leave[live]
    del id_rank, live   # the live peers' columns are all the sweep needs

    def starts(step: np.ndarray) -> np.ndarray:
        """Where each step's entries start in a stream sorted by step."""
        return np.concatenate(([0], np.bincount(step, minlength=n + 1).cumsum()))
    # (live id ranks by step, where each step's ids start) for leave, arrive;
    # rows are in issue order, so the arrive steps already ascend
    by_step = [(ranks[np.argsort(leave, kind="stable")], starts(leave)), (ranks, starts(arrive))]
    pool = (by_step[1][1] - by_step[0][1])[1:n + 1] - here
    careful = np.minimum(same, slots)
    pool -= careful   # the random picks' pool
    parts = np.column_stack((careful, np.minimum(pool, zeta - slots)))
    # the steps below each step plus their arrivals and departures
    events = (by_step[0][1] + by_step[1][1])[:n + 1] + np.arange(n + 1)

    def changes(lo: int, hi: int) -> Iterator[list]:
        """Each step's leaving, then arriving, peers, lo to hi, as id ranks."""
        for order, at in by_step:
            peers = order[at[lo]:at[hi]].tolist()
            edges = (at[lo:hi + 1] - at[lo]).tolist()
            yield [peers[a:b] for a, b in zip(edges, edges[1:])]

    def blocks() -> Iterator[tuple[int, int, np.ndarray]]:
        stream, held, base = _stream(cfg.rng_seed, _STREAM_SELECT), np.zeros((0, zeta)), 0
        online: list[int] = []
        lo = 0
        while lo < n:
            hi = max(lo + 1, int(np.searchsorted(events, events[lo] + _RANK_BLOCK, "right")) - 1)
            # held: the selection rows of rank base on, through the block's
            # largest; no later block reads a rank below later[lo]
            top = max(int(rank[lo:hi].max()) + 1, base + len(held))
            held = np.concatenate((held[later[lo] - base:],
                                   stream.random((top - base - len(held), zeta))))
            base = later[lo]
            u = held[rank[lo:hi] - base]
            steps = zip(requester_rank[lo:hi].tolist(), here[lo:hi].tolist(), *changes(lo, hi),
                        pool_positions(u[:, slots:], pool[lo:hi]))
            drawn: list[int] = []
            for (me, present, leaving, arriving, randoms), picks in zip(
                    steps, pool_positions(u[:, :slots], same[lo:hi])):
                for x in leaving:
                    del online[bisect_left(online, x)]
                    if (bucket := bucket_of[x]) is not None:
                        del bucket[bisect_left(bucket, x)]
                for x in arriving:
                    insort(online, x)
                    if (bucket := bucket_of[x]) is not None:
                        insort(bucket, x)
                r = bisect_left(online, me) if present else len(online)
                if picks:
                    bucket = bucket_of[me]
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
            drawn = np.array(drawn, np.int64)
            yield lo, hi, drawn
            lo = hi
    return parts, blocks()


def _check_draws(draws: CandidateDraws, cfg: SimConfig) -> None:
    """Raise ValueError naming the first rule a draw table breaks: offsets
    start at 0, never decrease, end at len(relays) and hold one entry per
    relay-phase request issued by the horizon plus one, under every
    strategy; every relay is a population row."""
    p, relays, offsets = draws.population, draws.relays, draws.offsets
    n = len(p.ids)
    lists = np.count_nonzero(p.cut[:p.issued_by(cfg.sim_duration)])
    for rule, broken in (
            ("offsets that start at 0", offsets[:1].tolist() != [0]),
            ("offsets that never decrease", np.any(offsets[1:] < offsets[:-1])),
            (f"offsets that end at len(relays), {len(relays)}",
             offsets[-1:].tolist() != [len(relays)]),
            (f"{lists + 1} offsets, one per relay-phase request plus one",
             len(offsets) != lists + 1),
            (f"relay rows in [0, {n})", len(relays) and not 0 <= relays.min() <= relays.max() < n)):
        if broken:
            raise ValueError(f"candidate draws need {rule}")


class Simulation:
    """One seeded simulation run of cfg.strategy; single-shot.

    All randomness derives from cfg.rng_seed through labeled sub-streams,
    so two runs with the same config are bit-identical and two strategies
    under the same seed see the identical population and failure draw. To
    run several cells on one population, pass it (draw_population) and its
    candidate lists (draw_candidates) for cfg's _draws_key; lists from
    another population or config key, or a table that breaks the rules of
    _check_draws, are rejected.
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
            _check_draws(candidates, cfg)
        self.population = population
        # Read only by perfbench's check_outcomes, which asks `relay in peers`.
        self.peers = population.ids
        self._size_kbits = cfg.content_size_kb * 8.0
        # Two-way handshake seconds by (requester, relay) city code.
        for city in population.cities:
            if city not in cfg.city_table:
                raise ValueError(f"population city {city!r} is missing from cfg.city_table")
        coords = tuple(tuple(cfg.city_table[city]) for city in population.cities)
        self._handshake = handshake_table(coords, cfg.latency_base_ms, cfg.latency_per_km_ms)
        self.outcomes: Outcomes | None = None   # set by run()
        # The run's relay capacity, keyed by relay row and kept sparse: a
        # relay without an entry serves no transfer. run is the one writer.
        self.in_use_kbps: dict[int, float] = {}   # committed uplink
        self.workload: dict[int, int] = {}        # transfers in progress
        self._draws = candidates

    def run(self) -> MetricsReport:
        """Decide the server fetches, run the relay phase up to the horizon,
        aggregate metrics.

        The relay phase is one loop. It issues the cut-off rows in order,
        each at its join after every resolution due by then, and starts an
        attempt on a request's next relay when the request is issued and
        when an attempt ends without a delivery. An attempt on a relay that
        is offline or cut off is rejected; otherwise its rate is fixed at
        start: the smallest of the relay's free uplink, the requester's
        downlink, and the relay's fair downlink share across its current
        workload plus this transfer. The loop keeps the run's relay capacity
        in self.in_use_kbps and self.workload: a rate at or below RATE_EPS
        rejects, a larger one is committed to both (the rate, one transfer),
        the attempt's resolution releases it and drops an entry back at
        zero, and CapacityError flags an over-commit or an over-release. A
        path-aware list is filtered by in_use_kbps when its request is
        issued; a no-relay list is empty. Every attempt pays a two-way
        handshake at the city-to-city latency. It reads and writes one
        scalar at a time through memoryviews of the population, draw-table
        and outcome columns.
        """
        if self.outcomes is not None:
            raise RuntimeError("Simulation.run is single-shot; build a new instance")
        cfg, population = self.cfg, self.population
        horizon, path_aware = cfg.sim_duration, cfg.strategy == "path-aware"
        if self._draws is None:
            self._draws = draw_candidates(cfg, population)
        issued = population.issued_by(horizon)
        self._decide_server_fetches(issued)
        out = self.outcomes
        end_time, served_by, attempts = map(memoryview, (out.end_time, out.served_by,
                                                         out.attempts))
        ids, city, uplink, downlink, join, dep, affected = map(memoryview, (
            population.ids, population.city, population.uplink, population.downlink,
            population.join, population.dep, population.affected))
        relays, offsets = map(memoryview, (self._draws.relays, self._draws.offsets))
        handshake, size_kbits = self._handshake, self._size_kbits
        start, end = population.scenario.start_time, population.scenario.end_time
        in_use, workload = self.in_use_kbps, self.workload
        push, pop = heapq.heappush, heapq.heappop
        heap: list = []
        seq = k = 0
        rows = np.flatnonzero(population.cut[:issued])
        times = [*population.join[rows].tolist(), horizon]   # each issue, then the stop
        rows = rows.tolist()
        while True:
            if heap and heap[0][0] <= times[k]:
                t, _, _, row, relay_list, i, relay, rate, verdict = pop(heap)
                if rate:
                    # release the transfer's rate; an entry back at zero is dropped
                    left = in_use.get(relay, 0.0) - rate
                    if left < -1e-6:
                        raise CapacityError(f"relay row {relay}: released more than committed")
                    if -RATE_EPS < left < RATE_EPS:
                        del in_use[relay]
                    else:
                        in_use[relay] = left
                    n = workload[relay]
                    if n > 1:
                        workload[relay] = n - 1
                    else:
                        del workload[relay]
                # a relay-phase row's served_by stays UNSERVED unless delivered
                if verdict == _SUCCESS:
                    end_time[row], served_by[row], attempts[row] = t, ids[relay], i
                    continue
                if verdict == _REQUESTER_LOST:
                    end_time[row], attempts[row] = t, i
                    continue
            elif k < len(rows):
                row, t, i = rows[k], times[k], 0
                relay_list = tuple(relays[offsets[k]:offsets[k + 1]].tolist())
                if path_aware:
                    relay_list = generate_relay_list(relay_list, population, gamma=cfg.gamma,
                                                     in_use_kbps=in_use)
                k += 1
            else:
                break
            # Start the request's attempt i at t: at its issue, or when
            # attempt i - 1 was rejected or lost its relay.
            departure = dep[row]
            if t >= departure or i >= len(relay_list):
                # the requester left between attempts, or the list is exhausted
                end_time[row], attempts[row] = departure if t >= departure else t, i
                continue
            relay = relay_list[i]
            i += 1
            seq += 1
            resolve, rate, verdict = t + handshake[city[row]][city[relay]], 0.0, _REJECT
            relay_dep = dep[relay]
            if join[relay] <= t < relay_dep and not (affected[relay] and start <= t < end):
                # the smallest of the three bounds; a free uplink at or
                # below zero leaves a rate at or below RATE_EPS, a reject
                up, n = uplink[relay], workload.get(relay, 0)
                rate, down = up - in_use.get(relay, 0.0), downlink[row]
                share = downlink[relay] / (n + 1)
                if down < rate:
                    rate = down
                if share < rate:
                    rate = share
                if rate <= RATE_EPS:
                    rate = 0.0
                else:
                    # commit, checked against in_use as it stands
                    used = in_use.get(relay, 0.0)
                    if used + rate > up + RATE_EPS:
                        raise CapacityError(f"relay row {relay}: commit of {rate} kbps exceeds "
                                            f"uplink {up} (in use {used})")
                    in_use[relay], workload[relay] = used + rate, n + 1
                    t_end = resolve + size_kbits / rate
                    if t_end <= relay_dep and t_end <= departure:
                        resolve, verdict = t_end, _SUCCESS
                    elif departure <= relay_dep:
                        resolve, verdict = departure, _REQUESTER_LOST
                    else:
                        resolve, verdict = relay_dep, _RELAY_LOST
            push(heap, (resolve, ATTEMPT_COMPLETE if verdict == _SUCCESS else ATTEMPT_ABORT,
                        seq, row, relay_list, i, relay, rate, verdict))
        # Each request still open waits on one resolution past the horizon;
        # it ends at the horizon, or at its requester's departure if earlier.
        for _, _, _, row, _, i, *_ in heap:
            end_time[row], attempts[row] = min(dep[row], horizon), i
        return collect_metrics(out, population.affected[:issued], population.in_region[:issued])

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
        t_end = in_city[city] + join   # the sum join + in_city[city], exactly
        t_end += self._size_kbits / downlink
        served = ~cut & (t_end <= dep) & (t_end <= horizon)
        end_time = np.minimum(dep, horizon)
        np.copyto(end_time, t_end, where=served)
        del t_end
        self.outcomes = Outcomes(self.cfg.content_size_kb, ids, join, end_time,
                                 np.where(served, SERVED_BY_SERVER, UNSERVED),
                                 np.zeros(issued, np.int64), cut)


def run(cfg: SimConfig) -> MetricsReport:
    """Build a Simulation from cfg and run it to completion."""
    return Simulation(cfg).run()
