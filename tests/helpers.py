"""Helpers shared by the test modules."""

import csv
import io
import math
from dataclasses import dataclass, replace
from datetime import datetime, timedelta, timezone
from types import SimpleNamespace
from typing import NamedTuple
from unittest import mock

import numpy as np
from hypothesis import strategies as st

from relaysim import engine
from relaysim.engine import (SERVED_BY_SERVER, UNSERVED, CandidateDraws, Outcomes, Population,
                             Simulation)
from relaysim.io import _OUTCOME_BLOCK
from relaysim.model import PeerColumns, RelayLedger, SimConfig, TraceColumns
from relaysim.netsim import SERVER, FailureScenario
from relaysim.selection import _check_instance, rank_path_aware


@dataclass(frozen=True, slots=True)
class Peer:
    """One browser peer with one bounded session (seconds): a PeerColumns
    row as a record, for tests that name peers one at a time."""

    id: int
    city: str
    isp: int
    uplink_kbps: float
    downlink_kbps: float
    join_time: float
    session_duration: float

    @property
    def departure_time(self) -> float:
        return self.join_time + self.session_duration


@dataclass(frozen=True)
class TraceRecord:
    """One access-log row, a TraceColumns row as a record: a user session
    with an optional fetch failure mark."""

    user_id: str
    request_ts: float
    leave_ts: float
    fetch_failure: bool = False

    @property
    def duration(self) -> float:
        return self.leave_ts - self.request_ts


def peer_columns(peers):
    """The PeerColumns of the given Peer records, in list order."""
    peers = list(peers)
    cities = tuple(dict.fromkeys(p.city for p in peers))
    ints = np.array([(p.id, cities.index(p.city), p.isp) for p in peers], np.int64)
    floats = np.array([(p.uplink_kbps, p.downlink_kbps, p.join_time, p.session_duration)
                       for p in peers], np.float64)
    return PeerColumns(cities, *ints.reshape(-1, 3).T, *floats.reshape(-1, 4).T)


def population(peers, scenario=FailureScenario(frozenset())):
    """The Population of the given Peer records, in list order; by default
    no peer is cut off."""
    return Population(peer_columns(peers), scenario)


def trace_columns(records):
    """The TraceColumns of the given TraceRecord rows, in list order."""
    records = list(records)
    return TraceColumns(tuple(r.user_id for r in records), [r.request_ts for r in records],
                        [r.leave_ts for r in records], [r.fetch_failure for r in records])


def trace_rows(trace):
    """The rows of a TraceColumns table as TraceRecord records of built-in
    values, in row order."""
    return list(map(TraceRecord, trace.user_id, trace.request_ts.tolist(),
                    trace.leave_ts.tolist(), trace.fetch_failure.tolist()))


class Online(NamedTuple):
    """Online peers as the test-side draws read them: their ids in
    ascending order, and for each bucket code, a (city, ISP) pair, the ids
    of its online peers in ascending order."""

    ids: list
    buckets: dict


def online_set(peers):
    """The Online set holding exactly the given peers (one per id)."""
    ids, buckets = [], {}
    for pid, code in sorted({p.id: (p.city, p.isp) for p in peers}.items()):
        ids.append(pid)
        buckets.setdefault(code, []).append(pid)
    return Online(ids, buckets)


def sweep_draw(requester, online, t, u, *, failed=(), **fields):
    """One requester's draw as the draw pass makes it (engine._walk, then
    engine.draw_candidates), with u as its row of the selection stream.
    The requester is cut off at its join t; the peers of online whose ids
    are in failed are cut off at their joins, issued before it; every
    other peer in online must be online at t. fields are SimConfig fields.
    Returns (the population, the walk's draw as (careful ids, random ids),
    the requester's list in the draw table, as rows)."""
    others = [p for p in online if p.id != requester.id]
    assert all(p.join_time <= t < p.departure_time for p in others), \
        "a peer in online is offline at t"
    history = [p for p in others if p.id in failed]
    peers = history + [p for p in others if p.id not in failed] + [
        replace(requester, join_time=t)]
    cut = frozenset(p.id for p in history) | {requester.id}
    listed = population(peers, FailureScenario(cut))
    cfg = SimConfig(peer_count=len(peers), sim_duration=math.inf, **fields)
    # the requester reads row r of the stream, r its rank by id among the
    # cut-off peers; the other rows are never read by its draw
    stream = np.zeros((len(cut), cfg.zeta))
    stream[sorted(cut).index(requester.id)] = u
    fixed = SimpleNamespace(random=lambda shape: stream)
    walk, blocks = engine._walk, []

    def kept_walk(*args):
        parts, drawn = walk(*args)

        def kept():
            for block in drawn:
                blocks.append((parts, block[2]))
                yield block
        return parts, kept()
    with mock.patch.object(engine, "_stream", lambda seed, label: fixed), \
            mock.patch.object(engine, "_walk", kept_walk):
        draws = engine.draw_candidates(cfg, listed)
    parts, drawn = blocks[-1]
    ids = listed.ids[listed.by_id[drawn[len(drawn) - parts[-1].sum():]]].tolist()
    careful = parts[-1, 0]
    return listed, (tuple(ids[:careful]), tuple(ids[careful:])), draw_list(
        draws, len(draws.offsets) - 2)


def draw_list(draws, ordinal):
    """List ordinal of a CandidateDraws table, relays[offsets[ordinal]:
    offsets[ordinal + 1]], as a tuple of rows."""
    return tuple(draws.relays[draws.offsets[ordinal]:draws.offsets[ordinal + 1]].tolist())


def fixed_draws(cfg, population, lists):
    """A CandidateDraws table for cfg and population that holds the given
    lists, relay ids by requester id, one per relay-phase request issued
    by cfg.sim_duration (empty for a requester lists lacks). A run under
    the random strategy walks each list as given."""
    p = population
    requesters = p.ids[np.flatnonzero(p.cut[:p.issued_by(cfg.sim_duration)])].tolist()
    assert set(lists) <= set(requesters), "a list for a peer that is no relay-phase requester"
    made = [rows_of(p, lists.get(pid, ())) for pid in requesters]
    relays = np.concatenate([np.zeros(0, np.int64), *made])
    return CandidateDraws(engine._draws_key(cfg), p, relays, np.cumsum([0, *map(len, made)]))


def fixed_list_simulation(cfg, peers, scenario, lists):
    """A Simulation of cfg under the random strategy on the given Peer
    records, whose relay-phase requesters walk the given lists (fixed_draws)."""
    cfg = replace(cfg, strategy="random")
    listed = population(peers, scenario)
    return Simulation(cfg, listed, fixed_draws(cfg, listed, lists))


def one_attempt(relay, requester, t=0.0, affected=(), in_use=None, **fields):
    """The requester's outcome after one relay attempt on relay at t: a
    two-peer run with no handshake latency in which requester, moved to
    join at t and cut off, walks the list (relay,). A rejected attempt ends
    the request at t; a transfer ends it later, at t + size_kbits / rate
    when it delivers. affected holds more peer ids to cut off, in_use the
    relay uplink kbps already in use by peer id; fields are SimConfig fields."""
    requester = replace(requester, join_time=t)
    cfg = SimConfig(peer_count=2, latency_base_ms=0.0, latency_per_km_ms=0.0,
                    sim_duration=math.inf, **fields)
    sim = fixed_list_simulation(cfg, [relay, requester],
                                FailureScenario(frozenset({requester.id, *affected})),
                                {requester.id: (relay.id,)})
    rows = row_by_id(sim.population)
    sim.ledger.in_use_kbps.update({rows[pid]: kbps for pid, kbps in (in_use or {}).items()})
    sim.run()
    (out,) = [o for o in sim.outcomes if o.requester_id == requester.id]
    assert out.attempts == 1
    return out


def run_recording_lists(sim):
    """Run sim and return the relay list each relay-phase request walked,
    as peer ids by requester id: under path-aware, what
    engine.generate_relay_list made, whose calls come in issue order; under
    random, the draw table's list; under no-relay, none. Only path-aware
    calls generate_relay_list."""
    made, real = [], engine.generate_relay_list

    def kept(*args, **kwargs):
        made.append(real(*args, **kwargs))
        return made[-1]
    with mock.patch.object(engine, "generate_relay_list", kept):
        sim.run()
    p, rows = sim.population, np.flatnonzero(sim.outcomes.entered_relay_phase)
    if sim.cfg.strategy != "path-aware":
        assert made == []
        made = [draw_list(sim._draws, i) if sim.cfg.strategy == "random" else ()
                for i in range(len(rows))]
    assert len(made) == len(rows)
    return {pid: ids_of(p, listed) for pid, listed in zip(p.ids[rows].tolist(), made)}


def peer_rows(columns):
    """The PeerColumns as Peer records, in column order."""
    return [Peer(pid, columns.cities[city], isp, up, down, join, duration)
            for pid, city, isp, up, down, join, duration in zip(
                *(column.tolist() for column in columns[1:]))]


def rows_of(population, ids):
    """The rows of the peers with the given ids in population, an int64
    array, found through by_id; KeyError when an id is missing."""
    ids, by_id = np.asarray(ids, np.int64), population.by_id
    at = np.searchsorted(population.ids, ids, sorter=by_id)
    rows = by_id[np.minimum(at, len(by_id) - 1)]   # past the end: the largest id's row
    missing = population.ids[rows] != ids
    if missing.any():
        raise KeyError(ids[missing].tolist())
    return rows


def peer_of(population, pid):
    """The Peer record of the peer with id pid, read from its row (rows_of)."""
    p, (row,) = population, rows_of(population, [pid]).tolist()
    join = p.join.item(row)
    return Peer(int(pid), p.cities[p.city.item(row)], p.isp.item(row),
                p.uplink.item(row), p.downlink.item(row), join, p.dep.item(row) - join)


def peers_of(population):
    """The Peer records of population in issue order, peer_of each id."""
    return [peer_of(population, pid) for pid in population.ids.tolist()]


def row_by_id(population):
    """Peer id -> row in population (rows_of), for the tests that name
    peers by id."""
    ids = population.ids.tolist()
    return dict(zip(ids, rows_of(population, ids).tolist()))


def ids_of(population, rows):
    """The peer ids at the given rows of population, as a tuple."""
    return tuple(population.ids[np.asarray(rows, np.int64)].tolist())


def ledger_by_row(ledger, population):
    """A RelayLedger keyed by peer id, keyed instead by row in population,
    as a run keeps it; the ids population lacks are left out."""
    rows = row_by_id(population)
    return RelayLedger(*({rows[pid]: v for pid, v in entries.items() if pid in rows}
                         for entries in (ledger.workload, ledger.in_use_kbps)))


def flat_draws(block, population):
    """A block of path-aware draws, (careful ids, random ids) pairs, as
    rank_path_aware takes it: the drawn peers' int64 rows in population,
    each draw's careful part then its random part, and the n x 2 part
    lengths."""
    rows = row_by_id(population)
    flat = np.array([rows[pid] for drawn in block for part in drawn for pid in part], np.int64)
    sizes = np.array([[len(part) for part in drawn] for drawn in block], np.int64)
    return flat, sizes.reshape(-1, 2)


def ranked_list(drawn, t, population, cfg):
    """The list of rows rank_path_aware makes of one path-aware draw
    (careful ids, random ids) for a request at time t under cfg's
    time-to-stay model."""
    return tuple(rank_path_aware(*flat_draws([drawn], population), [t], population,
                                 cfg).tolist())


def careful_head(lst, careful):
    """The ids of the list lst that are in careful, a draw's careful
    partition, after checking that they are the list's leading ids."""
    head = tuple(pid for pid in lst if pid in careful)
    assert lst[:len(head)] == head, (lst, careful)
    return head


def candidate_lists(draws):
    """The lists of a CandidateDraws table by requester id, in issue order:
    the relay-phase ordinals follow the cut-off rows."""
    p = draws.population
    rows = np.flatnonzero(p.cut)[:len(draws.offsets) - 1]
    return {pid: ids_of(p, draw_list(draws, i)) for i, pid in enumerate(p.ids[rows].tolist())}


def outcomes_table(rows, size_kb=1.0):
    """The Outcomes table of RequestOutcome rows, which share one size_kb
    (size_kb when there are none). An end_time of None becomes NaN."""
    rows = list(rows)
    sizes = {o.size_kb for o in rows} or {size_kb}
    assert len(sizes) == 1, sizes
    codes = {SERVER: SERVED_BY_SERVER, None: UNSERVED}
    return Outcomes(
        sizes.pop(),
        np.array([o.requester_id for o in rows], dtype=np.int64),
        np.array([o.start_time for o in rows], dtype=np.float64),
        np.array([math.nan if o.end_time is None else o.end_time for o in rows],
                 dtype=np.float64),
        np.array([codes.get(o.served_by, o.served_by) for o in rows], dtype=np.int64),
        np.array([o.attempts for o in rows], dtype=np.int64),
        np.array([o.entered_relay_phase for o in rows], dtype=bool))


# Floats whose repr takes an exponent or is otherwise special.
SPECIAL_FLOATS = (0.0, 1e-05, 1.5e-05, 1e-04, 0.1, 5e-324, 9999999999999998.0, 1e+16,
                  1.2345e+16, math.inf)


@st.composite
def outcome_tables(draw):
    """Outcomes tables with no rows, a few, or more than one writer block:
    served_by of every kind, attempts from 0, and times mixing special
    floats with floats from 1e-8 to 1e19. Rows are in random id order."""
    n = draw(st.one_of(st.integers(0, 12),
                       st.sampled_from((_OUTCOME_BLOCK, 2 * _OUTCOME_BLOCK + 3))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def times():
        spread = rng.random(n) * 10.0 ** rng.integers(-8, 20, n)
        return np.where(rng.random(n) < 0.3, rng.choice(SPECIAL_FLOATS, n), spread)
    codes = np.array([SERVED_BY_SERVER, UNSERVED])
    served_by = np.where(rng.random(n) < 0.5, rng.choice(codes, n), rng.integers(0, 10**6, n))
    return Outcomes(draw(st.sampled_from(SPECIAL_FLOATS[:-1] + (1600.0, 512.5))),
                    rng.choice(10**6, n, replace=False).astype(np.int64), times(), times(),
                    served_by.astype(np.int64), rng.integers(0, 4, n).astype(np.int64),
                    rng.random(n) < 0.5)


@st.composite
def trace_files(draw):
    """Bytes of a trace CSV with the right header, mixing good rows (numeric
    or ISO timestamps in either order, any flag spelling) with blank rows,
    4-field whitespace-only rows, wrong field counts, empty user ids,
    non-finite and unparsable timestamps and bad flags. User ids may hold
    commas, quotes and line breaks, which the writer quotes; lines end in
    LF or CRLF."""
    offsets = st.sampled_from((None, timezone.utc, timezone(timedelta(hours=8))))
    iso = st.builds(lambda dt, z: dt.isoformat() + (z if dt.tzinfo is None else ""),
                    st.datetimes(datetime(1900, 1, 1), datetime(2200, 1, 1), timezones=offsets),
                    st.sampled_from(("", "", "Z")))
    numbers = st.one_of(st.floats(-1e12, 1e12).map(repr), st.integers(-10**6, 10**10).map(str))
    odd = st.sampled_from(("nan", "NaN", "inf", "-inf", "1e400", "abc", "", " 12 ",
                           "2026-01-01T00:00:00Z", "2026-13-01T00:00:00"))
    good_flags = st.sampled_from(("0", "1", "true", "false", "TRUE", " False "))
    flags = st.one_of(good_flags, st.sampled_from(("maybe", "2", "")))
    users = st.text("uv7, \"\n", max_size=5)

    @st.composite
    def good(draw):
        a, b = draw(st.one_of(numbers, iso)), draw(st.one_of(numbers, iso))
        return [draw(users.filter(str.strip)), a, b, draw(good_flags)]

    def other(draw):
        kind = draw(st.sampled_from(("blank", "spaces", "count", "empty-user", "any")))
        if kind == "blank":
            return []
        if kind == "spaces":
            return draw(st.lists(st.sampled_from(("", " ", "\t")), min_size=4, max_size=4))
        if kind == "count":
            return draw(st.lists(st.one_of(users, numbers), min_size=1, max_size=6)
                        .filter(lambda row: len(row) != 4))
        field = st.one_of(numbers, iso, odd)
        return [" " if kind == "empty-user" else draw(users), draw(field), draw(field),
                draw(flags)]

    rows = draw(st.lists(good(), max_size=8)) + [other(draw) for _ in range(
        draw(st.integers(0, 8)))]
    out = io.StringIO()
    w = csv.writer(out, lineterminator=draw(st.sampled_from(("\n", "\r\n"))))
    w.writerow(["user_id", "request_ts", "leave_ts", "fetch_failure"])
    w.writerows(draw(st.permutations(rows)))
    return out.getvalue().encode()


def save_instance(path, b, caps):
    """Write an assignment instance as CSV, as selection.load_instance reads
    it: first row caps, then one row per requester."""
    b, caps = _check_instance(b, caps)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow([repr(float(c)) for c in caps])
        for row in b:
            w.writerow([repr(float(v)) for v in row])


def assignment_matrix(sel):
    """0/1 matrix p with p[r, q] = 1 iff relay r serves requester q in the
    SelectionMatrix sel."""
    p = np.zeros((len(sel.relay_caps), len(sel.assignment)), dtype=np.int8)
    for q, r in enumerate(sel.assignment):
        if r >= 0:
            p[r, q] = 1
    return p
