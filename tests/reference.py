"""A deliberately slow model of one simulation run, written from the
protocol's rules rather than from the engine's machinery.

Where the engine keeps an indexed online set, a heap and relay capacity
keyed by row, this model scans every peer for the online pool at each
request, draws candidates by popping from the materialized, id-sorted
pool, keeps the pending resolutions in a plain list re-sorted before
every pop, and keeps relay capacity in two dicts keyed by id. It shares with the engine only the
geography (haversine distance and the latency model), the time-to-stay
formula and the selection stream's seed. reference_run(cfg, peers,
scenario) returns {requester id: (served_by, attempts, end_time,
entered_relay_phase)} for every request issued by the horizon.

reference_draws(cfg, peers, scenario) is the draw pass as one step per
relay-phase requester, sharing no draw or rank code with the engine: a
scan of every peer for the pools at the requester's join, list pops from
them (draw_path_aware), a set of the requesters seen so far as the
fetch-failure history, and a sort of each part by durability.

It also keeps the row-by-row forms of the metrics and the outcome CSV
writer, which scan RequestOutcome records: collect_metrics_rows and
write_outcomes_csv_rows; and of the trace parser, parse_trace_rows, which
holds the file as a list of rows and builds a TraceRecord per good row.
The rules these read per record (online, served, primary_success) are
stated here, not read from the code they check.
"""

import csv
import math

import numpy as np

from relaysim.churn import estimate_time_to_stay
from relaysim.engine import MetricsReport
from relaysim.io import OUTCOME_COLUMNS, TRACE_COLUMNS, TraceFormatError, _fmt, _parse_timestamp
from relaysim.model import RATE_EPS
from relaysim.netsim import SERVER, haversine_km

from helpers import TraceRecord, online_set

# Resolutions that deliver run first at one instant, then the other
# resolutions, then request issues; ties keep the order they were added in.
SUCCESS, OTHER_RESOLUTION, REQUEST = range(3)


def cut_off(scenario, pid, t):
    """An affected peer is cut off over the half-open failure window. The
    rule is keyed by id, over a set of the scenario's ids, not by the row
    mask a run reads."""
    return pid in set(scenario.affected.tolist()) and scenario.start_time <= t < scenario.end_time


def online(peer, t):
    return peer.join_time <= t < peer.join_time + peer.session_duration


def departure(peer):
    return peer.join_time + peer.session_duration


def served(o):
    """A request is served when the server or a relay delivered it."""
    return o.served_by is not None


def primary_success(o):
    """A request is a primary success when the first relay it tried served it."""
    return isinstance(o.served_by, int) and o.attempts == 1


def durability(cfg, q, t):
    """The request-time sort key of candidate q at time t: the longest
    estimated time-to-stay under cfg first, ties on ascending id."""
    return (-estimate_time_to_stay(cfg, (t - q.join_time) / 60.0), q.id)


def not_busy(q, in_use, gamma):
    """The workload filter: q's committed share of its uplink, from in_use
    (kbps by id), is at most gamma."""
    return in_use.get(q.id, 0.0) / q.uplink_kbps <= gamma


def pick(u, pool, k):
    """Up to k of pool without replacement: pick j pops position
    int(u[j] * len(pool)) of what is left."""
    pool = list(pool)
    return [pool.pop(int(u[j] * len(pool))) for j in range(min(k, len(pool)))]


def reference_run(cfg, peers, scenario):
    horizon = cfg.sim_duration
    size_kbits = cfg.content_size_kb * 8.0
    cities = cfg.city_table
    by_id = {p.id: p for p in peers}

    def handshake(a, b):
        dist = haversine_km(*cities[a.city], *cities[b.city])
        # twice the one-way latency, base + per km * distance, in seconds
        return 2.0 * (cfg.latency_base_ms + cfg.latency_per_km_ms * dist) / 1000.0

    # Every request issued by the horizon, in join order, list order at
    # equal joins.
    issued = sorted((p for p in peers if p.join_time <= horizon), key=lambda p: p.join_time)
    result = {}
    cut = [p for p in issued if cut_off(scenario, p.id, p.join_time)]
    cut_ids = {p.id for p in cut}
    for p in issued:
        if p.id in cut_ids:
            continue
        t_end = p.join_time + handshake(p, p) + size_kbits / p.downlink_kbps
        if t_end <= departure(p) and t_end <= horizon:
            result[p.id] = (SERVER, 0, t_end, False)
        else:
            result[p.id] = (None, 0, min(departure(p), horizon), False)

    # The selection stream: one row of zeta floats per relay-phase
    # requester, row r for the requester with rank r by id.
    rows = {}
    if cfg.strategy != "no-relay":
        block = np.random.default_rng(np.random.SeedSequence((cfg.rng_seed, 2))).random(
            (len(cut), cfg.zeta)).tolist()
        rows = dict(zip(sorted(cut_ids), block))

    in_use, workload, fetch_failed = {}, {}, set()
    state = {p.id: {"attempts": 0, "list": [], "next": 0} for p in cut}
    pending = []   # [time, priority, order, kind, requester id, relay id, rate]
    order = 0

    def add(time, priority, *event):
        nonlocal order
        order += 1
        pending.append([time, priority, order, *event])

    def candidates(req, t):
        if cfg.strategy == "no-relay":
            return []
        u = rows[req.id]
        pool = sorted((q for q in peers if q.id != req.id and online(q, t)),
                      key=lambda q: q.id)
        if cfg.strategy == "random":
            return [q.id for q in pick(u, pool, cfg.zeta)]
        slots = min(cfg.zeta, math.ceil(cfg.zeta * cfg.alpha - 1e-12))
        careful = pick(u, [q for q in pool if (q.city, q.isp) == (req.city, req.isp)], slots)
        taken = {q.id for q in careful}
        randoms = pick(u[slots:], [q for q in pool if q.id not in taken], cfg.zeta - slots)

        def keep(q):
            return q.id not in fetch_failed and not_busy(q, in_use, cfg.gamma)

        return [q.id for part in (careful, randoms)
                for q in sorted(filter(keep, part), key=lambda q: durability(cfg, q, t))]

    def attempt(req, t):
        st = state[req.id]
        if t >= departure(req):
            result[req.id] = (None, st["attempts"], departure(req), True)
            return
        if st["next"] >= len(st["list"]):
            result[req.id] = (None, st["attempts"], t, True)
            return
        relay = by_id[st["list"][st["next"]]]
        st["next"] += 1
        st["attempts"] += 1
        shake = handshake(req, relay)
        if not online(relay, t) or cut_off(scenario, relay.id, t):
            add(t + shake, OTHER_RESOLUTION, "reject", req.id, relay.id, 0.0)
            return
        rate = min(max(0.0, relay.uplink_kbps - in_use.get(relay.id, 0.0)),
                   req.downlink_kbps, relay.downlink_kbps / (workload.get(relay.id, 0) + 1))
        if rate <= RATE_EPS:
            add(t + shake, OTHER_RESOLUTION, "reject", req.id, relay.id, 0.0)
            return
        in_use[relay.id] = in_use.get(relay.id, 0.0) + rate
        workload[relay.id] = workload.get(relay.id, 0) + 1
        t_end = t + shake + size_kbits / rate
        if t_end <= departure(relay) and t_end <= departure(req):
            add(t_end, SUCCESS, "success", req.id, relay.id, rate)
        elif departure(req) <= departure(relay):
            add(departure(req), OTHER_RESOLUTION, "requester-lost", req.id, relay.id, rate)
        else:
            add(departure(relay), OTHER_RESOLUTION, "relay-lost", req.id, relay.id, rate)

    for p in cut:
        add(p.join_time, REQUEST, "request", p.id, None, 0.0)
    while pending:
        pending.sort()
        if pending[0][0] > horizon:
            break
        t, _, _, kind, rid, relay_id, rate = pending.pop(0)
        req, st = by_id[rid], state[rid]
        if kind == "request":
            fetch_failed.add(rid)
            st["list"] = candidates(req, t)
            attempt(req, t)
            continue
        if rate > 0:
            remaining = in_use[relay_id] - rate
            if abs(remaining) < RATE_EPS:
                del in_use[relay_id]
            else:
                in_use[relay_id] = remaining
            workload[relay_id] -= 1
            if workload[relay_id] == 0:
                del workload[relay_id]
        if kind == "success":
            result[rid] = (relay_id, st["attempts"], t, True)
        elif kind == "requester-lost":
            result[rid] = (None, st["attempts"], t, True)
        else:
            attempt(req, t)
    # A request still waiting on an event ends at the horizon, or at its
    # requester's departure if earlier.
    for _, _, _, _, rid, _, _ in pending:
        req = by_id[rid]
        result[rid] = (None, state[rid]["attempts"], min(departure(req), horizon), True)
    return result


def bucket(peer):
    """The peer's careful-pool key: its city and ISP."""
    return peer.city, peer.isp


def draw_path_aware(requester, code, online, *, alpha, zeta, u, failed):
    """The draw half of a path-aware list by list pops: (careful ids,
    random ids) for the requester with that id and bucket code, from an
    Online set (helpers.online_set). The careful slots,
    ceil(zeta * alpha) and at most zeta, pick from the online peers of the
    requester's bucket, reading u from 0; the rest pick from the other
    online peers, reading u from the careful slots on. Neither pool holds
    the requester, and the random pool leaves out the careful picks. A
    careful shortfall is not backfilled. The ids in failed (the
    fetch-failure history) take their picks, then leave both parts, kept
    in draw order. With alpha 0 and failed empty the random part is
    selection.random_relay_list's draw."""
    slots = min(zeta, math.ceil(zeta * alpha - 1e-12))
    careful = pick(u, [pid for pid in online.buckets.get(code, ()) if pid != requester], slots)
    randoms = pick(u[slots:], [pid for pid in online.ids
                               if pid != requester and pid not in careful], zeta - slots)
    return tuple(tuple(pid for pid in part if pid not in failed) for part in (careful, randoms))


def reference_draws(cfg, peers, scenario):
    """The candidate lists of the relay-phase requests, as draw_candidates
    makes them, and the pools they were drawn from: ({requester id: relay
    ids in try order}, {requester id: (join, online ids less its own, its
    bucket's online ids less its own)}).

    One step per requester, in issue order: a scan of every peer for those
    online at its join, the list-pop draw (draw_path_aware, whose alpha-0
    draw is the random list), the requesters of the earlier steps as the
    history of a path-aware draw, and each part of it sorted by
    durability at the join.
    """
    horizon = cfg.sim_duration
    issued = sorted((p for p in peers if p.join_time <= horizon), key=lambda p: p.join_time)
    cut = [p for p in issued if cut_off(scenario, p.id, p.join_time)]
    if cfg.strategy == "no-relay":
        return {}, {}
    block = np.random.default_rng(np.random.SeedSequence((cfg.rng_seed, 2))).random(
        (len(cut), cfg.zeta)).tolist()
    rows = dict(zip(sorted(p.id for p in cut), block))
    path_aware = cfg.strategy == "path-aware"
    failed, lists, pools = set(), {}, {}
    for p in cut:
        t = p.join_time
        now = [q for q in peers if online(q, t)]
        by_id = {q.id: q for q in now}
        pool = sorted(pid for pid in by_id if pid != p.id)
        pools[p.id] = (t, pool, [pid for pid in pool if bucket(by_id[pid]) == bucket(p)])
        careful, randoms = draw_path_aware(p.id, bucket(p), online_set(now),
                                           alpha=cfg.alpha if path_aware else 0.0,
                                           zeta=cfg.zeta, u=rows[p.id], failed=failed)
        if path_aware:
            failed.add(p.id)
            careful, randoms = ([q.id for q in sorted(map(by_id.get, part),
                                                      key=lambda q: durability(cfg, q, t))]
                                for part in (careful, randoms))
        lists[p.id] = (*careful, *randoms)
    for pid, listed in lists.items():
        assert set(listed) <= set(pools[pid][1]) and len(set(listed)) == len(listed) <= cfg.zeta
    return lists, pools


def collect_metrics_rows(outcomes, affected_ids=frozenset(), region_ids=frozenset()):
    """engine.collect_metrics over a list of RequestOutcome records."""
    total = len(outcomes)
    served_server = sum(1 for o in outcomes if o.served_by == SERVER)
    relay_served = [o for o in outcomes if isinstance(o.served_by, int)]
    unserved = total - served_server - len(relay_served)
    relay_phase = [o for o in outcomes if o.entered_relay_phase]
    primaries = sum(1 for o in relay_phase if primary_success(o))

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
        affected_success_ratio=ratio(sum(1 for o in affected if served(o)), len(affected)),
        region_requests=len(region),
        region_success_ratio=ratio(sum(1 for o in region if served(o)), len(region)),
    )


def write_outcomes_csv_rows(outcomes, path):
    """io.write_outcomes_csv through csv.writer, one RequestOutcome at a time."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(OUTCOME_COLUMNS)
        for o in sorted(outcomes, key=lambda o: o.requester_id):
            w.writerow([o.requester_id, _fmt(o.size_kb), _fmt(o.start_time),
                        _fmt(o.end_time), _fmt(o.served_by), o.attempts,
                        _fmt(primary_success(o)), _fmt(o.entered_relay_phase)])


def parse_trace_rows(path):
    """io.parse_trace row by row: the whole file read as a list of rows,
    each numbered by the line it starts on, one TraceRecord per good row.
    Returns (records, errors), or raises TraceFormatError as parse_trace
    does."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows, starts = [], [1]   # a row starts on the line after the last one read
        for row in reader:
            rows.append(row)
            starts.append(reader.line_num + 1)
    if not rows or tuple(c.strip().lower() for c in rows[0]) != TRACE_COLUMNS:
        raise TraceFormatError(
            f"{path}: expected header {','.join(TRACE_COLUMNS)}")
    records = []
    errors = []
    data_rows = 0
    for lineno, row in zip(starts[1:], rows[1:]):
        if not row or not "".join(row).strip():
            continue
        data_rows += 1
        if len(row) != 4:
            errors.append((lineno, f"expected 4 fields, got {len(row)}"))
            continue
        user_id, req_s, leave_s, fail_s = (c.strip() for c in row)
        if not user_id:
            errors.append((lineno, "empty user_id"))
            continue
        try:
            req_ts = _parse_timestamp(req_s)
            leave_ts = _parse_timestamp(leave_s)
        except ValueError:
            errors.append((lineno, f"bad timestamp in {row!r}"))
            continue
        if leave_ts < req_ts:
            errors.append((lineno, "leave_ts precedes request_ts"))
            continue
        flag = fail_s.lower()
        if flag in ("0", "false"):
            fail = False
        elif flag in ("1", "true"):
            fail = True
        else:
            errors.append((lineno, f"fetch_failure must be 0 or 1, got {fail_s!r}"))
            continue
        records.append(TraceRecord(user_id, req_ts, leave_ts, fail))
    if data_rows and len(errors) > data_rows / 2:
        raise TraceFormatError(
            f"{path}: {len(errors)} of {data_rows} rows malformed")
    return tuple(records), tuple(errors)
