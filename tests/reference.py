"""A deliberately slow model of one simulation run, written from the
protocol's rules rather than from the engine's machinery.

Where the engine keeps an indexed online set, a heap and a ledger object,
this model scans every peer for the online pool at each request, draws
candidates by popping from the materialized, id-sorted pool, keeps the
pending resolutions in a plain list re-sorted before every pop, and keeps
relay capacity in two dicts. It shares with the engine only the
geography (city distances and the latency model), the time-to-stay
formula and the selection stream's seed. reference_run(cfg, peers,
scenario) returns {requester id: (served_by, attempts, end_time,
entered_relay_phase)} for every request issued by the horizon.
"""

import math

import numpy as np

from relaysim.churn import TimeToStayModel, estimate_time_to_stay
from relaysim.model import RATE_EPS
from relaysim.netsim import SERVER, CityTable, latency_ms

# Resolutions that deliver run first at one instant, then the other
# resolutions, then request issues; ties keep the order they were added in.
SUCCESS, OTHER_RESOLUTION, REQUEST = range(3)


def cut_off(scenario, pid, t):
    """An affected peer is cut off over the half-open failure window."""
    return pid in scenario.affected and scenario.start_time <= t < scenario.end_time


def online(peer, t):
    return peer.join_time <= t < peer.join_time + peer.session_duration


def departure(peer):
    return peer.join_time + peer.session_duration


def pick(u, pool, k):
    """Up to k of pool without replacement: pick j pops position
    int(u[j] * len(pool)) of what is left."""
    pool = list(pool)
    return [pool.pop(int(u[j] * len(pool))) for j in range(min(k, len(pool)))]


def reference_run(cfg, peers, scenario):
    horizon = cfg.sim_duration
    size_kbits = cfg.content_size_kb * 8.0
    cities = CityTable(cfg.city_table)
    tts = TimeToStayModel(*cfg.tts_coeffs, cfg.tts_clamp_min)
    by_id = {p.id: p for p in peers}

    def handshake(a, b):
        dist = cities.distance_km(a.city, b.city)
        return 2.0 * latency_ms(dist, cfg.latency_base_ms, cfg.latency_per_km_ms) / 1000.0

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
            if q.id in fetch_failed:
                return False
            if cfg.workload_mode == "count":
                return workload.get(q.id, 0) <= cfg.gamma
            return in_use.get(q.id, 0.0) / q.uplink_kbps <= cfg.gamma

        def durability(q):
            return (-estimate_time_to_stay(tts, (t - q.join_time) / 60.0), q.id)

        return [q.id for part in (careful, randoms)
                for q in sorted(filter(keep, part), key=durability)]

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
