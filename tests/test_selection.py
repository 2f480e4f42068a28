"""Candidate list generation and assignment solver tests."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaysim.churn import estimate_time_to_stay
from relaysim.engine import Population, _walk
from relaysim.model import PeerColumns, RelayLedger, SimConfig
from relaysim.netsim import FailureScenario
from relaysim.selection import (
    Infeasible,
    SelectionMatrix,
    generate_relay_list,
    load_instance,
    pool_positions,
    random_relay_list,
    rank_path_aware,
    solve_exact,
    solve_greedy,
)

from helpers import (Peer, assignment_matrix, careful_head, flat_draws, ids_of, ledger_by_row,
                     population, save_instance, sweep_draw)
from reference import durability, not_busy


def make_peer(pid, city="Beijing", isp=1, join=0.0, dur=36000.0, **kw):
    base = dict(id=pid, city=city, isp=isp, uplink_kbps=1024.0,
                downlink_kbps=4096.0, join_time=join, session_duration=dur)
    base.update(kw)
    return Peer(**base)


def tts_fields(tts):
    """The time-to-stay fields of the SimConfig tts."""
    return dict(tts_coeffs=tts.tts_coeffs, tts_clamp_min=tts.tts_clamp_min)


def path_aware_list(requester, online, *, alpha, zeta, u, failed, t, tts, ledger, **workload):
    """Draw, rank and filter a path-aware list through the draw pass
    (helpers.sweep_draw), as a request issued at t while exactly the peers
    in online are online, after the requesters in failed, would get it,
    with the id-keyed ledger; returns the list's ids and its careful ids
    (careful_head)."""
    peers, drawn, ranked = sweep_draw(requester, online, t, u, failed=failed,
                                      strategy="path-aware", alpha=alpha, zeta=zeta,
                                      **tts_fields(tts))
    lst = ids_of(peers, generate_relay_list(ranked, peers, ledger=ledger_by_row(ledger, peers),
                                            **workload))
    return lst, careful_head(lst, drawn[0])


def row(seed, n):
    """A row of n uniform floats, as draw_candidates hands one requester."""
    return np.random.default_rng(seed).random(n).tolist()


# The list-building forms of the two generators: each pool is materialized
# from online peers in ascending id order. The indexed generators must draw
# exactly what these draw, from the same row.

def reference_draw(u, pool, k):
    pool = list(pool)
    return [pool.pop(int(u[j] * len(pool))) for j in range(min(k, len(pool)))]


def reference_random_relay_list(requester, online_peers, zeta, u):
    pool = [p for p in online_peers if p.id != requester.id]
    return tuple(p.id for p in reference_draw(u, pool, zeta))


def reference_generate_relay_list(requester, online_peers, *, alpha, gamma, zeta, u, t,
                                  tts, workload_mode, ledger, failed):
    pool = [p for p in online_peers if p.id != requester.id]
    careful_slots = min(zeta, math.ceil(zeta * alpha - 1e-12))
    same = [p for p in pool if p.city == requester.city and p.isp == requester.isp]
    careful = reference_draw(u, same, careful_slots)
    taken = {p.id for p in careful}
    rest = [p for p in pool if p.id not in taken]
    randoms = reference_draw(u[careful_slots:], rest, zeta - careful_slots)

    def keep(p):
        return p.id not in failed and not_busy(p, ledger.in_use_kbps, ledger.workload, gamma,
                                               workload_mode)

    def rank(p):
        return durability(tts, p, t)

    careful = sorted((p for p in careful if keep(p)), key=rank)
    randoms = sorted((p for p in randoms if keep(p)), key=rank)
    return tuple(p.id for p in careful), tuple(p.id for p in randoms)


@st.composite
def selection_cases(draw):
    """An online population in arrival order, a requester that may or may
    not be online, list parameters, a fetch-failure history, a ledger with
    busy relays, and the requester's row of zeta floats in [0, 1)."""
    ids = draw(st.lists(st.integers(0, 200), unique=True, max_size=40))

    def column(values):
        """One of values per id, all read from one draw of len(ids) bytes."""
        return [values[b % len(values)]
                for b in draw(st.binary(min_size=len(ids), max_size=len(ids)))]
    peers = [make_peer(pid, city=city, isp=isp, join=join, uplink_kbps=uplink)
             for pid, city, isp, join, uplink in zip(
                 ids, column(("Wuhan", "Beijing")), column((1, 2)),
                 column((0.0, 60.0, 600.0, 3000.0)), column((512.0, 1024.0)))]
    # the requester is online, or absent: a zero-length session, or a
    # city (Chengdu) whose careful bucket is empty
    if peers and draw(st.booleans()):
        requester = draw(st.sampled_from(peers))
    else:
        requester = make_peer(draw(st.integers(0, 200).filter(lambda i: i not in ids)),
                              city=draw(st.sampled_from(("Wuhan", "Chengdu"))),
                              isp=draw(st.integers(1, 2)), dur=0.0)
    failed = draw(st.sets(st.sampled_from(ids))) if ids else set()
    ledger = RelayLedger(
        workload={pid: count for pid, count, busy in zip(
            ids, column((1, 2, 3, 4)), column((False, True))) if busy},
        in_use_kbps={p.id: share * p.uplink_kbps for p, share, busy in zip(
            peers, column((0.5, 0.9, 1.0)), column((False, True))) if busy})
    params = dict(alpha=draw(st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))),
                  gamma=draw(st.sampled_from((0.5, 0.95, 2.0))),
                  zeta=draw(st.integers(1, 50)), t=3600.0, tts=SimConfig(),
                  workload_mode=draw(st.sampled_from(("utilization", "count"))),
                  ledger=ledger, failed=failed)
    u = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=params["zeta"],
                      max_size=params["zeta"]))
    return requester, draw(st.permutations(peers)), params, u


def past_the_picks(u, used):
    """u with every float outside the positions in used moved."""
    return [x if j in used else (x + 0.5) % 1.0 for j, x in enumerate(u)]


class TestIndexedDraws:
    """The draw pass's sweep against the list-building references, one
    requester at a time."""

    @settings(max_examples=400, deadline=None)
    @given(selection_cases())
    def test_random_list_matches_reference(self, case):
        requester, arrivals, params, u = case
        t, zeta = params["t"], params["zeta"]
        peers, drawn, listed = sweep_draw(requester, arrivals, t, u, strategy="random",
                                          zeta=zeta)
        got = ids_of(peers, listed)
        want = reference_random_relay_list(requester, sorted(arrivals, key=lambda p: p.id),
                                           zeta, u)
        assert got == want and drawn == ((), want)
        assert len(set(got)) == len(got)
        assert random_relay_list(requester.id, [p.id for p in arrivals], zeta, u) == want
        # the draw reads one float per pick and nothing past them
        moved = past_the_picks(u, range(len(got)))
        assert sweep_draw(requester, arrivals, t, moved, strategy="random",
                          zeta=zeta)[2] == listed

    @settings(max_examples=400, deadline=None)
    @given(selection_cases())
    def test_path_aware_list_matches_reference(self, case):
        requester, arrivals, params, u = case
        got, careful = path_aware_list(requester, arrivals, u=u, **params)
        want_careful, want_randoms = reference_generate_relay_list(
            requester, sorted(arrivals, key=lambda p: p.id), u=u, **params)
        assert got == want_careful + want_randoms
        assert len(set(got)) == len(got)
        assert careful == want_careful
        # the careful picks read the row from 0 and the random picks from
        # careful_slots, one float each, and nothing else
        # (counted before the history drops any pick)
        zeta, alpha, t = params["zeta"], params["alpha"], params["t"]
        fields = dict(strategy="path-aware", alpha=alpha, zeta=zeta, **tts_fields(params["tts"]))
        made = [(failed, sweep_draw(requester, arrivals, t, u, failed=failed, **fields)[1:])
                for failed in (frozenset(), params["failed"])]
        careful, randoms = made[0][1][0]
        slots = min(zeta, math.ceil(zeta * alpha - 1e-12))
        used = {*range(len(careful)), *range(slots, slots + len(randoms))}
        moved = past_the_picks(u, used)
        for failed, want in made:
            assert sweep_draw(requester, arrivals, t, moved, failed=failed, **fields)[1:] == want

    @settings(max_examples=100, deadline=None)
    @given(selection_cases())
    def test_path_aware_without_careful_slots_is_the_random_list(self, case):
        requester, arrivals, params, u = case
        t, zeta, failed, tts = params["t"], params["zeta"], params["failed"], params["tts"]
        listed = random_relay_list(requester.id, [p.id for p in arrivals], zeta, u)
        by_id = {p.id: p for p in arrivals}
        for history in (frozenset(), failed):
            peers, drawn, ranked = sweep_draw(requester, arrivals, t, u, failed=history,
                                              strategy="path-aware", alpha=0.0, zeta=zeta,
                                              **tts_fields(tts))
            assert drawn == ((), listed)
            # the history takes its picks, then leaves the list, which is
            # ranked by durability
            kept = sorted((by_id[pid] for pid in listed if pid not in history),
                          key=lambda q: durability(tts, q, t))
            assert ids_of(peers, ranked) == tuple(q.id for q in kept)


@st.composite
def rank_blocks(draw):
    """Peers, a block of path-aware draws (careful ids, random ids) of the
    peers joined by each request's time, those times, a SimConfig holding
    a time-to-stay model, and a workload filter: gamma, mode and a ledger
    holding some of the peers. Joins and times put elapsed times at 0, at the 60 min clamp,
    past it and between, with ties."""
    ids = draw(st.lists(st.integers(0, 200), unique=True, min_size=1, max_size=30))
    peers = [make_peer(pid, join=draw(st.sampled_from((0.0, 60.0, 600.0, 3000.0, 3600.0))),
                       uplink_kbps=draw(st.sampled_from((512.0, 1024.0))))
             for pid in ids]
    block, times = [], []
    for _ in range(draw(st.integers(1, 6))):
        t = draw(st.sampled_from((3600.0, 3600.5, 5400.0, 7200.0, 10800.0)))
        pool = [p.id for p in peers if p.join_time <= t]
        picked = draw(st.lists(st.sampled_from(pool), unique=True, max_size=12)) if pool else []
        split = draw(st.integers(0, len(picked)))
        block.append((tuple(picked[:split]), tuple(picked[split:])))
        times.append(t)
    tts = draw(st.sampled_from((SimConfig(), SimConfig(tts_coeffs=(-0.01, 1.0, 3.0),
                                                    tts_clamp_min=30.0))))
    ledger = RelayLedger(
        workload={pid: draw(st.integers(1, 4)) for pid in ids if draw(st.booleans())},
        in_use_kbps={p.id: draw(st.sampled_from((0.5, 0.9, 1.0))) * p.uplink_kbps
                     for p in peers if draw(st.booleans())})
    workload = dict(gamma=draw(st.sampled_from((0.0, 0.5, 0.9, 2.0))),
                    workload_mode=draw(st.sampled_from(("utilization", "count"))),
                    ledger=ledger)
    return peers, block, times, tts, workload


class TestRankOnce:
    """The rank moved out of the request: draws are ranked once per
    population, and a request only drops the busy relays."""

    @settings(max_examples=300, deadline=None)
    @given(rank_blocks())
    def test_filtering_the_ranked_list_ranks_the_filtered_draw(self, case):
        peers, block, times, tts, workload = case
        ledger, by_id, listed = workload["ledger"], {p.id: p for p in peers}, population(peers)
        ranked = rank_path_aware(*flat_draws(block, listed), times, listed, tts).tolist()
        rows = dict(workload, ledger=ledger_by_row(ledger, listed))
        at = 0
        for (careful, randoms), t in zip(block, times):
            size = len(careful) + len(randoms)
            lst = tuple(ranked[at:at + size])
            at += size
            got = ids_of(listed, generate_relay_list(lst, listed, **rows))
            want = [sorted((by_id[pid] for pid in part
                            if not_busy(by_id[pid], ledger.in_use_kbps, ledger.workload,
                                        workload["gamma"], workload["workload_mode"])),
                           key=lambda q: durability(tts, q, t))
                    for part in (careful, randoms)]
            assert got == tuple(q.id for part in want for q in part)
            assert careful_head(got, careful) == tuple(q.id for q in want[0])
        assert at == len(ranked)

    @pytest.mark.parametrize("mode, other", [("count", "utilization"),
                                             ("utilization", "count")])
    def test_a_list_the_read_ledger_dict_misses_comes_back_as_is(self, mode, other):
        # peers 1 to 4 are rows 0 to 3; the dict mode reads holds peer 4
        # only, the dict other reads every peer; each entry is above gamma
        listed, ranked = population([make_peer(pid) for pid in (1, 2, 3, 4)]), (2, 0, 1)
        full, ledger = {"count": 9, "utilization": 1024.0}, RelayLedger()
        reads = {"count": ledger.workload, "utilization": ledger.in_use_kbps}
        reads[mode][3] = full[mode]
        reads[other].update(dict.fromkeys(range(4), full[other]))
        assert generate_relay_list(ranked, listed, gamma=0.5, workload_mode=mode,
                                   ledger=ledger) is ranked
        assert generate_relay_list(ranked, listed, gamma=0.5, workload_mode=other,
                                   ledger=ledger) == ()

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(0.0, 1e6), max_size=20))
    def test_column_estimator_is_the_scalar_one_bit_for_bit(self, drawn):
        cfg = SimConfig()
        clamp, (c2, c1, c0) = cfg.tts_clamp_min, cfg.tts_coeffs
        elapses = [0.0, clamp, math.nextafter(clamp, math.inf), clamp + 1.0, *drawn]
        column = estimate_time_to_stay(cfg, np.array(elapses))
        assert column.dtype == np.float64 and len(column) == len(elapses)
        for elapse, got in zip(elapses, column.tolist()):
            x = min(elapse, clamp)
            assert got.hex() == float(estimate_time_to_stay(cfg, elapse)).hex() == (
                c2 * x * x + c1 * x + c0).hex()
        with pytest.raises(ValueError):
            estimate_time_to_stay(cfg, np.array([1.0, -0.5]))


def chi_square_bound(df, z=4.5):
    """Upper chi-square quantile for df degrees of freedom at the normal
    deviate z (Wilson-Hilferty); z = 4.5 is a tail of about 3e-6."""
    c = 2.0 / (9.0 * df)
    return df * (1.0 - c + z * math.sqrt(c)) ** 3


class TestSequentialPick:
    def test_positions_are_the_list_pops(self):
        # every pool size 0..12 for every row length 0..10, pool sizes mixed
        # within one call, and rows at the ends of [0, 1)
        rng = np.random.default_rng(20261019)
        top = math.nextafter(1.0, 0.0)
        for k in range(11):
            m = np.repeat(np.arange(13), 23)
            u = rng.random((len(m), k))
            u[::23], u[1::23] = 0.0, top
            got = pool_positions(u, m)
            assert len(got) == len(m)
            for row, size, positions in zip(u.tolist(), m.tolist(), got):
                assert positions == reference_draw(row, range(size), k), (size, row)
                assert all(type(q) is int for q in positions)

    def test_every_ordered_pick_sequence_is_equally_likely(self):
        # The draw pass's sweep, one population per pool size m and pick
        # count k: T requesters (ids 1..T) join at 1..T, each cut off and
        # gone before the next joins; peer 0 and peers T+2..T+m+1 are
        # online throughout. The requesters and peer T+m+1 share a bucket,
        # so at each step the requester's slot is inside the online ids
        # and the one careful pick, always T+m+1, takes the last slot: the
        # random picks are mapped past both, from a pool of m. Under
        # uniformity Pearson's statistic has mean cells - 1 and variance
        # about 2 (cells - 1) whatever the expected count per cell, so two
        # draws per cell suffice where the cells are many.
        for m in range(1, 9):
            for k in range(1, m + 1):
                cells = math.perm(m, k)
                trials = 2 * cells + 500
                pool = [0, *range(trials + 2, trials + m + 1)]
                ids = np.array([*range(1, trials + 1), *pool, trials + m + 1])
                n = len(ids)
                requester = (1 <= ids) & (ids <= trials)
                columns = PeerColumns(
                    ("Beijing",), ids, np.zeros(n, np.int64),
                    np.where(requester | (ids == trials + m + 1), 1, 2),
                    np.full(n, 1024.0), np.full(n, 4096.0), np.where(requester, ids, 0.0),
                    np.where(requester, 0.5, math.inf))
                listed = Population(columns, FailureScenario(frozenset(range(1, trials + 1))))
                cfg = SimConfig(peer_count=n, strategy="path-aware", zeta=k + 1, alpha=0.01,
                                sim_duration=math.inf, rng_seed=100 * m + k)
                drawn = np.concatenate([d for _, _, d in _walk(cfg, listed, n,
                                                               np.flatnonzero(listed.cut), 1)[1]])
                seqs = listed.ids[listed.by_id[drawn]].reshape(trials, k + 1)
                assert (seqs[:, 0] == trials + m + 1).all()
                counts = Counter(map(tuple, seqs[:, 1:].tolist()))
                assert all(len(set(seq)) == k and set(seq) <= set(pool) for seq in counts)
                expected = trials / cells
                chi2 = (sum((c - expected) ** 2 for c in counts.values())
                        + (cells - len(counts)) * expected ** 2) / expected
                if cells > 1:
                    assert chi2 < chi_square_bound(cells - 1), (m, k, chi2)
                else:
                    assert counts == {tuple(pool): trials}


class TestRandomList:
    def test_excludes_requester_and_caps_length(self):
        me = make_peer(0)
        online = [me.id, *range(1, 5)]
        lst = random_relay_list(me.id, online, zeta=10, u=row(0, 10))
        assert type(lst) is tuple and len(lst) == 4
        assert 0 not in lst

    def test_respects_zeta(self):
        me = make_peer(0)
        online = [me.id, *range(1, 40)]
        lst = random_relay_list(me.id, online, zeta=10, u=row(1, 10))
        assert len(lst) == 10
        assert len(set(lst)) == 10

    def test_reproducible(self):
        me = make_peer(0)
        online = list(range(20))
        a = random_relay_list(me.id, online, 10, row(7, 10))
        b = random_relay_list(me.id, online, 10, row(7, 10))
        assert a == b

    def test_first_position_uniform(self):
        me = make_peer(0)
        online = [me.id, *range(1, 9)]
        rng = np.random.default_rng(11)
        counts = {i: 0 for i in range(1, 9)}
        trials = 10_000
        for _ in range(trials):
            lst = random_relay_list(me.id, online, 3, rng.random(3).tolist())
            counts[lst[0]] += 1
        # binomial 3 sigma around p = 1/8
        p = 1.0 / 8.0
        bound = 3.0 * (p * (1 - p) / trials) ** 0.5
        for c in counts.values():
            assert abs(c / trials - p) < bound + 1e-9


class TestPathAwareList:
    def gen(self, requester, online, t=0.0, **kw):
        seed = kw.pop("seed", 0)
        args = dict(alpha=0.2, gamma=0.8, zeta=10, t=t, tts=SimConfig(),
                    workload_mode="utilization", ledger=RelayLedger(), failed=frozenset())
        args.update(kw)
        return path_aware_list(requester, online, u=row(seed, args["zeta"]), **args)

    def test_partition_size_bounds(self):
        me = make_peer(0)
        online = [me] + [make_peer(i) for i in range(1, 60)]
        lst, careful = self.gen(me, online)
        assert len(careful) <= 2
        assert len(lst) - len(careful) <= 8
        assert len(lst) <= 10

    def test_empty_online_set(self):
        me = make_peer(0)
        assert self.gen(me, [me]) == ((), ())
        assert self.gen(me, []) == ((), ())

    def test_durability_order_in_careful(self):
        # elapses 50, 10, 30 min at t: longest time-to-stay first
        t = 3600.0
        me = make_peer(0, join=t)
        peers = [
            make_peer(1, join=t - 50 * 60.0),
            make_peer(2, join=t - 10 * 60.0),
            make_peer(3, join=t - 30 * 60.0),
        ]
        lst, careful = self.gen(me, [me] + peers, t=t, alpha=1.0, zeta=3)
        assert lst == careful == (1, 3, 2)
        assert lst[0] == 1

    def test_careful_members_share_city_and_isp(self):
        me = make_peer(0, city="Wuhan", isp=2)
        online = [me]
        online += [make_peer(i, city="Wuhan", isp=2) for i in range(1, 8)]
        online += [make_peer(i, city="Wuhan", isp=1) for i in range(8, 15)]
        online += [make_peer(i, city="Beijing", isp=2) for i in range(15, 22)]
        by_id = {p.id: p for p in online}
        for seed in range(10):
            _, careful = self.gen(me, online, seed=seed)
            for pid in careful:
                assert by_id[pid].city == "Wuhan"
                assert by_id[pid].isp == 2

    def test_failure_history_filtered(self):
        me = make_peer(0)
        bad = [make_peer(i) for i in range(1, 6)]
        good = [make_peer(i) for i in range(6, 11)]
        lst, _ = self.gen(me, [me] + bad + good, failed={p.id for p in bad})
        assert all(pid >= 6 for pid in lst)

    def test_workload_filter_utilization(self):
        me = make_peer(0)
        busy = make_peer(1)
        exact = make_peer(2)
        ledger = RelayLedger(in_use_kbps={1: 0.81 * busy.uplink_kbps,
                                          2: 0.80 * exact.uplink_kbps})
        idle = make_peer(3)
        lst, _ = self.gen(me, [me, busy, exact, idle], ledger=ledger)
        assert 1 not in lst      # above gamma
        assert 2 in lst          # exactly gamma stays
        assert 3 in lst

    def test_workload_filter_count_mode(self):
        me = make_peer(0)
        loaded = make_peer(1)
        light = make_peer(2)
        ledger = RelayLedger(workload={1: 3, 2: 2})
        lst, _ = self.gen(me, [me, loaded, light], gamma=2.0,
                          workload_mode="count", ledger=ledger)
        assert 1 not in lst
        assert 2 in lst

    def test_no_backfill_when_careful_short(self):
        # no same-city-ISP peers online: only the 8 random slots remain
        me = make_peer(0, city="Chengdu", isp=3)
        online = [me] + [make_peer(i, city="Shanghai", isp=1)
                         for i in range(1, 40)]
        lst, careful = self.gen(me, online)
        assert careful == ()
        assert len(lst) <= 8

    def test_ceil_of_alpha_zeta(self):
        # 10 * 0.3 must give 3 careful slots, not 4 (float round-up trap)
        me = make_peer(0)
        online = [me] + [make_peer(i) for i in range(1, 30)]
        _, careful = self.gen(me, online, alpha=0.3)
        assert len(careful) == 3

    def test_tau_ties_break_by_id(self):
        t = 100.0
        me = make_peer(0, join=t)
        same_elapse = [make_peer(i, join=0.0) for i in (9, 4, 7)]
        lst, _ = self.gen(me, [me] + same_elapse, t=t, alpha=1.0, zeta=3)
        assert lst == (4, 7, 9)

    def test_requester_never_listed(self):
        me = make_peer(0)
        online = [me] + [make_peer(i) for i in range(1, 30)]
        for seed in range(20):
            lst, _ = self.gen(me, online, seed=seed)
            assert 0 not in lst

    def test_deterministic(self):
        me = make_peer(0)
        online = [me] + [make_peer(i) for i in range(1, 30)]
        a = self.gen(me, online, seed=5)
        b = self.gen(me, online, seed=5)
        assert a == b


class TestSolveExact:
    def test_single_pair(self):
        sel, obj = solve_exact([[100.0]], [200.0])
        assert obj == 100.0
        assert sel.assignment == (0,)

    def test_two_by_two_oracle(self):
        b = [[10.0, 8.0], [9.0, 1.0]]
        sel, obj = solve_exact(b, [10.0, 8.0])
        assert obj == 17.0
        assert sel.assignment == (1, 0)
        assert sel.is_feasible(np.array(b))
        p = assignment_matrix(sel)
        assert p.shape == (2, 2)
        assert p.sum(axis=0).tolist() == [1, 1]   # one relay per requester

    def test_zero_benefit_zero_caps_feasible(self):
        sel, obj = solve_exact([[0.0, 0.0], [0.0, 0.0]], [0.0, 0.0])
        assert obj == 0.0
        assert sel.unmatched == ()

    def test_infeasible(self):
        with pytest.raises(Infeasible):
            solve_exact([[5.0]], [1.0])

    def test_no_relays(self):
        with pytest.raises(Infeasible):
            solve_exact(np.zeros((2, 0)), [])

    def test_no_requesters(self):
        sel, obj = solve_exact(np.zeros((0, 3)), [1.0, 1.0, 1.0])
        assert sel.assignment == () and obj == 0.0

    def test_dimension_bound(self):
        with pytest.raises(ValueError):
            solve_exact(np.ones((9, 2)), [10.0, 10.0])
        with pytest.raises(ValueError):
            solve_exact(np.ones((2, 9)), np.full(9, 10.0))

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            solve_exact([[-1.0]], [1.0])
        with pytest.raises(ValueError):
            solve_exact([[float("nan")]], [1.0])
        with pytest.raises(ValueError):
            solve_exact([[1.0, 2.0]], [1.0])  # caps length mismatch


BAD_VALUES = (float("nan"), float("inf"), -float("inf"), -1.0, -1e-300)


class TestInstanceCheck:
    # both solvers reject a bad value in either input with the same message
    @pytest.mark.parametrize("solve", [solve_greedy, solve_exact])
    @pytest.mark.parametrize("bad", BAD_VALUES)
    def test_bad_benefit_rejected(self, solve, bad):
        b = np.array([[1.0, 2.0], [3.0, bad]])
        with pytest.raises(ValueError, match="^benefits must be finite and non-negative$"):
            solve(b, [10.0, 10.0])

    @pytest.mark.parametrize("solve", [solve_greedy, solve_exact])
    @pytest.mark.parametrize("bad", BAD_VALUES)
    def test_bad_capacity_rejected(self, solve, bad):
        with pytest.raises(ValueError, match="^capacities must be finite and non-negative$"):
            solve([[1.0, 2.0]], [bad, 10.0])

    @pytest.mark.parametrize("solve", [solve_greedy, solve_exact])
    def test_negative_zero_accepted(self, solve):
        sel, obj = solve([[-0.0]], [-0.0])
        assert sel.assignment == (0,)
        assert obj == 0.0


class TestSolveGreedy:
    def test_two_by_two_oracle(self):
        b = np.array([[10.0, 8.0], [9.0, 1.0]])
        sel, obj = solve_greedy(b, [10.0, 8.0])
        assert obj == 11.0
        assert obj >= 8.5    # at least half of the exact 17
        assert sel.assignment == (0, 1)

    def test_unmatched_reported(self):
        sel, obj = solve_greedy([[5.0]], [1.0])
        assert sel.assignment == (-1,)
        assert sel.unmatched == (0,)
        assert obj == 0.0

    def test_empty(self):
        sel, obj = solve_greedy(np.zeros((0, 2)), [1.0, 1.0])
        assert sel.assignment == () and obj == 0.0

    def test_no_contention_equals_exact(self):
        b = np.array([[10.0, 1.0], [1.0, 9.0]])
        caps = [100.0, 100.0]
        _, g = solve_greedy(b, caps)
        _, e = solve_exact(b, caps)
        assert g == e == 19.0

    def test_capacity_respected(self):
        rng = np.random.default_rng(3)
        b = rng.uniform(0, 10, size=(40, 6))
        caps = rng.uniform(5, 20, size=6)
        sel, _ = solve_greedy(b, caps)
        assert sel.is_feasible(b)


class TestInstanceIO:
    def test_roundtrip(self, tmp_path):
        b = np.array([[10.0, 8.5], [9.25, 1.0]])
        caps = np.array([10.0, 8.0])
        path = tmp_path / "inst.csv"
        save_instance(path, b, caps)
        b2, caps2 = load_instance(path)
        assert np.array_equal(b, b2)
        assert np.array_equal(caps, caps2)

    def test_caps_only(self, tmp_path):
        path = tmp_path / "inst.csv"
        save_instance(path, np.zeros((0, 2)), [3.0, 4.0])
        b, caps = load_instance(path)
        assert b.shape == (0, 2)
        assert caps.tolist() == [3.0, 4.0]

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError):
            load_instance(path)

    def test_ragged_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0,4.0,5.0\n")
        with pytest.raises(ValueError):
            load_instance(path)


class TestSelectionMatrix:
    def test_loads_and_objective(self):
        b = np.array([[5.0, 2.0], [3.0, 4.0], [1.0, 1.0]])
        sel = SelectionMatrix(assignment=(0, 1, -1), relay_caps=(8.0, 4.0))
        assert sel.loads(b).tolist() == [5.0, 4.0]
        assert sel.objective(b) == 9.0
        assert sel.unmatched == (2,)
        assert sel.is_feasible(b)

    def test_infeasible_detection(self):
        b = np.array([[5.0]])
        sel = SelectionMatrix(assignment=(0,), relay_caps=(4.0,))
        assert not sel.is_feasible(b)
