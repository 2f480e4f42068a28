"""Candidate list generation and assignment solver tests."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaysim.churn import TimeToStayModel, estimate_time_to_stay
from relaysim.model import Peer, RelayLedger
from relaysim.selection import (
    Infeasible,
    OnlineSet,
    RelayCandidateList,
    SelectionMatrix,
    draw_path_aware,
    generate_relay_list,
    load_instance,
    no_relay_list,
    random_relay_list,
    save_instance,
    solve_exact,
    solve_greedy,
    _draw,
    _workload_ok,
)

from helpers import assignment_matrix, online_set


def make_peer(pid, city="Beijing", isp=1, join=0.0, dur=36000.0, **kw):
    base = dict(id=pid, city=city, isp=isp, uplink_kbps=1024.0,
                downlink_kbps=4096.0, join_time=join, session_duration=dur)
    base.update(kw)
    return Peer(**base)


def path_aware_list(requester, online, *, alpha, zeta, u, **rank):
    """Draw and rank a path-aware list in one call, as a request issued
    while exactly the peers in online are online would get it."""
    drawn = draw_path_aware(requester, online_set(online), alpha=alpha, zeta=zeta, u=u)
    return generate_relay_list(drawn, {p.id: p for p in online}, **rank)


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
    picked = reference_draw(u, pool, zeta)
    return RelayCandidateList(tuple(p.id for p in picked), 0)


def reference_generate_relay_list(requester, online_peers, *, alpha, gamma, zeta, u, t,
                                  tts, workload_mode, ledger):
    pool = [p for p in online_peers if p.id != requester.id]
    careful_slots = min(zeta, math.ceil(zeta * alpha - 1e-12))
    same = [p for p in pool if p.city == requester.city and p.isp == requester.isp]
    careful = reference_draw(u, same, careful_slots)
    taken = {p.id for p in careful}
    rest = [p for p in pool if p.id not in taken]
    randoms = reference_draw(u[careful_slots:], rest, zeta - careful_slots)

    def keep(p):
        return (p.id not in ledger.fetch_failed
                and _workload_ok(p, ledger, gamma, workload_mode))

    def durability(p):
        remain = estimate_time_to_stay(tts, p.elapse(t) / 60.0)
        return (-remain, p.id)

    careful = sorted((p for p in careful if keep(p)), key=durability)
    randoms = sorted((p for p in randoms if keep(p)), key=durability)
    ids = tuple(p.id for p in careful) + tuple(p.id for p in randoms)
    return RelayCandidateList(ids, len(careful))


@st.composite
def selection_cases(draw):
    """An online population in arrival order, a requester that may or may
    not be online, list parameters, a ledger with fetch failures and busy
    relays, and the requester's row of zeta floats in [0, 1)."""
    ids = draw(st.lists(st.integers(0, 200), unique=True, max_size=40))
    peers = [make_peer(pid, city=draw(st.sampled_from(("Wuhan", "Beijing"))),
                       isp=draw(st.integers(1, 2)),
                       join=draw(st.sampled_from((0.0, 60.0, 600.0, 3000.0))),
                       uplink_kbps=draw(st.sampled_from((512.0, 1024.0))))
             for pid in ids]
    # the requester is online, or absent: a zero-length session, or a
    # city (Chengdu) whose careful bucket is empty
    if peers and draw(st.booleans()):
        requester = draw(st.sampled_from(peers))
    else:
        requester = make_peer(draw(st.integers(0, 200).filter(lambda i: i not in ids)),
                              city=draw(st.sampled_from(("Wuhan", "Chengdu"))),
                              isp=draw(st.integers(1, 2)), dur=0.0)
    ledger = RelayLedger(
        fetch_failed=draw(st.sets(st.sampled_from(ids))) if ids else set(),
        workload={pid: draw(st.integers(1, 4)) for pid in ids if draw(st.booleans())},
        in_use_kbps={p.id: draw(st.sampled_from((0.5, 0.9, 1.0))) * p.uplink_kbps
                     for p in peers if draw(st.booleans())})
    params = dict(alpha=draw(st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))),
                  gamma=draw(st.sampled_from((0.5, 0.95, 2.0))),
                  zeta=draw(st.integers(1, 50)), t=3600.0, tts=TimeToStayModel(),
                  workload_mode=draw(st.sampled_from(("utilization", "count"))),
                  ledger=ledger)
    u = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=params["zeta"],
                      max_size=params["zeta"]))
    return requester, draw(st.permutations(peers)), params, u


def past_the_picks(u, used):
    """u with every float outside the positions in used moved."""
    return [x if j in used else (x + 0.5) % 1.0 for j, x in enumerate(u)]


class TestIndexedDraws:
    """The indexed generators against their list-building references."""

    @settings(max_examples=400, deadline=None)
    @given(selection_cases())
    def test_random_list_matches_reference(self, case):
        requester, arrivals, params, u = case
        got = random_relay_list(requester, online_set(arrivals), params["zeta"], u)
        want = reference_random_relay_list(requester, sorted(arrivals, key=lambda p: p.id),
                                           params["zeta"], u)
        assert got.peer_ids == want.peer_ids and got.careful_count == 0
        assert len(set(got.peer_ids)) == len(got)
        # the draw reads one float per pick and nothing past them
        moved = past_the_picks(u, range(len(got)))
        assert random_relay_list(requester, online_set(arrivals), params["zeta"],
                                 moved) == got

    @settings(max_examples=400, deadline=None)
    @given(selection_cases())
    def test_path_aware_list_matches_reference(self, case):
        requester, arrivals, params, u = case
        got = path_aware_list(requester, arrivals, u=u, **params)
        want = reference_generate_relay_list(
            requester, sorted(arrivals, key=lambda p: p.id), u=u, **params)
        assert got.peer_ids == want.peer_ids
        assert len(set(got.peer_ids)) == len(got)
        assert got.careful_count == want.careful_count
        # the careful picks read the row from 0 and the random picks from
        # careful_slots, one float each, and nothing else
        zeta, alpha, online = params["zeta"], params["alpha"], online_set(arrivals)
        careful, randoms = draw_path_aware(requester, online, alpha=alpha, zeta=zeta, u=u)
        slots = min(zeta, math.ceil(zeta * alpha - 1e-12))
        used = {*range(len(careful)), *range(slots, slots + len(randoms))}
        assert draw_path_aware(requester, online, alpha=alpha, zeta=zeta,
                               u=past_the_picks(u, used)) == (careful, randoms)

    @settings(max_examples=100, deadline=None)
    @given(selection_cases())
    def test_path_aware_without_careful_slots_is_the_random_list(self, case):
        requester, arrivals, params, u = case
        online = online_set(arrivals)
        drawn = draw_path_aware(requester, online, alpha=0.0, zeta=params["zeta"], u=u)
        assert drawn == ((), random_relay_list(requester, online, params["zeta"], u).peer_ids)


def chi_square_bound(df, z=4.5):
    """Upper chi-square quantile for df degrees of freedom at the normal
    deviate z (Wilson-Hilferty); z = 4.5 is a tail of about 3e-6."""
    c = 2.0 / (9.0 * df)
    return df * (1.0 - c + z * math.sqrt(c)) ** 3


class TestSequentialPick:
    def test_every_ordered_pick_sequence_is_equally_likely(self):
        # Pools of m ids, with one skipped position inside and one at the
        # end, so the mapping past skipped and taken positions is exercised.
        # Under uniformity Pearson's statistic has mean cells - 1 and
        # variance about 2 (cells - 1) whatever the expected count per cell,
        # so two draws per cell suffice where the cells are many.
        rng = np.random.default_rng(20261018)
        for m in range(1, 9):
            ids = list(range(m + 2))
            skip = [1, m + 1]
            pool = [i for pos, i in enumerate(ids) if pos not in skip]
            for k in range(1, m + 1):
                cells = math.perm(m, k)
                trials = 2 * cells + 500
                counts = Counter(tuple(_draw(u, ids, skip, k))
                                 for u in rng.random((trials, k)).tolist())
                assert all(len(set(seq)) == k and set(seq) <= set(pool) for seq in counts)
                expected = trials / cells
                chi2 = (sum((c - expected) ** 2 for c in counts.values())
                        + (cells - len(counts)) * expected ** 2) / expected
                if cells > 1:
                    assert chi2 < chi_square_bound(cells - 1), (m, k, chi2)
                else:
                    assert counts == {tuple(pool): trials}


class TestOnlineSet:
    def test_ids_and_buckets_stay_in_id_order(self):
        online = OnlineSet()
        for p in (make_peer(5), make_peer(2, city="Wuhan"), make_peer(9), make_peer(2)):
            online.add(p)                  # a second add of id 2 changes nothing
        assert online.ids == [2, 5, 9]
        assert online.bucket("Beijing", 1) == [5, 9]
        assert online.bucket("Wuhan", 1) == [2]
        assert online.bucket("Chengdu", 1) == []
        online.discard(make_peer(5))
        online.discard(make_peer(7))      # never online: no effect
        assert online.ids == [2, 9] and 5 not in online and 9 in online
        assert online.bucket("Beijing", 1) == [9]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 12)), max_size=60))
    def test_matches_a_plain_set(self, ops):
        peers = {i: make_peer(i, city=("Wuhan", "Beijing")[i % 2], isp=1 + i % 3)
                 for i in range(13)}
        online, plain = OnlineSet(), set()
        for arrive, pid in ops:
            if arrive:
                online.add(peers[pid])
                plain.add(pid)
            else:
                online.discard(peers[pid])
                plain.discard(pid)
        assert online.ids == sorted(plain)
        for city in ("Wuhan", "Beijing"):
            for isp in (1, 2, 3):
                assert online.bucket(city, isp) == sorted(
                    pid for pid in plain if (peers[pid].city, peers[pid].isp) == (city, isp))


class TestCandidateList:
    def test_partitions(self):
        lst = RelayCandidateList((5, 3, 8, 1), careful_count=2)
        assert lst.peer_ids[:lst.careful_count] == (5, 3)
        assert lst.peer_ids[lst.careful_count:] == (8, 1)
        assert lst[0] == 5
        assert len(lst) == 4
        assert list(lst) == [5, 3, 8, 1]
        assert lst[2] == 8

    def test_empty(self):
        lst = no_relay_list()
        assert len(lst) == 0
        assert lst.peer_ids == ()
        assert lst.careful_count == 0

    def test_careful_count_bounds(self):
        with pytest.raises(ValueError):
            RelayCandidateList((1, 2), careful_count=3)
        with pytest.raises(ValueError):
            RelayCandidateList((1, 2), careful_count=-1)


class TestRandomList:
    def test_excludes_requester_and_caps_length(self):
        me = make_peer(0)
        online = online_set([me] + [make_peer(i) for i in range(1, 5)])
        lst = random_relay_list(me, online, zeta=10, u=row(0, 10))
        assert len(lst) == 4
        assert 0 not in lst.peer_ids
        assert lst.careful_count == 0

    def test_respects_zeta(self):
        me = make_peer(0)
        online = online_set([me] + [make_peer(i) for i in range(1, 40)])
        lst = random_relay_list(me, online, zeta=10, u=row(1, 10))
        assert len(lst) == 10
        assert len(set(lst.peer_ids)) == 10

    def test_reproducible(self):
        me = make_peer(0)
        online = online_set(make_peer(i) for i in range(20))
        a = random_relay_list(me, online, 10, row(7, 10))
        b = random_relay_list(me, online, 10, row(7, 10))
        assert a.peer_ids == b.peer_ids

    def test_first_position_uniform(self):
        me = make_peer(0)
        online = online_set([me] + [make_peer(i) for i in range(1, 9)])
        rng = np.random.default_rng(11)
        counts = {i: 0 for i in range(1, 9)}
        trials = 10_000
        for _ in range(trials):
            lst = random_relay_list(me, online, 3, rng.random(3).tolist())
            counts[lst[0]] += 1
        # binomial 3 sigma around p = 1/8
        p = 1.0 / 8.0
        bound = 3.0 * (p * (1 - p) / trials) ** 0.5
        for c in counts.values():
            assert abs(c / trials - p) < bound + 1e-9


class TestPathAwareList:
    def gen(self, requester, online, t=0.0, **kw):
        seed = kw.pop("seed", 0)
        args = dict(alpha=0.2, gamma=0.8, zeta=10, t=t, tts=TimeToStayModel(),
                    workload_mode="utilization", ledger=RelayLedger())
        args.update(kw)
        return path_aware_list(requester, online, u=row(seed, args["zeta"]), **args)

    def test_partition_size_bounds(self):
        me = make_peer(0)
        online = [me] + [make_peer(i) for i in range(1, 60)]
        lst = self.gen(me, online)
        assert lst.careful_count <= 2
        assert len(lst) - lst.careful_count <= 8
        assert len(lst) <= 10

    def test_empty_online_set(self):
        me = make_peer(0)
        assert len(self.gen(me, [me])) == 0
        assert len(self.gen(me, [])) == 0

    def test_durability_order_in_careful(self):
        # elapses 50, 10, 30 min at t: longest time-to-stay first
        t = 3600.0
        me = make_peer(0, join=t)
        peers = [
            make_peer(1, join=t - 50 * 60.0),
            make_peer(2, join=t - 10 * 60.0),
            make_peer(3, join=t - 30 * 60.0),
        ]
        lst = self.gen(me, [me] + peers, t=t, alpha=1.0, zeta=3)
        assert lst.peer_ids == (1, 3, 2)
        assert lst.careful_count == 3
        assert lst[0] == 1

    def test_careful_members_share_city_and_isp(self):
        me = make_peer(0, city="Wuhan", isp=2)
        online = [me]
        online += [make_peer(i, city="Wuhan", isp=2) for i in range(1, 8)]
        online += [make_peer(i, city="Wuhan", isp=1) for i in range(8, 15)]
        online += [make_peer(i, city="Beijing", isp=2) for i in range(15, 22)]
        by_id = {p.id: p for p in online}
        for seed in range(10):
            lst = self.gen(me, online, seed=seed)
            for pid in lst.peer_ids[:lst.careful_count]:
                assert by_id[pid].city == "Wuhan"
                assert by_id[pid].isp == 2

    def test_failure_history_filtered(self):
        me = make_peer(0)
        bad = [make_peer(i) for i in range(1, 6)]
        good = [make_peer(i) for i in range(6, 11)]
        ledger = RelayLedger(fetch_failed={p.id for p in bad})
        lst = self.gen(me, [me] + bad + good, ledger=ledger)
        assert all(pid >= 6 for pid in lst.peer_ids)

    def test_workload_filter_utilization(self):
        me = make_peer(0)
        busy = make_peer(1)
        exact = make_peer(2)
        ledger = RelayLedger(in_use_kbps={1: 0.81 * busy.uplink_kbps,
                                          2: 0.80 * exact.uplink_kbps})
        idle = make_peer(3)
        lst = self.gen(me, [me, busy, exact, idle], ledger=ledger)
        assert 1 not in lst.peer_ids      # above gamma
        assert 2 in lst.peer_ids          # exactly gamma stays
        assert 3 in lst.peer_ids

    def test_workload_filter_count_mode(self):
        me = make_peer(0)
        loaded = make_peer(1)
        light = make_peer(2)
        ledger = RelayLedger(workload={1: 3, 2: 2})
        lst = self.gen(me, [me, loaded, light], gamma=2.0,
                       workload_mode="count", ledger=ledger)
        assert 1 not in lst.peer_ids
        assert 2 in lst.peer_ids

    def test_no_backfill_when_careful_short(self):
        # no same-city-ISP peers online: only the 8 random slots remain
        me = make_peer(0, city="Chengdu", isp=3)
        online = [me] + [make_peer(i, city="Shanghai", isp=1)
                         for i in range(1, 40)]
        lst = self.gen(me, online)
        assert lst.careful_count == 0
        assert len(lst) <= 8

    def test_ceil_of_alpha_zeta(self):
        # 10 * 0.3 must give 3 careful slots, not 4 (float round-up trap)
        me = make_peer(0)
        online = [me] + [make_peer(i) for i in range(1, 30)]
        lst = self.gen(me, online, alpha=0.3)
        assert lst.careful_count == 3

    def test_tau_ties_break_by_id(self):
        t = 100.0
        me = make_peer(0, join=t)
        same_elapse = [make_peer(i, join=0.0) for i in (9, 4, 7)]
        lst = self.gen(me, [me] + same_elapse, t=t, alpha=1.0, zeta=3)
        assert lst.peer_ids == (4, 7, 9)

    def test_requester_never_listed(self):
        me = make_peer(0)
        online = [me] + [make_peer(i) for i in range(1, 30)]
        for seed in range(20):
            assert 0 not in self.gen(me, online, seed=seed).peer_ids

    def test_deterministic(self):
        me = make_peer(0)
        online = [me] + [make_peer(i) for i in range(1, 30)]
        a = self.gen(me, online, seed=5)
        b = self.gen(me, online, seed=5)
        assert a.peer_ids == b.peer_ids and a.careful_count == b.careful_count


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
