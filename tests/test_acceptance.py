"""End-to-end acceptance checks.

Each test prints exactly one "ACCEPTANCE <n> <label>: PASS|FAIL" line and
then asserts the same condition, so `pytest -v` doubles as a scorecard.
The desk-scale sweep (500 peers, failure ratio 0.6, six content sizes,
ten seeds, three strategies) is run once and shared by criteria 1 and 3.
"""

import itertools
import math
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from relaysim.churn import (
    SessionModel,
    TimeToStayModel,
    estimate_time_to_stay,
    sample_interarrival,
    sample_session_duration,
)
from relaysim.engine import build_population, run, _stream, _STREAM_FAILURE
from relaysim.io import SweepSpec, run_sweep
from relaysim.model import RelayLedger, SimConfig
from relaysim.netsim import FailureScenario, inject_failure, latency_ms
from relaysim.selection import (
    Infeasible,
    generate_relay_list,
    solve_exact,
    solve_greedy,
)

from helpers import (Peer, careful_head, ids_of, ledger_by_row, online_set, peer_rows,
                     population, ranked_list)
from reference import draw_path_aware

DESK_SIZES = (500.0, 1000.0, 2000.0, 4000.0, 8000.0, 16000.0)
DESK_SEEDS = tuple(range(10))
DESK_STRATEGIES = ("no-relay", "random", "path-aware")


def verdict(num: int, label: str, ok: bool) -> bool:
    print(f"ACCEPTANCE {num} {label}: {'PASS' if ok else 'FAIL'}", flush=True)
    return ok


def desk_config(**kw) -> SimConfig:
    base = dict(peer_count=500, failure_ratio=0.6, sim_duration=3600.0)
    base.update(kw)
    return SimConfig(**base)


@pytest.fixture(scope="module")
def desk_sweep():
    spec = SweepSpec(content_sizes_kb=DESK_SIZES, failure_ratios=(0.6,),
                     strategies=DESK_STRATEGIES, seeds=DESK_SEEDS)
    t0 = time.perf_counter()
    result = run_sweep(spec, desk_config())
    elapsed = time.perf_counter() - t0
    assert not result.failures
    return result.rows, elapsed


def cell_mean(rows, size, strategy, field="success_ratio"):
    vals = [r[field] for r in rows
            if r["size_kb"] == size and r["strategy"] == strategy]
    assert len(vals) == len(DESK_SEEDS) and None not in vals
    return sum(vals) / len(vals)


def spearman_rho(xs, ys):
    def ranks(vs):
        order = sorted(range(len(vs)), key=lambda i: vs[i])
        rank = [0.0] * len(vs)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and vs[order[j + 1]] == vs[order[i]]:
                j += 1
            avg = (i + j) / 2.0 + 1.0
            for k in range(i, j + 1):
                rank[order[k]] = avg
            i = j + 1
        return rank
    rx, ry = ranks(xs), ranks(ys)
    mx, my = sum(rx) / len(rx), sum(ry) / len(ry)
    num = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    den = math.sqrt(sum((a - mx) ** 2 for a in rx)
                    * sum((b - my) ** 2 for b in ry))
    return num / den


def test_criterion_1_strategy_ordering(desk_sweep):
    rows, elapsed = desk_sweep
    means = {(s, z): cell_mean(rows, z, s)
             for s in DESK_STRATEGIES for z in DESK_SIZES}
    ordering = all(
        means[("path-aware", z)] >= means[("random", z)]
        >= means[("no-relay", z)]
        for z in DESK_SIZES)
    gap_16mb = means[("path-aware", 16000.0)] - means[("random", 16000.0)]
    ok = ordering and gap_16mb >= 0.10 and elapsed < 60.0
    table = {z: tuple(round(means[(s, z)], 4) for s in DESK_STRATEGIES)
             for z in DESK_SIZES}
    assert verdict(1, "strategy ordering / 16MB gap", ok), (
        f"means (no-relay, random, path-aware) by size: {table}; "
        f"16MB gap {gap_16mb:+.4f} (need >= +0.10); sweep {elapsed:.1f}s")


def test_criterion_2_total_failure_resilience():
    cfg = desk_config(failure_ratio=1.0)
    path_means, norelay_match, affected_zero = [], [], []
    for seed in DESK_SEEDS:
        cell = replace(cfg, rng_seed=seed)
        path_means.append(run(replace(cell, strategy="path-aware")).success_ratio)
        report = run(replace(cell, strategy="no-relay"))
        affected_zero.append(report.affected_success_ratio == 0.0)
        norelay_match.append(
            report.success_ratio == _no_relay_accounting_oracle(cell))
    mean_path = sum(path_means) / len(path_means)
    ok = mean_path >= 0.45 and all(affected_zero) and all(norelay_match)
    assert verdict(2, "total regional failure", ok), (
        f"path-aware mean {mean_path:.4f} (need >= 0.45); "
        f"affected==0 {affected_zero}; oracle match {norelay_match}")


def _no_relay_accounting_oracle(cfg: SimConfig) -> float:
    """Closed-form no-relay success ratio, mirroring the event engine's
    arithmetic: a request issued at join time succeeds iff the server
    round trip plus transfer fits inside the session."""
    columns = build_population(cfg, _stream(cfg.rng_seed, 0))
    scenario = FailureScenario(
        inject_failure(cfg.failure_region, cfg.failure_ratio, columns,
                       _stream(cfg.rng_seed, _STREAM_FAILURE)),
        cfg.failure_region, cfg.failure_start, cfg.failure_end)
    handshake = 2.0 * latency_ms(0.0, cfg.latency_base_ms,
                                 cfg.latency_per_km_ms) / 1000.0
    served = 0
    peers = peer_rows(columns)
    for p in peers:
        if scenario.cut_off(p.id, p.join_time):
            continue
        end = p.join_time + handshake + cfg.content_size_kb * 8.0 / p.downlink_kbps
        if end <= p.departure_time:
            served += 1
    return served / len(peers)


def test_criterion_3_retry_advantage(desk_sweep):
    rows, _ = desk_sweep
    path = [cell_mean(rows, z, "path-aware", "avg_attempts")
            for z in DESK_SIZES]
    rand = [cell_mean(rows, z, "random", "avg_attempts") for z in DESK_SIZES]
    halved = path[-1] <= 0.5 * rand[-1]
    gaps = [r - p for r, p in zip(rand, path)]
    rho = spearman_rho(list(DESK_SIZES), gaps)
    ok = halved and rho > 0.8
    assert verdict(3, "retry count advantage", ok), (
        f"avg attempts at 16MB: path {path[-1]:.3f} vs random {rand[-1]:.3f} "
        f"(need path <= 0.5*random); gap by size {[round(g, 3) for g in gaps]} "
        f"Spearman rho {rho:.3f} (need > 0.8)")


def test_criterion_4_time_to_stay_estimator():
    model = TimeToStayModel()
    pts = {0.0: 3.5, 30.0: 25.76, 60.0: 34.34}
    exact = all(abs(estimate_time_to_stay(model, x) - y) <= 1e-9
                for x, y in pts.items())
    grid = [estimate_time_to_stay(model, i / 10.0) for i in range(601)]
    monotone = all(b >= a for a, b in zip(grid, grid[1:]))
    ok = exact and monotone
    assert verdict(4, "time-to-stay estimator", ok), (
        f"values {[estimate_time_to_stay(model, x) for x in pts]}, "
        f"monotone={monotone}")


def test_criterion_5_churn_calibration():
    model = SessionModel()
    rng = np.random.default_rng(77)
    durs = np.array([sample_session_duration(model, rng)
                     for _ in range(10 ** 5)])
    cdf_1 = float(np.mean(durs <= 60.0))
    cdf_10 = float(np.mean(durs <= 600.0))
    gaps = np.array([sample_interarrival(model, rng) for _ in range(10 ** 5)])
    mean_gap = float(gaps.mean())
    ok = (abs(cdf_1 - 0.60) <= 0.03 and abs(cdf_10 - 0.90) <= 0.02
          and abs(mean_gap - 2.0) <= 0.05)
    assert verdict(5, "churn calibration", ok), (
        f"CDF(1min)={cdf_1:.4f} (0.60±0.03), CDF(10min)={cdf_10:.4f} "
        f"(0.90±0.02), mean interarrival {mean_gap:.4f}s (2.0±0.05)")


def _enumerate_best(b: np.ndarray, caps: np.ndarray) -> float | None:
    n, m = b.shape
    best = None
    for assign in itertools.product(range(m), repeat=n):
        loads = [0.0] * m
        for q, r in enumerate(assign):
            loads[r] += float(b[q, r])
        if any(loads[r] > caps[r] + 1e-9 for r in range(m)):
            continue
        obj = sum(float(b[q, r]) for q, r in enumerate(assign))
        if best is None or obj > best:
            best = obj
    return best


def test_criterion_6_solver_oracle():
    rng = np.random.default_rng(2024)
    exact_ok = True
    greedy_ok = True
    compared = 0
    for i in range(1000):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        b = rng.integers(0, 11, size=(n, m)).astype(float)
        if i % 2:
            caps = rng.integers(0, 16, size=m).astype(float)
        else:
            caps = rng.integers(25, 61, size=m).astype(float)
        reference = _enumerate_best(b, caps)
        try:
            sm, obj = solve_exact(b, caps)
        except Infeasible:
            exact_ok &= reference is None
            continue
        feasible = (len(sm.assignment) == n
                    and all(0 <= r < m for r in sm.assignment)
                    and sm.is_feasible(b))
        exact_ok &= feasible and reference is not None
        exact_ok &= reference is not None and abs(obj - reference) <= 1e-9
        gm, gobj = solve_greedy(b, caps)
        if not gm.unmatched:
            # With stranded requesters a partial greedy load can out-earn the
            # best fully-feasible assignment, so the bound only binds when
            # greedy matched everyone.
            greedy_ok &= gobj <= obj + 1e-9
            compared += 1
    ok = exact_ok and greedy_ok and compared >= 600
    assert verdict(6, "assignment solver oracle", ok), (
        f"exact_ok={exact_ok}, greedy_ok={greedy_ok}, "
        f"greedy-vs-exact comparisons={compared}")


def _random_table(rng: np.random.Generator):
    n = int(rng.integers(2, 28))
    cities = ("A", "B", "C")
    peers = []
    ledger, failed = RelayLedger(), set()
    for pid in range(n):
        up = float(rng.choice((256.0, 512.0, 1024.0, 3072.0)))
        p = Peer(pid, cities[int(rng.integers(0, 3))], int(rng.integers(1, 4)),
                 up, up * 4.0, float(rng.uniform(0.0, 50.0)),
                 float(rng.uniform(5.0, 4000.0)))
        ledger.workload[pid] = int(rng.integers(0, 5))
        ledger.in_use_kbps[pid] = float(rng.uniform(0.0, up * 1.2))
        if rng.random() < 0.25:
            failed.add(pid)
        peers.append(p)
    return peers, ledger, failed


def test_criterion_7_candidate_list_invariants():
    rng = np.random.default_rng(31337)
    tts = TimeToStayModel()
    checked = 0
    for _ in range(10 ** 4):
        peers, ledger, failed = _random_table(rng)
        requester = peers[int(rng.integers(0, len(peers)))]
        alpha = float(rng.uniform(0.0, 1.0))
        gamma = float(rng.uniform(0.2, 1.0))
        zeta = int(rng.integers(1, 12))
        t = float(rng.uniform(50.0, 120.0))
        online = [p for p in peers if p.join_time <= t < p.departure_time]
        by_id = {p.id: p for p in online}
        drawn = draw_path_aware(requester.id, (requester.city, requester.isp),
                                online_set(online), alpha=alpha, zeta=zeta,
                                u=rng.random(zeta).tolist(), failed=failed)
        peers = population(online)
        lst = ids_of(peers, generate_relay_list(
            ranked_list(drawn, t, peers, tts), peers, gamma=gamma, workload_mode="utilization",
            ledger=ledger_by_row(ledger, peers)))
        assert len(lst) <= zeta
        assert len(set(lst)) == len(lst)
        assert requester.id not in lst
        careful_slots = min(zeta, math.ceil(zeta * alpha - 1e-12))
        careful = careful_head(lst, drawn[0])
        assert len(careful) <= careful_slots
        randoms = lst[len(careful):]
        assert len(randoms) <= zeta - careful_slots
        for pid in careful:
            assert by_id[pid].city == requester.city
            assert by_id[pid].isp == requester.isp
        for pid in lst:
            assert pid not in failed
            assert ledger.in_use_kbps.get(pid, 0.0) / by_id[pid].uplink_kbps <= gamma
        for part in (careful, randoms):
            taus = [estimate_time_to_stay(tts, (t - by_id[pid].join_time) / 60.0)
                    for pid in part]
            assert all(a >= b - 1e-12 for a, b in zip(taus, taus[1:]))
            for (a_tau, a_pid), (b_tau, b_pid) in zip(
                    zip(taus, part), zip(taus[1:], part[1:])):
                if a_tau == b_tau:
                    assert a_pid < b_pid
        checked += 1
    assert verdict(7, "candidate list invariants", checked == 10 ** 4)


def test_criterion_8_sweep_determinism(tmp_path, monkeypatch):
    monkeypatch.delenv("RELAYSIM_SEED", raising=False)   # sweep refuses it
    args = [sys.executable, "-m", "relaysim", "sweep",
            "--peers", "200",
            "--set", "sim_duration=1800",
            "--sizes", "1000,8000", "--ratios", "0.6", "--seeds", "11"]
    out1, out2 = tmp_path / "one.csv", tmp_path / "two.csv"
    r1 = subprocess.run([*args, "--out", str(out1)], capture_output=True)
    r2 = subprocess.run([*args, "--out", str(out2)], capture_output=True)
    ok = (r1.returncode == 0 and r2.returncode == 0
          and out1.read_bytes() == out2.read_bytes()
          and b"RuntimeWarning" not in r1.stderr + r2.stderr)
    assert verdict(8, "byte-identical sweep reruns", ok), (
        f"rc=({r1.returncode},{r2.returncode}), "
        f"stderr={r1.stderr.decode()[:200]!r}")
