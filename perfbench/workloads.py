"""The benchmark's workloads: input generation and one repetition of each.

generate() runs in the benchmark's parent process before any timing. The
inputs depend only on the workload seed and on this file, never on relaysim
code, so a change to the program cannot change what it is given. The other
methods run in a fresh child process (worker.py): setup() imports relaysim
itself, so setup time includes the import, which is why relaysim and numpy
are imported inside the methods rather than at the top of this file.

Every workload calls the program only through its public functions, looked
up as module attributes so the traced run's wrappers see the calls.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

# Seed kept out of every tuning run; a later gain is confirmed on it.
HELD_OUT_SEED = 1009

# Session model of the trace generator, matching the program's defaults:
# 30 arrivals per minute, Pareto sessions calibrated so that 60% end within
# 1 minute and 90% within 10.
ARRIVALS_PER_MIN = 30.0
PARETO_SHAPE = math.log(0.4 / 0.1) / math.log(10.0)
PARETO_SCALE_MIN = 0.4 ** (1.0 / PARETO_SHAPE)

CAP_EPS = 1e-9


@dataclass
class Check:
    """Outcome of one repetition's output checks."""

    attempted: int
    failed: int = 0
    requests: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, op: str, problems: list[str]) -> None:
        if problems:
            self.failed += 1
            self.problems.extend(f"{op}: {p}" for p in problems)


def _rng(seed: int, stream: int):
    import numpy as np
    return np.random.default_rng([seed, stream])


def check_outcomes(outcomes, peer_ids, report, expected_total: int) -> list[str]:
    """Request accounting and per-outcome invariants of one simulation."""
    from relaysim.netsim import SERVER
    problems = []
    total = report.total_requests
    if report.served_by_server + report.served_by_relay + report.unserved != total:
        problems.append("server + relay + unserved != total requests")
    if total != expected_total:
        problems.append(f"{total} requests, expected {expected_total}")
    if len(outcomes) != total:
        problems.append(f"{len(outcomes)} outcomes for {total} requests")
    by_server = by_relay = 0
    for o in outcomes:
        if o.served_by == SERVER:
            by_server += 1
        elif isinstance(o.served_by, int):
            by_relay += 1
            if o.served_by not in peer_ids or o.served_by == o.requester_id:
                problems.append(f"request {o.requester_id}: bad relay {o.served_by}")
        elif o.served_by is not None:
            problems.append(f"request {o.requester_id}: served_by {o.served_by!r}")
        if o.end_time is None or o.end_time < o.start_time:
            problems.append(f"request {o.requester_id}: end_time before start_time")
    if (by_server, by_relay) != (report.served_by_server, report.served_by_relay):
        problems.append("report counts disagree with the outcomes")
    return problems[:5]


# ---------------------------------------------------------------------------

class DeskSweep:
    """run_sweep over the acceptance grid, then the sweep CSV and summary."""

    name = "desk-sweep"
    why = ("180-cell sweep at 500 peers: per-cell setup and population build "
           "dominate, population reuse across cells would show here")

    def generate(self, seed: int, workdir: Path, small: bool = False) -> dict:
        # Seed s sweeps simulation seeds 10s..10s+9, so seed 0 is the
        # acceptance grid itself.
        return {
            "sizes": [500.0, 16000.0] if small else
                     [500.0, 1000.0, 2000.0, 4000.0, 8000.0, 16000.0],
            "ratio": 0.6,
            "strategies": ["no-relay", "random", "path-aware"],
            "seeds": [10 * seed + i for i in range(2 if small else 10)],
            "peers": 60 if small else 500,
            "sim_duration": 3600.0,
            "check_seed": seed,
        }

    def operations(self, inp: dict) -> int:
        return len(inp["sizes"]) * len(inp["strategies"]) * len(inp["seeds"])

    def setup(self, inp: dict, workdir: Path) -> dict:
        import relaysim.io as rio
        from relaysim.model import SimConfig
        spec = rio.SweepSpec(content_sizes_kb=tuple(inp["sizes"]),
                             failure_ratios=(inp["ratio"],),
                             strategies=tuple(inp["strategies"]),
                             seeds=tuple(inp["seeds"]))
        cfg = SimConfig(peer_count=inp["peers"], sim_duration=inp["sim_duration"])
        return {"spec": spec, "cfg": cfg}

    def run(self, state: dict, tracer):
        import relaysim.io as rio
        return rio.run_sweep(state["spec"], state["cfg"])

    def write(self, state: dict, result, outdir: Path) -> list[Path]:
        import relaysim.io as rio
        table, summary = outdir / "sweep.csv", outdir / "summary.json"
        rio.write_sweep_csv(result, table)
        with open(summary, "w") as fh:
            json.dump(rio.summarize_sweep(result), fh, indent=2, sort_keys=True)
            fh.write("\n")
        return [table, summary]

    def check(self, inp: dict, state: dict, result) -> Check:
        """Every row is present and in range; three cells, one per strategy
        at a size and seed drawn from the workload seed, are re-run alone and
        must match their sweep rows and pass the request accounting."""
        from dataclasses import replace

        import relaysim.engine as engine
        spec, cfg = state["spec"], state["cfg"]
        chk = Check(attempted=spec.cell_count)
        chk.failed = len(result.failures)
        chk.problems.extend(f"cell failed: {f}" for f in result.failures[:5])
        if len(result.rows) + len(result.failures) != spec.cell_count:
            chk.problems.append(f"{len(result.rows)} rows for {spec.cell_count} cells")
        for row in result.rows:
            chk.fail("row", [f"{key} {row[key]} outside [0, 1]"
                             for key in ("success_ratio", "primary_success_ratio",
                                         "affected_success_ratio", "region_success_ratio")
                             if row[key] is not None and not 0.0 <= row[key] <= 1.0])
        rng = _rng(inp["check_seed"], 99)
        size = spec.content_sizes_kb[int(rng.integers(len(spec.content_sizes_kb)))]
        seed = spec.seeds[int(rng.integers(len(spec.seeds)))]
        rows = {(r["strategy"], r["size_kb"], r["seed"]): r for r in result.rows}
        for strategy in spec.strategies:
            cell_cfg = replace(cfg, content_size_kb=size, failure_ratio=spec.failure_ratios[0],
                               strategy=strategy, rng_seed=seed)
            sim = engine.Simulation(cell_cfg)
            report = sim.run()
            problems = check_outcomes(sim.outcomes, sim.peers, report, cfg.peer_count)
            row = rows.get((strategy, float(size), seed))
            if row is None or row["success_ratio"] != report.success_ratio \
                    or row["avg_attempts"] != report.avg_repeated_requests:
                problems.append("sweep row differs from a single run of the cell")
            chk.fail(f"cell {strategy}/{size}/{seed}", problems)
        # Every request is issued at its peer's join, which the checked cells
        # confirm falls inside the horizon, so each cell simulates one
        # request per peer.
        chk.requests = len(result.rows) * cfg.peer_count
        return chk


class Scale50k:
    """One path-aware Simulation with 50,000 peers and default config."""

    name = "scale-50k"
    why = ("single 50k-peer run where only ~12% of requests reach the relay "
           "phase: event loop, population build and memory dominate")

    def generate(self, seed: int, workdir: Path, small: bool = False) -> dict:
        return {"peers": 400 if small else 50000, "rng_seed": seed}

    def operations(self, inp: dict) -> int:
        return 1

    def setup(self, inp: dict, workdir: Path) -> dict:
        import relaysim.engine as engine
        from relaysim.model import SimConfig
        cfg = SimConfig(peer_count=inp["peers"], rng_seed=inp["rng_seed"],
                        strategy="path-aware")
        return {"sim": engine.Simulation(cfg)}

    def run(self, state: dict, tracer):
        sim = state["sim"]
        return sim.run(), sim.outcomes

    def write(self, state: dict, result, outdir: Path) -> list[Path]:
        return _write_run(result, outdir)

    def check(self, inp: dict, state: dict, result) -> Check:
        report, outcomes = result
        chk = Check(attempted=1, requests=report.total_requests)
        chk.fail("run", check_outcomes(outcomes, state["sim"].peers, report, inp["peers"]))
        return chk


def _write_run(result, outdir: Path) -> list[Path]:
    import relaysim.io as rio
    report, outcomes = result
    table, metrics = outdir / "outcomes.csv", outdir / "metrics.json"
    rio.write_outcomes_csv(outcomes, table)
    rio.write_metrics_json(report, metrics)
    return [table, metrics]


class TraceRelayHeavy:
    """Replay of a synthetic 30,000-session trace, half of it cut off."""

    name = "trace-relay-heavy"
    why = ("trace replay where half the requests fall back to relays: "
           "candidate generation dominates, unlike the other workloads")

    def generate(self, seed: int, workdir: Path, small: bool = False) -> dict:
        sessions = 400 if small else 30000
        rng = _rng(seed, 1)
        joins = rng.exponential(60.0 / ARRIVALS_PER_MIN, sessions).cumsum()
        durations = 60.0 * PARETO_SCALE_MIN * (1.0 + rng.pareto(PARETO_SHAPE, sessions))
        failed = rng.random(sessions) < 0.5
        path = workdir / "trace.csv"
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(("user_id", "request_ts", "leave_ts", "fetch_failure"))
            for i in range(sessions):
                join = float(joins[i])
                w.writerow((f"u{i}", repr(join), repr(join + float(durations[i])),
                            int(failed[i])))
        return {"trace": path.name, "sessions": sessions, "rng_seed": seed,
                "size_kb": 16000.0}

    def operations(self, inp: dict) -> int:
        return 1

    def setup(self, inp: dict, workdir: Path) -> dict:
        import relaysim.io as rio
        from relaysim.model import SimConfig
        cfg = SimConfig(content_size_kb=inp["size_kb"], rng_seed=inp["rng_seed"],
                        strategy="path-aware")
        parsed = rio.parse_trace(workdir / inp["trace"])
        return {"cfg": cfg, "records": parsed.records, "parse_errors": parsed.errors}

    def run(self, state: dict, tracer):
        import relaysim.io as rio
        return rio.run_trace(state["records"], state["cfg"])

    def write(self, state: dict, result, outdir: Path) -> list[Path]:
        return _write_run(result, outdir)

    def check(self, inp: dict, state: dict, result) -> Check:
        report, outcomes = result
        chk = Check(attempted=1, requests=report.total_requests)
        problems = check_outcomes(outcomes, range(len(state["records"])), report,
                                  inp["sessions"])
        if state["parse_errors"]:
            problems.append(f"{len(state['parse_errors'])} trace rows rejected")
        chk.fail("run", problems)
        return chk


class AssignSolvers:
    """Exact solves up to 7x7 and 8x6; greedy solves at 3000x800, loose
    and tight capacity."""

    name = "assign-solvers"
    why = ("the only workload reaching the kernels; loose and tight greedy "
           "caps separate an early-exit gain from a faster scan")

    EXACT = (("exact-7x7", 7, 7), ("exact-8x6", 8, 6))
    GREEDY = (("loose", 20.0, 120.0), ("tight", 1.0, 5.0))
    ORACLE = ((3, 3), (4, 2), (2, 4), (4, 3))

    def generate(self, seed: int, workdir: Path, small: bool = False) -> dict:
        import numpy as np
        exact = []
        for k, (name, n, m) in enumerate(self.EXACT):
            if small:
                n, m = n // 2, m // 2
            b, caps = exact_instance(seed, 10 + k, n, m)
            path = workdir / f"{name}.csv"
            with open(path, "w", newline="") as fh:
                w = csv.writer(fh, lineterminator="\n")
                w.writerow([repr(float(c)) for c in caps])
                for row in b:
                    w.writerow([repr(float(v)) for v in row])
            exact.append(path.name)
        greedy = []
        n, m = (300, 80) if small else (3000, 800)
        for k, (regime, lo, hi) in enumerate(self.GREEDY):
            b, caps = greedy_instance(seed, 20 + k, n, m, lo, hi)
            path = workdir / f"greedy-{regime}.npz"
            np.savez(path, b=b, caps=caps)
            greedy.append([regime, path.name])
        return {"exact": exact, "greedy": greedy, "oracle_seed": seed}

    def operations(self, inp: dict) -> int:
        return len(inp["exact"]) + len(inp["greedy"]) + len(self.ORACLE)

    def setup(self, inp: dict, workdir: Path) -> dict:
        import numpy as np
        import relaysim.selection as selection
        exact = [selection.load_instance(workdir / name) for name in inp["exact"]]
        greedy = []
        for regime, name in inp["greedy"]:
            with np.load(workdir / name) as data:
                greedy.append((regime, data["b"], data["caps"]))
        return {"exact": exact, "greedy": greedy}

    def run(self, state: dict, tracer):
        import relaysim.selection as selection
        exact = [selection.solve_exact(b, caps) for b, caps in state["exact"]]
        greedy = []
        for regime, b, caps in state["greedy"]:
            with tracer.tagged(regime):
                greedy.append(selection.solve_greedy(b, caps))
        return {"exact": exact, "greedy": greedy}

    def write(self, state: dict, result, outdir: Path) -> list[Path]:
        path = outdir / "assignments.json"
        doc = {kind: [{"objective": obj, "assignment": list(sel.assignment)}
                      for sel, obj in result[kind]] for kind in ("exact", "greedy")}
        with open(path, "w") as fh:
            json.dump(doc, fh, sort_keys=True)
            fh.write("\n")
        return [path]

    def check(self, inp: dict, state: dict, result) -> Check:
        """Feasibility and objective of every solve; greedy leaves no
        requester unmatched that still fits somewhere; exact is at least
        greedy where greedy matched everyone (otherwise greedy's partial
        assignment may score higher than any complete one); and solve_exact
        agrees with brute force on tiny instances."""
        import relaysim.selection as selection
        chk = Check(attempted=self.operations(inp))
        for (b, caps), (sel, obj) in zip(state["exact"], result["exact"]):
            problems = _assignment_problems(b, caps, sel, obj)
            if sel.unmatched:
                problems.append("exact solution leaves requesters unmatched")
            g_sel, g_obj = selection.solve_greedy(b, caps)
            if not g_sel.unmatched and obj < g_obj - CAP_EPS:
                problems.append(f"exact objective {obj} below greedy {g_obj}")
            chk.fail(f"exact {b.shape[0]}x{b.shape[1]}", problems)
            chk.requests += b.shape[0]
        for (regime, b, caps), (sel, obj) in zip(state["greedy"], result["greedy"]):
            problems = _assignment_problems(b, caps, sel, obj)
            remaining = caps - sel.loads(b)
            for q in sel.unmatched:
                if (b[q] <= remaining + CAP_EPS).any():
                    problems.append(f"requester {q} unmatched but fits")
                    break
            chk.fail(f"greedy {regime}", problems)
            chk.requests += b.shape[0]
        for k, (n, m) in enumerate(self.ORACLE):
            chk.fail(f"oracle {n}x{m}", oracle_problems(inp["oracle_seed"], 40 + k, n, m))
        return chk


def exact_instance(seed: int, stream: int, n: int, m: int):
    """Integer benefits 0..10 and caps 5..30, with each cap raised to fit the
    round-robin assignment q -> q % m, so a complete assignment exists."""
    import numpy as np
    rng = _rng(seed, stream)
    b = rng.integers(0, 11, size=(n, m)).astype(np.float64)
    caps = rng.integers(5, 31, size=m).astype(np.float64)
    for r in range(m):
        caps[r] = max(caps[r], b[r::m, r].sum())
    return b, caps


def greedy_instance(seed: int, stream: int, n: int, m: int, cap_lo: float, cap_hi: float):
    """Uniform benefits in [0, 10) and caps uniform in [cap_lo, cap_hi)."""
    rng = _rng(seed, stream)
    return rng.uniform(0.0, 10.0, size=(n, m)), rng.uniform(cap_lo, cap_hi, size=m)


def _assignment_problems(b, caps, sel, obj) -> list[str]:
    problems = []
    if len(sel.assignment) != b.shape[0]:
        problems.append("assignment length differs from the requester count")
    if not sel.is_feasible(b):
        problems.append("assignment exceeds a relay's capacity")
    if abs(sel.objective(b) - obj) > CAP_EPS * max(1.0, abs(obj)):
        problems.append(f"reported objective {obj} != {sel.objective(b)}")
    return problems


def oracle_problems(seed: int, stream: int, n: int, m: int) -> list[str]:
    """Compare solve_exact with brute-force enumeration on a tiny instance."""
    import relaysim.selection as selection
    rng = _rng(seed, stream)
    b = rng.integers(0, 11, size=(n, m)).astype(float)
    caps = rng.integers(0, 16, size=m).astype(float)
    best = None
    for assign in itertools.product(range(m), repeat=n):
        loads = [0.0] * m
        for q, r in enumerate(assign):
            loads[r] += b[q, r]
        if all(loads[r] <= caps[r] + CAP_EPS for r in range(m)):
            obj = sum(b[q, r] for q, r in enumerate(assign))
            best = obj if best is None else max(best, obj)
    try:
        sel, obj = selection.solve_exact(b, caps)
    except selection.Infeasible:
        sel, obj = None, None
    if (best is None) != (obj is None):
        return [f"solve_exact {obj}, brute force {best}"]
    if obj is not None and (abs(obj - best) > CAP_EPS or not sel.is_feasible(b)):
        return [f"solve_exact {obj} (feasible {sel.is_feasible(b)}), brute force {best}"]
    return []


WORKLOADS = {w.name: w for w in (DeskSweep(), Scale50k(), TraceRelayHeavy(),
                                 AssignSolvers())}
