"""File formats and the command line interface.

Covers: key=value config files, access-trace CSV parsing and synthesis
(a trace is a model.TraceColumns table: parse_trace streams the CSV into
its columns, and build_trace_peers and run_trace read them; callers that
hold TraceRecord rows pass TraceColumns.from_records(records)),
parameter sweeps with a stable CSV schema, per-request outcome dumps
(written from the Outcomes columns a block at a time), metrics JSON, and
the relaysim CLI (run / sweep / trace / calibrate / solve). All emitted
files are deterministic: fixed row order, repr-formatted floats, newline
line endings. A run, trace replay or sweep cell whose horizon ends before
its first request is an error, not an empty result.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from array import array
from dataclasses import dataclass, fields, replace
from datetime import datetime, timezone

import numpy as np

from relaysim import churn, engine, selection
from relaysim.churn import SessionModel, calibrate_pareto
from relaysim.engine import SERVED_BY_SERVER, UNSERVED, MetricsReport, Outcomes, Simulation
from relaysim.model import (STRATEGIES, CapacityError, ConfigError, PeerColumns, SimConfig,
                            TraceColumns, _is_int, validate_config)
# assign_bandwidth is not called here; perfbench's tracer patches this binding.
from relaysim.netsim import SERVER, CityTable, FailureScenario, assign_bandwidth  # noqa: F401

SWEEP_COLUMNS = ("strategy", "size_kb", "failure_ratio", "seed", "success_ratio",
                 "primary_success_ratio", "avg_attempts", "affected_success_ratio",
                 "region_success_ratio")

TRACE_COLUMNS = ("user_id", "request_ts", "leave_ts", "fetch_failure")

OUTCOME_COLUMNS = ("requester_id", "size_kb", "start_time", "end_time", "served_by",
                   "attempts", "primary_success", "entered_relay_phase")

# Rows formatted at a time by write_outcomes_csv: bounds the strings held.
_OUTCOME_BLOCK = 4096


class TraceFormatError(ValueError):
    pass


def _fmt(value) -> str:
    """Deterministic cell formatting: floats via repr, None empty, bools 0/1."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


# ---------------------------------------------------------------------------
# config files

def load_config_file(path) -> dict[str, str]:
    """Read key = value lines; '#' starts a comment, blank lines ignored."""
    raw = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigError([f"{path}:{lineno}: expected key = value, got {text!r}"])
            key, val = (s.strip() for s in text.split("=", 1))
            raw[key] = val
    return raw


def _parse_optional_float(raw: str):
    if raw.lower() in ("none", "auto", ""):
        return None
    return float(raw)

def _parse_float_tuple(raw: str):
    return tuple(float(v) for v in raw.split(",") if v.strip())

def _parse_profile(raw: str):
    out = {}
    for part in raw.split(","):
        if not part.strip():
            continue
        kbps, prob = part.split(":")
        out[float(kbps)] = float(prob)
    return out

# Text parsers keyed by a SimConfig field's annotation (a string, since
# model postpones annotations). A field whose annotation is not here, such
# as city_table, cannot be set from text.
_PARSERS = {
    "int": int,
    "float": float,
    "str": str,
    "float | None": _parse_optional_float,
    "tuple[float, ...]": _parse_float_tuple,
    "tuple[float, float, float]": _parse_float_tuple,
    "dict[float, float]": _parse_profile,
}


def apply_overrides(cfg: SimConfig, raw: dict[str, str]) -> SimConfig:
    """Apply string-valued overrides to a config; unknown keys are errors.

    The special key city_file replaces the city table from a name,lat,lon
    CSV file.
    """
    annotations = {f.name: f.type for f in fields(SimConfig)}
    updates = {}
    errors = []
    for key, val in raw.items():
        if key == "city_file":
            updates["city_table"] = CityTable.from_csv(val).as_dict()
            continue
        if key not in annotations:
            errors.append(f"unknown config key {key!r}")
            continue
        parser = _PARSERS.get(annotations[key])
        if parser is None:
            errors.append(f"config key {key!r} cannot be set from text")
            continue
        try:
            updates[key] = parser(val)
        except (ValueError, TypeError):
            errors.append(f"config key {key!r}: cannot parse {val!r}")
    if errors:
        raise ConfigError(errors)
    return replace(cfg, **updates)


# ---------------------------------------------------------------------------
# traces

def _parse_timestamp(raw: str) -> float:
    """Accept finite epoch seconds or ISO-8601; naive datetimes are taken as UTC."""
    try:
        ts = float(raw)
    except ValueError:
        pass
    else:
        if not math.isfinite(ts):
            raise ValueError(f"non-finite timestamp {raw!r}")
        return ts
    text = raw.strip()
    if text.endswith("Z"):
        text = text[:-1] + "+00:00"
    dt = datetime.fromisoformat(text)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.timestamp()


@dataclass(frozen=True)
class TraceParseResult:
    records: TraceColumns
    errors: tuple[tuple[int, str], ...]


def parse_trace(path) -> TraceParseResult:
    """Parse an access trace CSV with header user_id,request_ts,leave_ts,fetch_failure.

    One pass over the rows, appending each good row to the four column
    buffers of a TraceColumns. Malformed rows are collected as (line,
    message) pairs, by the file line the row starts on, and skipped; if
    more than half the data rows are malformed the whole file is rejected
    with TraceFormatError. A missing or wrong header is always fatal.
    """
    user_ids, requests, leaves, flags = [], array("d"), array("d"), array("b")
    errors = []
    data_rows = 0
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(c.strip().lower() for c in header) != TRACE_COLUMNS:
            raise TraceFormatError(
                f"{path}: expected header {','.join(TRACE_COLUMNS)}")
        start = reader.line_num + 1
        for row in reader:
            # a quoted field may hold line breaks: a row's line is its first
            lineno, start = start, reader.line_num + 1
            if not row or not "".join(row).strip():
                continue
            data_rows += 1
            if len(row) != 4:
                errors.append((lineno, f"expected 4 fields, got {len(row)}"))
                continue
            user_id, req_s, leave_s, fail_s = map(str.strip, row)
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
            user_ids.append(user_id)
            requests.append(req_ts)
            leaves.append(leave_ts)
            flags.append(fail)
    if data_rows and len(errors) > data_rows / 2:
        raise TraceFormatError(
            f"{path}: {len(errors)} of {data_rows} rows malformed")
    return TraceParseResult(TraceColumns(tuple(user_ids), requests, leaves, flags),
                            tuple(errors))


def write_trace_csv(trace: TraceColumns, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(TRACE_COLUMNS)
        w.writerows(zip(trace.user_id, map(repr, trace.request_ts.tolist()),
                        map(repr, trace.leave_ts.tolist()),
                        trace.fetch_failure.view(np.uint8).tolist()))


def synthesize_trace(count: int, seed: int = 0, fail_fraction: float = 0.1, start: float = 0.0,
                     model: SessionModel = SessionModel()) -> TraceColumns:
    """Synthetic access trace: the churn model's session columns (the
    standard one by default), then a fetch-failure column."""
    if count < 0:
        raise ValueError("count must be non-negative")
    if not 0.0 <= fail_fraction <= 1.0:
        raise ValueError("fail_fraction must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    joins, durations = churn.sample_sessions(model, rng, count)
    joins += start
    return TraceColumns(tuple(f"u{i}" for i in range(count)), joins, joins + durations,
                        rng.random(count) < fail_fraction)


def build_trace_peers(trace: TraceColumns, cfg: SimConfig,
                      rng: np.random.Generator) -> PeerColumns:
    """Trace rows as peer columns, id i for row i; attributes the trace
    lacks (city, ISP, capacity) are drawn by engine.draw_peer_attributes."""
    n = len(trace)
    return PeerColumns(tuple(cfg.city_table), np.arange(n),
                       *engine.draw_peer_attributes(cfg, rng, n),
                       trace.request_ts, trace.leave_ts - trace.request_ts)


def run_trace(trace: TraceColumns, cfg: SimConfig) -> tuple[MetricsReport, Outcomes]:
    """Replay a trace: sessions and the affected set come from its columns.

    Rows flagged fetch_failure form the affected set of a failure window
    spanning the whole run, so those users take the relay path exactly
    where the log says the server path failed. A trace without rows, or a
    finite sim_duration ending before the first request (epoch timestamps
    under a one-hour horizon, say), raises ValueError. Records are
    replayed as TraceColumns.from_records(records).
    """
    if not isinstance(trace, TraceColumns):
        raise TypeError(f"run_trace takes a TraceColumns, got {type(trace).__name__}; "
                        f"build one with TraceColumns.from_records(records)")
    validate_config(cfg)
    if not len(trace):
        raise ValueError("the trace has no requests to replay")
    if math.isfinite(cfg.sim_duration):
        first = trace.request_ts.min().item()
        if first > cfg.sim_duration:
            raise ValueError(
                f"sim_duration {cfg.sim_duration!r} s ends before the first trace "
                f"request at {first!r} s; set sim_duration = inf or rebase the "
                f"trace timestamps to start near 0")
    rng = engine._stream(cfg.rng_seed, engine._STREAM_POPULATION)
    affected = frozenset(np.flatnonzero(trace.fetch_failure).tolist())
    sim = Simulation(cfg, engine.Population(build_trace_peers(trace, cfg, rng),
                                            FailureScenario(affected)))
    return sim.run(), sim.outcomes


# ---------------------------------------------------------------------------
# sweeps

@dataclass(frozen=True)
class SweepSpec:
    """Cartesian sweep grid; cells run in the fixed nesting order
    size -> ratio -> strategy -> seed."""

    content_sizes_kb: tuple[float, ...] = SimConfig.content_sizes_kb
    failure_ratios: tuple[float, ...] = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
    strategies: tuple[str, ...] = ("no-relay", "random", "path-aware")
    seeds: tuple[int, ...] = (0,)

    def __post_init__(self):
        axes = {"content sizes": self.content_sizes_kb, "failure ratios": self.failure_ratios,
                "strategies": self.strategies, "seeds": self.seeds}
        for name, axis in axes.items():
            if not axis or len(set(axis)) != len(axis):
                raise ValueError(f"sweep {name} must be non-empty and distinct, got {axis}")
        if any(not 0 < s < math.inf for s in self.content_sizes_kb):
            raise ValueError("content sizes must be positive and finite")
        if any(not 0.0 <= r <= 1.0 for r in self.failure_ratios):
            raise ValueError("failure ratios must lie in [0, 1]")
        if any(s not in STRATEGIES for s in self.strategies):
            raise ValueError(f"strategies must be among {STRATEGIES}")
        if any(not _is_int(s) or s < 0 for s in self.seeds):
            raise ValueError("sweep seeds must be non-negative integers")

    @property
    def cell_count(self) -> int:
        return (len(self.content_sizes_kb) * len(self.failure_ratios)
                * len(self.strategies) * len(self.seeds))


@dataclass
class SweepResult:
    rows: list[dict]
    failures: list[dict]


def run_sweep(spec: SweepSpec, base_cfg: SimConfig | None = None) -> SweepResult:
    """Run every sweep cell; a cell that fails is recorded, not fatal.

    The population and failure draw depend only on the ratio and the seed,
    so they are drawn once per (ratio, seed); the candidate draws once per
    (ratio, seed, strategy), shared by every size. One group's draws are
    alive at a time, and a failed draw fails its whole group. CapacityError
    propagates: it means an engine invariant broke. A cell that issues no
    request (its horizon ends before the first join) is a failed cell. Rows
    and failures come out in size -> ratio -> strategy -> seed order.
    """
    if base_cfg is None:
        base_cfg = SimConfig()
    sizes, strategies = spec.content_sizes_kb, spec.strategies
    cells: dict[tuple[int, int, int, int], dict] = {}

    def failure(size, ratio, strategy, seed, exc: Exception) -> dict:
        return {"strategy": strategy, "size_kb": size, "failure_ratio": ratio,
                "seed": seed, "error": f"{type(exc).__name__}: {exc}"}

    for ri, ratio in enumerate(spec.failure_ratios):
        for si, seed in enumerate(spec.seeds):
            group_cfg = replace(base_cfg, content_size_kb=sizes[0], failure_ratio=ratio,
                                strategy=strategies[0], rng_seed=seed)
            try:
                validate_config(group_cfg)
                population = engine.draw_population(group_cfg)
                draws = {strategy: engine.draw_candidates(
                             replace(group_cfg, strategy=strategy), population)
                         for strategy in strategies}
            except CapacityError:
                raise
            except Exception as exc:  # record for the whole group and continue
                for zi, size in enumerate(sizes):
                    for ti, strategy in enumerate(strategies):
                        cells[zi, ri, ti, si] = failure(size, ratio, strategy, seed, exc)
                continue
            for zi, size in enumerate(sizes):
                for ti, strategy in enumerate(strategies):
                    cfg = replace(group_cfg, content_size_kb=size, strategy=strategy)
                    try:
                        report = Simulation(cfg, population, draws[strategy]).run()
                        if not report.total_requests:
                            raise _no_requests(cfg, population)
                    except CapacityError:
                        raise
                    except Exception as exc:  # record and continue
                        cells[zi, ri, ti, si] = failure(size, ratio, strategy, seed, exc)
                        continue
                    cells[zi, ri, ti, si] = dict(zip(SWEEP_COLUMNS, (
                        strategy, float(size), float(ratio), int(seed), report.success_ratio,
                        report.primary_success_ratio, report.avg_repeated_requests,
                        report.affected_success_ratio, report.region_success_ratio)))
    ordered = [cells[key] for key in sorted(cells)]
    return SweepResult([c for c in ordered if "error" not in c],
                       [c for c in ordered if "error" in c])


def _no_requests(cfg: SimConfig, population: engine.Population) -> ValueError:
    """The error for a run whose horizon ends before its first request."""
    first = population.join.item(0)
    return ValueError(f"sim_duration {cfg.sim_duration!r} s ends before the first "
                      f"request at {first!r} s, so the run issues no request; raise "
                      f"sim_duration or set it to inf")


def write_sweep_csv(result: SweepResult, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(SWEEP_COLUMNS)
        for row in result.rows:
            w.writerow([_fmt(row[c]) for c in SWEEP_COLUMNS])


def summarize_sweep(result: SweepResult) -> dict:
    """Aggregate sweep rows over seeds into per-cell means."""
    cells: dict[tuple, list[dict]] = {}
    for row in result.rows:
        cells.setdefault((row["strategy"], row["size_kb"], row["failure_ratio"]),
                         []).append(row)

    def stats(rows, key):
        vals = [r[key] for r in rows if r[key] is not None]
        if not vals:
            return None, None
        mean = sum(vals) / len(vals)
        var = sum((v - mean) ** 2 for v in vals) / len(vals)
        return mean, math.sqrt(var)

    summary = []
    for (strategy, size, ratio), rows in cells.items():
        cell = {"strategy": strategy, "size_kb": size, "failure_ratio": ratio,
                "seeds": len(rows)}
        for key in ("success_ratio", "primary_success_ratio", "avg_attempts",
                    "affected_success_ratio"):
            mean, std = stats(rows, key)
            cell[f"{key}_mean"] = mean
            cell[f"{key}_std"] = std
        summary.append(cell)
    return {"cells": summary, "failures": list(result.failures)}


# ---------------------------------------------------------------------------
# outcome and metrics dumps

def write_outcomes_csv(outcomes: Outcomes, path) -> None:
    """Per-request outcomes ordered by requester id.

    The columns are formatted _OUTCOME_BLOCK rows at a time, as _fmt
    formats each cell. No cell holds a comma, quote or line break, so each
    line is what csv.writer writes for that row.
    """
    labels = {SERVED_BY_SERVER: SERVER, UNSERVED: ""}
    size = _fmt(outcomes.size_kb)
    order = np.argsort(outcomes.requester_id, kind="stable")
    with open(path, "w", newline="") as fh:
        fh.write(",".join(OUTCOME_COLUMNS) + "\n")
        for lo in range(0, len(order), _OUTCOME_BLOCK):
            rows = order[lo:lo + _OUTCOME_BLOCK]
            served_by, attempts = outcomes.served_by[rows], outcomes.attempts[rows]
            primary = (served_by >= 0) & (attempts == 1)
            fh.write("".join(
                f"{pid},{size},{start!r},{end!r},{labels.get(code, code)},{n},{p},{r}\n"
                for pid, start, end, code, n, p, r in zip(
                    outcomes.requester_id[rows].tolist(), outcomes.start_time[rows].tolist(),
                    outcomes.end_time[rows].tolist(), served_by.tolist(), attempts.tolist(),
                    primary.view(np.uint8).tolist(),
                    outcomes.entered_relay_phase[rows].view(np.uint8).tolist())))


def write_metrics_json(report: MetricsReport, path) -> None:
    with open(path, "w") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# CLI

def _add_config_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="FILE", help="key = value config file")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override a single config field (repeatable)")
    p.add_argument("--seed", type=int,
                   help="RNG seed (overrides --config and --set; RELAYSIM_SEED "
                        "applies only when none of them sets the seed)")
    p.add_argument("--peers", type=int, help="population size")
    p.add_argument("--strategy", choices=STRATEGIES, help="relay selection strategy")
    p.add_argument("--size", type=float, metavar="KB", help="content size in KB")
    p.add_argument("--failure-ratio", type=float, help="share of region peers to fail")
    p.add_argument("--failure-region", help="city whose peers fail")


def build_config(args) -> SimConfig:
    raw = {}
    if args.config:
        raw.update(load_config_file(args.config))
    for pair in args.set:
        if "=" not in pair:
            raise ConfigError([f"--set expects KEY=VALUE, got {pair!r}"])
        key, val = pair.split("=", 1)
        raw[key.strip()] = val.strip()
    cfg = apply_overrides(SimConfig(), raw)
    seed = args.seed
    # The environment is the last resort: --seed, --config and --set all beat it.
    if seed is None and "rng_seed" not in raw and os.environ.get("RELAYSIM_SEED"):
        try:
            seed = int(os.environ["RELAYSIM_SEED"])
        except ValueError:
            raise ConfigError(["RELAYSIM_SEED must be an integer"])
    direct = {
        "rng_seed": seed,
        "peer_count": args.peers,
        "strategy": args.strategy,
        "content_size_kb": args.size,
        "failure_ratio": args.failure_ratio,
        "failure_region": args.failure_region,
    }
    cfg = replace(cfg, **{k: v for k, v in direct.items() if v is not None})
    return validate_config(cfg)


def _parse_quantile(raw: str) -> tuple[float, float]:
    t, p = raw.split(":")
    return float(t), float(p)


def _print_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _report(args, report: MetricsReport, outcomes) -> int:
    """Print the metrics; with --out PREFIX also write both files."""
    if args.out:
        write_outcomes_csv(outcomes, f"{args.out}_outcomes.csv")
        write_metrics_json(report, f"{args.out}_metrics.json")
    _print_json(report.to_dict())
    return 0


def _cmd_run(args) -> int:
    sim = Simulation(build_config(args))
    report = sim.run()
    if not report.total_requests:
        raise _no_requests(sim.cfg, sim.population)
    return _report(args, report, sim.outcomes)


def _cmd_sweep(args) -> int:
    # Each cell sets these fields from its axes, so the one-value flags would be lost.
    for flag, axis in (("seed", "seeds"), ("strategy", "strategies"), ("size", "sizes"),
                       ("failure_ratio", "ratios")):
        if getattr(args, flag) is not None:
            raise ValueError(f"sweep takes its {axis} from --{axis}, not "
                             f"--{flag.replace('_', '-')}")
    cfg = build_config(args)
    kwargs = {"content_sizes_kb": tuple(cfg.content_sizes_kb)}
    for flag, field, parse in (("sizes", "content_sizes_kb", float),
                               ("ratios", "failure_ratios", float),
                               ("strategies", "strategies", str), ("seeds", "seeds", int)):
        raw = getattr(args, flag)
        if raw is not None:
            values = [v.strip() for v in raw.split(",")]
            if not all(values):
                raise ValueError(f"--{flag} {raw!r} has an empty value")
            kwargs[field] = tuple(map(parse, values))
    result = run_sweep(SweepSpec(**kwargs), cfg)
    write_sweep_csv(result, args.out)
    if args.summary:
        with open(args.summary, "w") as fh:
            json.dump(summarize_sweep(result), fh, indent=2, sort_keys=True)
            fh.write("\n")
    for failure in result.failures:
        print(f"warning: cell failed: {failure}", file=sys.stderr)
    print(f"wrote {len(result.rows)} rows to {args.out}")
    return 1 if result.failures else 0


def _cmd_trace(args) -> int:
    cfg = build_config(args)
    if args.synthesize is not None:
        if args.synthesize < 1:
            raise ValueError(f"--synthesize needs at least 1 session, got {args.synthesize}")
        records = synthesize_trace(args.synthesize, cfg.rng_seed, args.fail_fraction,
                                   model=engine.session_model(cfg))
        write_trace_csv(records, args.file)
        print(f"wrote {len(records)} sessions to {args.file}")
        return 0
    parsed = parse_trace(args.file)
    for lineno, msg in parsed.errors:
        print(f"warning: {args.file}:{lineno}: {msg}", file=sys.stderr)
    return _report(args, *run_trace(parsed.records, cfg))


def _cmd_calibrate(args) -> int:
    q1 = _parse_quantile(args.q1)
    q2 = _parse_quantile(args.q2)
    x_m, shape = calibrate_pareto(q1, q2)
    _print_json({"scale_x_m_minutes": x_m, "shape_a": shape,
                 "scale_seconds": 60.0 * x_m})
    return 0


def _cmd_solve(args) -> int:
    b, caps = selection.load_instance(args.matrix)
    if not len(b):
        raise ValueError(f"instance file {args.matrix} has a capacity row and no benefit rows")
    method = "greedy" if args.greedy else "exact"
    if method == "exact":
        try:
            sel, obj = selection.solve_exact(b, caps)
        except selection.Infeasible as exc:
            print(f"infeasible: {exc}", file=sys.stderr)
            return 1
    else:
        sel, obj = selection.solve_greedy(b, caps)
    _print_json({"method": method, "objective": obj,
                 "assignment": list(sel.assignment), "unmatched": list(sel.unmatched)})
    return 0


def cli(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="relaysim",
        description="Simulate joint CDN and browser-peer relay content delivery.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one simulation and print metrics")
    _add_config_args(p_run)
    p_run.add_argument("--out", metavar="PREFIX",
                       help="also write PREFIX_outcomes.csv and PREFIX_metrics.json")

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep grid")
    _add_config_args(p_sweep)
    p_sweep.add_argument("--sizes", help="comma list of content sizes in KB")
    p_sweep.add_argument("--ratios", help="comma list of failure ratios")
    p_sweep.add_argument("--strategies", help="comma list of strategies")
    p_sweep.add_argument("--seeds", help="comma list of seeds")
    p_sweep.add_argument("--out", default="sweep_results.csv", metavar="CSV",
                         help="result table path (default %(default)s)")
    p_sweep.add_argument("--summary", metavar="JSON", help="per-cell summary path")

    p_trace = sub.add_parser("trace", help="replay an access trace, or synthesize one")
    _add_config_args(p_trace)
    p_trace.add_argument("--file", required=True, metavar="CSV", help="trace file")
    p_trace.add_argument("--synthesize", type=int, metavar="N",
                         help="write N synthetic sessions to --file and exit")
    p_trace.add_argument("--fail-fraction", type=float, default=0.1,
                         help="fetch-failure share when synthesizing (default %(default)s)")
    p_trace.add_argument("--out", metavar="PREFIX",
                         help="also write PREFIX_outcomes.csv and PREFIX_metrics.json")

    p_cal = sub.add_parser("calibrate", help="fit Pareto session parameters")
    p_cal.add_argument("--q1", default="1:0.6", metavar="T:P",
                       help="first quantile, minutes:level (default %(default)s)")
    p_cal.add_argument("--q2", default="10:0.9", metavar="T:P",
                       help="second quantile, minutes:level (default %(default)s)")

    p_solve = sub.add_parser("solve", help="solve an assignment instance from CSV")
    p_solve.add_argument("--matrix", required=True, metavar="CSV",
                         help="caps row followed by benefit rows")
    group = p_solve.add_mutually_exclusive_group()
    group.add_argument("--exact", action="store_true", help="exact branch-and-bound (default)")
    group.add_argument("--greedy", action="store_true", help="greedy assignment")

    args = parser.parse_args(argv)
    handlers = {"run": _cmd_run, "sweep": _cmd_sweep, "trace": _cmd_trace,
                "calibrate": _cmd_calibrate, "solve": _cmd_solve}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        for err in exc.errors:
            print(f"config error: {err}", file=sys.stderr)
        return 2
    except (TraceFormatError, churn.CalibrationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    try:
        return cli(argv)
    except SystemExit as exc:  # argparse exits with 2 on usage errors
        code = exc.code
        return code if isinstance(code, int) else 0


if __name__ == "__main__":
    sys.exit(main())
