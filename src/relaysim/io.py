"""File formats, trace replay and parameter sweeps.

Covers: key=value config files, access-trace CSV parsing and synthesis (a
trace is a model.TraceColumns table: parse_trace reads the CSV a block of
rows at a time into its columns, and build_trace_peers and run_trace read
them), parameter sweeps with a stable CSV schema, per-request outcome
dumps (written from the Outcomes columns a block at a time) and metrics
JSON. The command line that reads and writes them is relaysim.cli. All
emitted files are deterministic: fixed row order, repr-formatted floats,
newline line endings. A run, trace replay or sweep cell whose horizon
ends before its first request is an error, not an empty result.
"""

from __future__ import annotations

import csv
import json
import math
from array import array
from dataclasses import dataclass, fields, replace
from datetime import datetime, timezone
from itertools import accumulate, compress, islice, repeat

import numpy as np

from relaysim import churn, engine
from relaysim.engine import SERVED_BY_SERVER, UNSERVED, MetricsReport, Outcomes, Simulation
from relaysim.model import (TRACE_BACKWARDS, TRACE_EMPTY_USER, TRACE_NON_FINITE, CapacityError,
                            ConfigError, PeerColumns, SimConfig, TraceColumns, config_errors,
                            trace_row_faults, validate_config)
# assign_bandwidth is not called here; perfbench's tracer patches this binding.
from relaysim.netsim import (SERVER, FailureScenario, assign_bandwidth,  # noqa: F401
                             read_city_file)

SWEEP_COLUMNS = ("strategy", "size_kb", "failure_ratio", "seed", "success_ratio",
                 "primary_success_ratio", "avg_attempts", "affected_success_ratio",
                 "region_success_ratio")

TRACE_COLUMNS = ("user_id", "request_ts", "leave_ts", "fetch_failure")

OUTCOME_COLUMNS = ("requester_id", "size_kb", "start_time", "end_time", "served_by",
                   "attempts", "primary_success", "entered_relay_phase")

# Rows formatted at a time by write_outcomes_csv: bounds the strings held.
_OUTCOME_BLOCK = 1024


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
            updates["city_table"] = read_city_file(val)
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


# Rows read and converted at a time by parse_trace: bounds the rows held.
_TRACE_BLOCK = 1024

# fetch_failure spellings, lower-cased, and their flag; any other is a fault.
_FLAGS = {"0": 0, "false": 0, "1": 1, "true": 1}

# parse_trace's row codes beyond model.trace_row_faults': a row that is
# blank (skipped, not counted), of another width, or with a bad flag.
_BLANK, _BAD_WIDTH, _BAD_FLAG = -1, 4, 5


def parse_trace(path) -> TraceParseResult:
    """Parse an access trace CSV with header user_id,request_ts,leave_ts,fetch_failure.

    Reads _TRACE_BLOCK rows at a time and converts each block's columns in
    bulk. Each row gets its first fault: a width other than 4 fields, then
    model.trace_row_faults' rules (a field that is not a timestamp counts
    as non-finite), then a fetch_failure other than 0, 1, true or false.
    The good rows' columns are appended to four buffers, which the
    TraceColumns copies once at the end; no list of the file's rows is
    held. Malformed rows are collected as (line, message) pairs, by the
    file line the row starts on, and skipped; if more than half the data
    rows are malformed the whole file is rejected with TraceFormatError.
    A missing or wrong header is always fatal.
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
        while rows := list(islice(reader, _TRACE_BLOCK)):
            end = reader.line_num + 1
            # a quoted field may hold line breaks: a row's line is its first
            lines = range(start, end) if end - start == len(rows) else _row_lines(rows, start)
            start = end
            fault, (user, req, leave, flag) = _trace_block(rows)
            data_rows += len(rows) - np.count_nonzero(fault == _BLANK)
            errors += [(lines[i], _fault_message(fault.item(i), rows[i]))
                       for i in np.flatnonzero(fault > 0).tolist()]
            user_ids += user
            requests.frombytes(req.tobytes())
            leaves.frombytes(leave.tobytes())
            flags.frombytes(flag.tobytes())
    if data_rows and len(errors) > data_rows / 2:
        raise TraceFormatError(
            f"{path}: {len(errors)} of {data_rows} rows malformed")
    return TraceParseResult(TraceColumns(tuple(user_ids), requests, leaves, flags),
                            tuple(errors))


def _row_lines(rows: list[list[str]], start: int) -> list[int]:
    """The line each row starts on, the first row's being start. A row
    spans one line more than the line breaks its quoted fields hold, each
    a CRLF, CR or LF as the file's lines split."""
    spans = [1 + text.count("\n") + text.count("\r") - text.count("\r\n")
             for text in map(",".join, rows[:-1])]
    return list(accumulate(spans, initial=start))


def _trace_block(rows: list[list[str]]):
    """A block's row fault codes (0 for a good row), and the stripped
    user_id, float64 timestamp and int8 flag columns of its good rows."""
    four = np.fromiter(map(len, rows), np.intp, len(rows)) == 4
    quads = rows if four.all() else list(compress(rows, four))
    user, req_s, leave_s, fail_s = zip(*quads) if quads else ((),) * 4
    user = list(map(str.strip, user))
    req, leave = _timestamps(req_s), _timestamps(leave_s)
    flag = np.fromiter(map(_FLAGS.get, fail_s, repeat(-1)), np.int8, len(quads))
    for i in np.flatnonzero(flag < 0).tolist():
        flag[i] = _FLAGS.get(fail_s[i].strip().lower(), -1)
    fault = trace_row_faults(user, req, leave)
    fault[(fault == 0) & (flag < 0)] = _BAD_FLAG
    good = fault == 0
    kept = list(compress(user, good)), req[good], leave[good], flag[good]
    if len(quads) < len(rows):
        every = np.full(len(rows), _BAD_WIDTH, np.int8)
        every[four] = fault
        fault = every
    # a row whose fields are all blank is skipped, not counted
    for i in np.flatnonzero((fault == TRACE_EMPTY_USER) | (fault == _BAD_WIDTH)).tolist():
        if not "".join(rows[i]).strip():
            fault[i] = _BLANK
    return fault, kept


def _timestamps(texts: list[str]) -> np.ndarray:
    """A column of unstripped timestamp fields as float64, NaN where
    _parse_timestamp refuses the stripped field. float() reads a field as
    it reads the field stripped, or refuses it (it keeps four control
    characters that str.strip() drops), so _parse_timestamp runs, field by
    field, only on a column where float() refuses a field."""
    try:
        return np.fromiter(map(float, texts), np.float64, len(texts))
    except ValueError:
        return np.fromiter(map(_timestamp_or_nan, texts), np.float64, len(texts))


def _timestamp_or_nan(text: str) -> float:
    try:
        return _parse_timestamp(text.strip())
    except ValueError:
        return math.nan


def _fault_message(code: int, row: list[str]) -> str:
    if code == _BAD_WIDTH:
        return f"expected 4 fields, got {len(row)}"
    if code == TRACE_EMPTY_USER:
        return "empty user_id"
    if code == TRACE_NON_FINITE:
        return f"bad timestamp in {row!r}"
    if code == TRACE_BACKWARDS:
        return "leave_ts precedes request_ts"
    return f"fetch_failure must be 0 or 1, got {row[3].strip()!r}"


def write_trace_csv(trace: TraceColumns, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(TRACE_COLUMNS)
        w.writerows(zip(trace.user_id, map(repr, trace.request_ts.tolist()),
                        map(repr, trace.leave_ts.tolist()),
                        trace.fetch_failure.view(np.uint8).tolist()))


def synthesize_trace(count: int, seed: int = 0, fail_fraction: float = 0.1, start: float = 0.0,
                     cfg: SimConfig | None = None) -> TraceColumns:
    """Synthetic access trace: the session columns of cfg's churn model
    (the default SimConfig's when None; ConfigError if cfg is invalid),
    then a fetch-failure column."""
    cfg = validate_config(SimConfig() if cfg is None else cfg)
    if count < 0:
        raise ValueError("count must be non-negative")
    if not 0.0 <= fail_fraction <= 1.0:
        raise ValueError("fail_fraction must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    joins, durations = churn.sample_sessions(cfg, rng, count)
    joins += start
    return TraceColumns(tuple(f"u{i}" for i in range(count)), joins, joins + durations,
                        rng.random(count) < fail_fraction)


def build_trace_peers(trace: TraceColumns, cfg: SimConfig,
                      rng: np.random.Generator) -> PeerColumns:
    """Trace rows as read-only peer columns, id i for row i; attributes the
    trace lacks (city, ISP, capacity) are drawn by engine.peer_columns."""
    return engine.peer_columns(cfg, rng, trace.request_ts, trace.leave_ts - trace.request_ts)


def run_trace(trace: TraceColumns, cfg: SimConfig) -> tuple[MetricsReport, Outcomes]:
    """Replay a trace: sessions and the affected set come from its columns.

    Rows flagged fetch_failure form the affected set of a failure window
    spanning the whole run, so those users take the relay path exactly
    where the log says the server path failed. A trace without rows, or a
    finite sim_duration ending before the first request (epoch timestamps
    under a one-hour horizon, say), raises ValueError. Any other trace
    type raises TypeError.
    """
    if not isinstance(trace, TraceColumns):
        raise TypeError(f"run_trace takes a TraceColumns, got {type(trace).__name__}; "
                        f"build one with TraceColumns(user_id, request_ts, leave_ts, "
                        f"fetch_failure)")
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
    scenario = FailureScenario(np.flatnonzero(trace.fetch_failure))
    sim = Simulation(cfg, engine.Population(build_trace_peers(trace, cfg, rng), scenario))
    return sim.run(), sim.outcomes


# ---------------------------------------------------------------------------
# sweeps

@dataclass(frozen=True)
class SweepSpec:
    """Cartesian sweep grid; cells run in the fixed nesting order
    size -> ratio -> strategy -> seed."""

    content_sizes_kb: tuple[float, ...] = (500.0, 1000.0, 2000.0, 4000.0, 8000.0, 16000.0)
    failure_ratios: tuple[float, ...] = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
    strategies: tuple[str, ...] = ("no-relay", "random", "path-aware")
    seeds: tuple[int, ...] = (0,)

    def __post_init__(self):
        """Each axis is non-empty and distinct (ValueError), and each value
        passes config_errors in the field it sets (ConfigError)."""
        axes = {"content sizes": ("content_size_kb", self.content_sizes_kb),
                "failure ratios": ("failure_ratio", self.failure_ratios),
                "strategies": ("strategy", self.strategies), "seeds": ("rng_seed", self.seeds)}
        base, errs = SimConfig(), []
        for name, (field, axis) in axes.items():
            if not axis or len(set(axis)) != len(axis):
                raise ValueError(f"sweep {name} must be non-empty and distinct, got {axis}")
            errs += (err for value in axis
                     for err in config_errors(replace(base, **{field: value})))
        if errs:
            raise ConfigError(list(dict.fromkeys(errs)))

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
