"""File format, sweep orchestration, and CLI tests."""

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings

from relaysim import engine
from relaysim import io as rio
from relaysim.cli import build_config, main
from relaysim.engine import RequestOutcome, Simulation
from relaysim.io import (
    OUTCOME_COLUMNS,
    SWEEP_COLUMNS,
    TRACE_COLUMNS,
    SweepResult,
    SweepSpec,
    TraceFormatError,
    apply_overrides,
    build_trace_peers,
    load_config_file,
    parse_trace,
    run_sweep,
    run_trace,
    summarize_sweep,
    synthesize_trace,
    write_outcomes_csv,
    write_sweep_csv,
    write_trace_csv,
    _PARSERS,
)
from relaysim.model import CapacityError, ConfigError, SimConfig
from relaysim.netsim import SERVER, FailureScenario

from helpers import (TraceRecord, outcome_tables, outcomes_table, peer_rows,
                     trace_columns, trace_files, trace_rows)
from reference import parse_trace_rows, write_outcomes_csv_rows


def make_args(**kw):
    base = dict(config=None, set=[], seed=None, peers=None, strategy=None,
                size=None, failure_ratio=None, failure_region=None)
    base.update(kw)
    return argparse.Namespace(**base)


class TestConfigFile:
    def test_key_value_with_comments(self, tmp_path):
        f = tmp_path / "sim.cfg"
        f.write_text(
            "# reference scenario\n"
            "peer_count = 100\n"
            "alpha=0.3   # inline comment\n"
            "\n"
            "strategy = random\n")
        raw = load_config_file(f)
        assert raw == {"peer_count": "100", "alpha": "0.3", "strategy": "random"}

    def test_bad_line_rejected(self, tmp_path):
        f = tmp_path / "sim.cfg"
        f.write_text("peer_count 100\n")
        with pytest.raises(ConfigError):
            load_config_file(f)

    def test_apply_overrides_types(self):
        cfg = apply_overrides(SimConfig(), {
            "peer_count": "250",
            "alpha": "0.5",
            "strategy": "random",
            "pareto_shape": "none",
            "tts_coeffs": "-0.01,1.0,2.0",
            "uplink_profile": "512:0.5,1024:0.5",
            "failure_end": "inf",
        })
        assert cfg.peer_count == 250
        assert cfg.alpha == 0.5
        assert cfg.strategy == "random"
        assert cfg.pareto_shape is None
        assert cfg.tts_coeffs == (-0.01, 1.0, 2.0)
        assert cfg.uplink_profile == {512.0: 0.5, 1024.0: 0.5}
        assert cfg.failure_end == math.inf

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError) as ei:
            apply_overrides(SimConfig(), {"warpdrive": "1"})
        assert "warpdrive" in str(ei.value)

    def test_unparsable_value_rejected(self):
        with pytest.raises(ConfigError):
            apply_overrides(SimConfig(), {"peer_count": "many"})

    def test_every_field_but_the_city_table_has_a_parser(self):
        # A field whose annotation has no parser could not be set from text.
        missing = {f.name: f.type for f in dataclasses.fields(SimConfig)
                   if f.type not in _PARSERS}
        assert missing == {"city_table": "dict[str, tuple[float, float]]"}
        with pytest.raises(ConfigError, match="cannot be set from text"):
            apply_overrides(SimConfig(), {"city_table": "A:1:2"})

    def test_city_file_override(self, tmp_path):
        f = tmp_path / "cities.csv"
        f.write_text("A,10.0,20.0\nB,30.0,40.0\n")
        cfg = apply_overrides(SimConfig(), {"city_file": str(f),
                                            "failure_region": "A"})
        assert cfg.city_table == {"A": (10.0, 20.0), "B": (30.0, 40.0)}

    def test_build_config_precedence(self, tmp_path):
        f = tmp_path / "sim.cfg"
        f.write_text("peer_count = 100\nalpha = 0.1\n")
        args = make_args(config=str(f), set=["alpha=0.4"], peers=77)
        cfg = build_config(args)
        assert cfg.peer_count == 77     # direct flag beats file
        assert cfg.alpha == 0.4         # --set beats file

    def test_build_config_env_seed(self, monkeypatch):
        monkeypatch.setenv("RELAYSIM_SEED", "123")
        cfg = build_config(make_args())
        assert cfg.rng_seed == 123
        cfg = build_config(make_args(seed=9))
        assert cfg.rng_seed == 9        # flag beats environment

    @pytest.mark.parametrize("source", ["config", "set", "seed"])
    def test_build_config_env_seed_is_the_last_resort(self, source, tmp_path, monkeypatch):
        monkeypatch.setenv("RELAYSIM_SEED", "5")
        f = tmp_path / "seed.cfg"
        f.write_text("rng_seed = 7\n")
        args = {"config": make_args(config=str(f)),
                "set": make_args(set=["rng_seed=7"]),
                "seed": make_args(seed=7)}[source]
        assert build_config(args).rng_seed == 7

    def test_build_config_env_seed_under_a_config_without_one(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RELAYSIM_SEED", "5")
        f = tmp_path / "sim.cfg"
        f.write_text("peer_count = 100\n")
        cfg = build_config(make_args(config=str(f), set=["alpha=0.4"]))
        assert cfg.rng_seed == 5 and cfg.peer_count == 100

    def test_build_config_bad_env_seed(self, monkeypatch):
        monkeypatch.setenv("RELAYSIM_SEED", "lots")
        with pytest.raises(ConfigError):
            build_config(make_args())

    def test_build_config_validates(self):
        with pytest.raises(ConfigError):
            build_config(make_args(set=["alpha=1.5"]))


class TestTraceParsing:
    def write(self, tmp_path, body):
        f = tmp_path / "trace.csv"
        f.write_text("user_id,request_ts,leave_ts,fetch_failure\n" + body)
        return f

    def test_basic_row(self, tmp_path):
        f = self.write(tmp_path, "u1,100,160,0\n")
        parsed = parse_trace(f)
        assert parsed.errors == ()
        (rec,) = trace_rows(parsed.records)
        assert rec.user_id == "u1"
        assert rec.duration == 60.0
        assert rec.fetch_failure is False

    def test_failure_flag(self, tmp_path):
        f = self.write(tmp_path, "u1,100,160,1\nu2,5,10,true\n")
        parsed = parse_trace(f)
        assert [r.fetch_failure for r in trace_rows(parsed.records)] == [True, True]

    def test_iso_timestamps(self, tmp_path):
        f = self.write(tmp_path,
                       "u1,2026-01-01T00:00:00Z,2026-01-01T00:01:00Z,0\n")
        (rec,) = trace_rows(parse_trace(f).records)
        assert rec.duration == 60.0

    def test_missing_header_fatal(self, tmp_path):
        f = tmp_path / "trace.csv"
        f.write_text("u1,100,160,0\n")
        with pytest.raises(TraceFormatError):
            parse_trace(f)

    def test_backwards_interval_rejected_with_line(self, tmp_path):
        f = self.write(tmp_path, "u1,100,160,0\nu2,160,100,0\n")
        parsed = parse_trace(f)
        assert len(parsed.records) == 1
        ((lineno, msg),) = parsed.errors
        assert lineno == 3
        assert "precedes" in msg

    def test_rows_are_numbered_by_their_first_line(self, tmp_path):
        # a quoted user id holding a line break spans lines 2 and 3, so the
        # next row is on line 4
        f = self.write(tmp_path, '"a\nb",1,2,0\nc,5,3,0\n')
        for parse in (parse_trace, parse_trace_rows):
            parsed = parse(f)
            records, errors = ((trace_rows(parsed.records), parsed.errors)
                               if parse is parse_trace else parsed)
            assert [r.user_id for r in records] == ["a\nb"]
            assert errors == ((4, "leave_ts precedes request_ts"),)

    def test_bad_rows_collected(self, tmp_path):
        f = self.write(tmp_path,
                       "u1,100,160,0\n"
                       "u2,abc,160,0\n"
                       "u3,100,160,maybe\n"
                       ",100,160,0\n"
                       "u5,100,160\n"
                       "u6,0,60,0\nu7,0,60,0\nu8,0,60,0\nu9,0,60,1\n")
        parsed = parse_trace(f)
        assert len(parsed.records) == 5
        assert [e[0] for e in parsed.errors] == [3, 4, 5, 6]

    @pytest.mark.parametrize("req, leave", [("nan", "nan"), ("0", "inf"),
                                            ("-inf", "10"), ("5", "NaN")])
    def test_non_finite_timestamps_rejected(self, tmp_path, req, leave):
        f = self.write(tmp_path, f"u1,0,100,0\nu2,{req},{leave},1\nu3,5,50,1\n")
        parsed = parse_trace(f)
        assert [r.user_id for r in trace_rows(parsed.records)] == ["u1", "u3"]
        ((lineno, msg),) = parsed.errors
        assert lineno == 3
        assert "bad timestamp" in msg

    def test_mostly_malformed_fatal(self, tmp_path):
        f = self.write(tmp_path, "u1,100,160,0\nu2,x,y,0\nu3,a,b,0\n")
        with pytest.raises(TraceFormatError):
            parse_trace(f)

    def test_roundtrip_identity(self, tmp_path):
        records = synthesize_trace(50, seed=4, fail_fraction=0.2)
        f = tmp_path / "out.csv"
        write_trace_csv(records, f)
        parsed = parse_trace(f)
        assert parsed.errors == ()
        assert trace_rows(parsed.records) == trace_rows(records)

    @staticmethod
    def assert_parsers_agree(tmp_path_factory, text):
        # The records, the errors and the fatal message all equal the row
        # parser's.
        f = tmp_path_factory.mktemp("trace") / "t.csv"
        f.write_bytes(text)

        def result(parse):
            try:
                return parse(f)
            except TraceFormatError as exc:
                return str(exc)
        parsed, want = result(parse_trace), result(parse_trace_rows)
        if not isinstance(parsed, str):
            parsed = (tuple(trace_rows(parsed.records)), parsed.errors)
        assert parsed == want

    @settings(max_examples=100, deadline=None)
    @given(trace_files())
    @example(b"user_id,request_ts,leave_ts,fetch_failure\r\n"
             b'"a,b",1,2,0\r\n , , , \r\n\r\nc,5,3,1\r\nd,nan,1,0\r\ne,1,inf,x\r\n')
    def test_streaming_parse_matches_the_row_parser(self, tmp_path_factory, text):
        # the example has three malformed rows of four: the file is rejected
        self.assert_parsers_agree(tmp_path_factory, text)

    # Rows 3 and 5 span two lines each (an LF and a CRLF in a quoted user
    # id). At a block of 3, row 3 ends the first block and the malformed
    # row 4 starts the second, whose line numbers must count row 3's break;
    # the malformed row 6 ends it and must count row 5's.
    BLOCK_EDGE = (b"user_id,request_ts,leave_ts,fetch_failure\n"
                  b"a,1,2,0\nb,1,2,maybe\n\"c\nd\",3,4,1\n"
                  b"e,9,8,0\n\"f\r\ng\",x,1,0\nh,1,2\n"
                  b"\ni,5,6,true\nj,7,8,0\n")

    @pytest.mark.parametrize("block", [1, 3])
    @settings(max_examples=100, deadline=None)
    @given(text=trace_files())
    @example(text=BLOCK_EDGE)
    def test_streaming_parse_matches_the_row_parser_across_blocks(self, tmp_path_factory,
                                                                  block, text):
        # trace_files draws at most 16 rows, so only a small block makes
        # its files cross block edges
        with mock.patch.object(rio, "_TRACE_BLOCK", block):
            self.assert_parsers_agree(tmp_path_factory, text)

    def test_parse_holds_no_row_list(self, tmp_path):
        """Traced peak of parse_trace on a 20,000-row synthesized trace.

        The table itself costs per row a user_id str and its tuple slot,
        two float64 and a bool: about 76 B here. A parser that holds the
        file as csv.reader rows adds at least a rows-list slot and the
        row's list (96 B), and the row's two timestamp strings (134 B) on
        top. The bound is the table plus the bare rows list, about 172 B,
        sized from the file's first data row. The row parser, which held
        the rows and a TraceRecord per row, peaks at about 450 B/row, and
        the same loop run over list(reader) at about 310 B/row; both fail. This
        parser peaks at about 110 B/row: the table, its column buffers'
        growth slack and the copy the table takes of them.
        """
        n = 20_000
        f = tmp_path / "t.csv"
        write_trace_csv(synthesize_trace(n, seed=1, fail_fraction=0.5), f)
        with open(f, newline="") as fh:
            row = list(csv.reader(fh))[1]
        table = 8 + sys.getsizeof(row[0]) + 8 + 8 + 1
        held_row = 8 + sys.getsizeof(row)
        tracemalloc.start()
        try:
            parsed = parse_trace(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(parsed.records) == n
        assert peak < n * (table + held_row)


class TestSynthesisAndReplay:
    def test_synthesize_counts(self):
        records = synthesize_trace(100, seed=1, fail_fraction=0.3)
        assert len(records) == 100
        assert all(r.leave_ts > r.request_ts for r in trace_rows(records))
        flagged = sum(r.fetch_failure for r in trace_rows(records))
        assert 10 <= flagged <= 55

    def test_synthesize_deterministic(self):
        assert trace_rows(synthesize_trace(20, seed=2)) == trace_rows(synthesize_trace(20, seed=2))

    def test_synthesize_validation(self):
        with pytest.raises(ValueError):
            synthesize_trace(-1)
        with pytest.raises(ValueError):
            synthesize_trace(5, fail_fraction=1.5)

    def test_build_trace_peers(self):
        import numpy as np
        trace = trace_columns((TraceRecord("a", 3.0, 10.0), TraceRecord("b", 4.0, 20.0)))
        cfg = SimConfig()
        peers = peer_rows(build_trace_peers(trace, cfg, np.random.default_rng(0)))
        assert [p.id for p in peers] == [0, 1]
        assert peers[0].join_time == 3.0
        assert peers[0].session_duration == 7.0
        assert peers[1].session_duration == 16.0
        assert all(p.city in cfg.city_table for p in peers)

    def test_trace_peer_fields_are_builtin_values(self):
        import numpy as np
        records = synthesize_trace(60, seed=3, fail_fraction=0.2)
        assert {type(u) for u in records.user_id} == {str}
        assert (records.request_ts.dtype, records.leave_ts.dtype, records.fetch_failure.dtype) == (
            np.float64, np.float64, bool)
        # ints and floats of these dtypes come out of tolist() as built-in
        # values, so no numpy scalar leaks into the outcome CSV
        columns = build_trace_peers(records, SimConfig(), np.random.default_rng(1))
        assert {type(c) for c in columns.cities} == {str}
        assert [c.dtype for c in columns[1:]] == [np.int64] * 3 + [np.float64] * 4
        population = engine.Population(columns, FailureScenario(()))
        kept = ("ids", "city", "isp", "uplink", "downlink", "join", "dep", "by_id", "affected",
                "in_region", "cut")
        assert [getattr(population, name).dtype for name in kept] == (
            [np.int64] * 3 + [np.float64] * 4 + [np.int64] + [np.bool_] * 3)

    def test_trace_peers_draw_the_population_attribute_columns(self):
        import numpy as np
        records = synthesize_trace(30, seed=2)
        cfg = SimConfig(peer_count=30)
        columns = build_trace_peers(records, cfg, np.random.default_rng(9))
        drawn = engine.draw_peer_attributes(cfg, np.random.default_rng(9), 30)
        assert columns.cities == tuple(cfg.city_table)
        assert [c.tolist() for c in columns[2:6]] == [c.tolist() for c in drawn]

    def test_synthesize_start_offsets_every_session(self):
        base = synthesize_trace(25, seed=4)
        shifted = synthesize_trace(25, seed=4, start=1000.0)
        for a, b in zip(trace_rows(base), trace_rows(shifted)):
            assert b.request_ts == a.request_ts + 1000.0
            assert b.fetch_failure == a.fetch_failure

    def test_run_trace_failure_rows_enter_relay_phase(self):
        records = synthesize_trace(80, seed=6, fail_fraction=0.25)
        cfg = SimConfig(peer_count=80, rng_seed=0, strategy="no-relay")
        report, outcomes = run_trace(records, cfg)
        flagged = {i for i, r in enumerate(trace_rows(records)) if r.fetch_failure}
        assert report.total_requests == 80
        for o in outcomes:
            if o.requester_id in flagged:
                assert o.entered_relay_phase
                assert o.served_by is None     # no-relay cannot recover
            else:
                assert o.served_by == SERVER

    def test_run_trace_relay_recovers_some(self):
        records = synthesize_trace(120, seed=8, fail_fraction=0.3)
        cfg = SimConfig(peer_count=120, rng_seed=0)
        no_relay, _ = run_trace(records, replace(cfg, strategy="no-relay"))
        path, _ = run_trace(records, replace(cfg, strategy="path-aware"))
        assert path.success_ratio > no_relay.success_ratio

    # Hand-built rows that parse_trace would reject: the table refuses them,
    # so run_trace never replays them.
    @pytest.mark.parametrize("bad, message", [
        (TraceRecord("a", 5.0, 3.0), r"trace row 1 \(user_id 'a'\): leave_ts precedes"),
        (TraceRecord("a", math.nan, 3.0), r"trace row 1 \(user_id 'a'\): non-finite"),
        (TraceRecord("a", 5.0, math.inf), r"trace row 1 \(user_id 'a'\): non-finite"),
        (TraceRecord("", 0.0, 1.0), r"trace row 1 \(user_id ''\): empty user_id"),
        (TraceRecord(" ", 0.0, 1.0), r"trace row 1 \(user_id ' '\): empty user_id"),
    ], ids=["backwards", "nan-request", "inf-leave", "empty-user", "blank-user"])
    def test_trace_columns_refuse_rows_parse_trace_rejects(self, bad, message):
        with pytest.raises(ValueError, match=message):
            trace_columns([TraceRecord("b", 0.0, 10.0), bad])

    def test_run_trace_takes_only_trace_columns(self):
        records = [TraceRecord("b", 0.0, 10.0), TraceRecord("a", 1.0, 5.0)]
        cfg = SimConfig(peer_count=3, strategy="random")
        with pytest.raises(TypeError, match=r"TraceColumns\(user_id, request_ts, leave_ts, "
                                            r"fetch_failure\)"):
            run_trace(records, cfg)
        report, _ = run_trace(trace_columns(records), cfg)
        assert report.total_requests == 2

    def test_run_trace_without_records_raises(self):
        with pytest.raises(ValueError, match="no requests"):
            run_trace(trace_columns(()), SimConfig())

    def test_run_trace_horizon_before_first_request(self):
        records = synthesize_trace(20, seed=1, start=1.7e9)   # epoch seconds
        with pytest.raises(ValueError, match="sim_duration"):
            run_trace(records, SimConfig(sim_duration=3600.0))
        report, _ = run_trace(records, SimConfig())   # unbounded horizon
        assert report.total_requests == 20


class TestSweep:
    def small_cfg(self):
        return SimConfig(peer_count=40, sim_duration=600.0)

    def test_spec_defaults(self):
        spec = SweepSpec()
        assert spec.content_sizes_kb == (500.0, 1000.0, 2000.0, 4000.0,
                                         8000.0, 16000.0)
        assert spec.failure_ratios == (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
        assert spec.strategies == ("no-relay", "random", "path-aware")
        assert spec.cell_count == 6 * 6 * 3

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SweepSpec(content_sizes_kb=())
        with pytest.raises(ValueError):
            SweepSpec(failure_ratios=(1.2,))
        with pytest.raises(ValueError):
            SweepSpec(strategies=("telepathy",))
        for size in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                SweepSpec(content_sizes_kb=(size, 1000.0))
        # a repeated value would run its cells twice and weight them twice
        # in the summary's means
        for axis, values in (("content_sizes_kb", (500.0, 500.0)),
                             ("failure_ratios", (0.0, 0.6, 0.0)),
                             ("strategies", ("random", "random")), ("seeds", (1, 1))):
            with pytest.raises(ValueError, match="distinct"):
                SweepSpec(**{axis: values})
        with pytest.raises(ValueError, match="non-empty"):
            SweepSpec(seeds=())
        for seed in (-1, 1.5, True):
            with pytest.raises(ValueError, match="seeds must be non-negative integers"):
                SweepSpec(seeds=(0, seed))

    def test_cross_product_row_count(self):
        spec = SweepSpec(failure_ratios=(0.6,), seeds=(0,))
        result = run_sweep(spec, self.small_cfg())
        assert len(result.rows) == 18
        assert result.failures == []

    def test_rows_in_nesting_order(self):
        spec = SweepSpec(content_sizes_kb=(500.0, 1000.0),
                         failure_ratios=(0.6,),
                         strategies=("no-relay", "random"), seeds=(0, 1))
        result = run_sweep(spec, self.small_cfg())
        key = [(r["size_kb"], r["strategy"], r["seed"]) for r in result.rows]
        assert key == [(500.0, "no-relay", 0), (500.0, "no-relay", 1),
                       (500.0, "random", 0), (500.0, "random", 1),
                       (1000.0, "no-relay", 0), (1000.0, "no-relay", 1),
                       (1000.0, "random", 0), (1000.0, "random", 1)]

    def test_cell_failures_recorded_not_fatal(self):
        bad_cfg = SimConfig(peer_count=40, pareto_shape=-1.0)
        spec = SweepSpec(content_sizes_kb=(500.0,), failure_ratios=(0.6,),
                         strategies=("no-relay",), seeds=(0,))
        result = run_sweep(spec, bad_cfg)
        assert result.rows == []
        assert len(result.failures) == 1
        assert "pareto_shape" in result.failures[0]["error"]

    def test_rows_match_independent_runs(self):
        spec = SweepSpec(content_sizes_kb=(500.0, 16000.0), failure_ratios=(0.3, 1.0),
                         strategies=("no-relay", "random", "path-aware"), seeds=(2, 5))
        base = self.small_cfg()
        result = run_sweep(spec, base)
        assert result.failures == []
        expected = []
        for size in spec.content_sizes_kb:
            for ratio in spec.failure_ratios:
                for strategy in spec.strategies:
                    for seed in spec.seeds:
                        rep = engine.run(replace(base, content_size_kb=size,
                                                 failure_ratio=ratio, strategy=strategy,
                                                 rng_seed=seed))
                        expected.append((strategy, size, ratio, seed, rep.success_ratio,
                                         rep.primary_success_ratio,
                                         rep.avg_repeated_requests,
                                         rep.affected_success_ratio,
                                         rep.region_success_ratio))
        assert [tuple(r[c] for c in SWEEP_COLUMNS) for r in result.rows] == expected

    def test_shared_draws_match_fresh_cells(self, monkeypatch):
        # Each (ratio, seed, strategy) draws its candidates once, and every
        # size reuses them; each cell must still equal a run of it alone.
        spec = SweepSpec(content_sizes_kb=(500.0, 16000.0), failure_ratios=(0.3, 1.0),
                         strategies=("no-relay", "random", "path-aware"), seeds=(2, 5))
        base = SimConfig(peer_count=150, sim_duration=900.0)
        real_draw, real_run = engine.draw_candidates, Simulation.run
        draws, cells = [], []

        def counting(cfg, population):
            draws.append((cfg.failure_ratio, cfg.rng_seed, cfg.strategy))
            return real_draw(cfg, population)

        def keeping(sim):
            report = real_run(sim)
            cells.append((sim.cfg, report, sim.outcomes))
            return report
        monkeypatch.setattr(engine, "draw_candidates", counting)
        monkeypatch.setattr(Simulation, "run", keeping)
        result = run_sweep(spec, base)
        assert result.failures == [] and len(cells) == spec.cell_count
        assert sorted(draws) == sorted(
            (r, s, t) for r in spec.failure_ratios for s in spec.seeds for t in spec.strategies)
        monkeypatch.undo()
        relay_phase = {"random": 0, "path-aware": 0}
        for cfg, report, outcomes in cells:
            fresh = Simulation(cfg)
            assert fresh.run() == report
            assert list(fresh.outcomes) == list(outcomes)
            if cfg.strategy in relay_phase:
                relay_phase[cfg.strategy] += report.relay_phase_requests
        assert all(relay_phase.values())
        rows = {(r["strategy"], r["size_kb"], r["failure_ratio"], r["seed"]): r
                for r in result.rows}
        for cfg, report, _ in cells:
            row = rows[cfg.strategy, cfg.content_size_kb, cfg.failure_ratio, cfg.rng_seed]
            assert (row["success_ratio"], row["avg_attempts"]) == (
                report.success_ratio, report.avg_repeated_requests)

    def test_one_draw_per_ratio_and_seed(self, monkeypatch):
        draws = []
        real_build = engine.build_population

        def counting(cfg, rng):
            draws.append((cfg.failure_ratio, cfg.rng_seed))
            return real_build(cfg, rng)
        monkeypatch.setattr(engine, "build_population", counting)
        spec = SweepSpec(content_sizes_kb=(500.0, 1000.0, 2000.0), failure_ratios=(0.2, 0.6),
                         strategies=("no-relay", "random", "path-aware"), seeds=(0, 1))
        result = run_sweep(spec, self.small_cfg())
        assert len(result.rows) == spec.cell_count
        assert draws == [(0.2, 0), (0.2, 1), (0.6, 0), (0.6, 1)]

    def test_capacity_error_propagates(self, monkeypatch):
        def broken(self):
            raise CapacityError("peer 3: released more than committed")
        monkeypatch.setattr(Simulation, "run", broken)
        spec = SweepSpec(content_sizes_kb=(500.0,), failure_ratios=(0.6,),
                         strategies=("no-relay",), seeds=(0,))
        with pytest.raises(CapacityError):
            run_sweep(spec, self.small_cfg())

    def test_failing_cells_recorded_once_each(self, monkeypatch):
        real_run = Simulation.run

        def flaky(self):
            if self.cfg.strategy == "random":
                raise RuntimeError("random cell broke")
            return real_run(self)
        monkeypatch.setattr(Simulation, "run", flaky)
        spec = SweepSpec(content_sizes_kb=(500.0, 1000.0), failure_ratios=(0.6,),
                         strategies=("no-relay", "random"), seeds=(0, 1))
        result = run_sweep(spec, self.small_cfg())
        assert [(f["size_kb"], f["seed"]) for f in result.failures] == [
            (500.0, 0), (500.0, 1), (1000.0, 0), (1000.0, 1)]
        assert all(f["strategy"] == "random" for f in result.failures)
        assert all(f["error"] == "RuntimeError: random cell broke"
                   for f in result.failures)
        assert [r["strategy"] for r in result.rows] == ["no-relay"] * 4

    def test_failed_draw_fails_its_group(self, monkeypatch):
        real_draw = engine.draw_population

        def failing(cfg):
            if cfg.rng_seed == 1:
                raise ValueError("population draw broke")
            return real_draw(cfg)
        monkeypatch.setattr(engine, "draw_population", failing)
        spec = SweepSpec(content_sizes_kb=(500.0, 1000.0), failure_ratios=(0.6,),
                         strategies=("no-relay", "path-aware"), seeds=(0, 1))
        result = run_sweep(spec, self.small_cfg())
        assert [(r["size_kb"], r["strategy"]) for r in result.rows] == [
            (500.0, "no-relay"), (500.0, "path-aware"),
            (1000.0, "no-relay"), (1000.0, "path-aware")]
        assert all(r["seed"] == 0 for r in result.rows)
        assert [(f["size_kb"], f["strategy"], f["seed"]) for f in result.failures] == [
            (500.0, "no-relay", 1), (500.0, "path-aware", 1),
            (1000.0, "no-relay", 1), (1000.0, "path-aware", 1)]
        assert all(f["error"].startswith("ValueError:") for f in result.failures)

    def test_csv_strict_rfc4180(self, tmp_path):
        spec = SweepSpec(content_sizes_kb=(500.0,), failure_ratios=(0.6,),
                         seeds=(0,))
        result = run_sweep(spec, self.small_cfg())
        path = tmp_path / "sweep.csv"
        write_sweep_csv(result, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh, strict=True))
        assert tuple(rows[0]) == SWEEP_COLUMNS
        assert len(rows) == 1 + 3
        for row in rows[1:]:
            assert len(row) == len(SWEEP_COLUMNS)
            float(row[4])   # success_ratio parses back

    def test_summary_means_and_std(self):
        spec = SweepSpec(content_sizes_kb=(500.0,), failure_ratios=(0.6,),
                         strategies=("random",), seeds=(0, 1, 2))
        result = run_sweep(spec, self.small_cfg())
        summary = summarize_sweep(result)
        (cell,) = summary["cells"]
        assert cell["seeds"] == 3
        vals = [r["success_ratio"] for r in result.rows]
        mean = sum(vals) / 3
        assert cell["success_ratio_mean"] == pytest.approx(mean)
        var = sum((v - mean) ** 2 for v in vals) / 3
        assert cell["success_ratio_std"] == pytest.approx(math.sqrt(var))

    def test_summary_skips_missing_metrics(self):
        rows = [{"strategy": "no-relay", "size_kb": 500.0, "failure_ratio": 0.6,
                 "seed": 0, "success_ratio": 0.9, "primary_success_ratio": None,
                 "avg_attempts": None, "affected_success_ratio": 0.0,
                 "region_success_ratio": 0.4}]
        summary = summarize_sweep(SweepResult(rows, []))
        (cell,) = summary["cells"]
        assert cell["avg_attempts_mean"] is None
        assert cell["success_ratio_mean"] == 0.9


class TestDumps:
    def test_outcomes_csv(self, tmp_path):
        outs = [RequestOutcome(2, 100.0, 1.0, served_by=None, attempts=3,
                               entered_relay_phase=True, end_time=9.0),
                RequestOutcome(1, 100.0, 0.5, served_by=SERVER, end_time=2.5)]
        path = tmp_path / "outcomes.csv"
        write_outcomes_csv(outcomes_table(outs), path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh, strict=True))
        assert tuple(rows[0]) == OUTCOME_COLUMNS
        assert rows[1][0] == "1"            # sorted by requester id
        assert rows[1][4] == SERVER
        assert rows[2][4] == ""             # unserved -> empty cell
        assert rows[2][5] == "3"

    @settings(max_examples=60, deadline=None)
    @given(outcome_tables())
    def test_outcomes_csv_bytes_match_the_row_writer(self, tmp_path_factory, table):
        # The block writer against csv.writer fed one RequestOutcome row at a
        # time: no rows, fewer rows than a block and more than one block.
        rows = list(table)
        for o in rows:
            assert type(o.requester_id) is int and type(o.attempts) is int
            assert type(o.size_kb) is type(o.start_time) is type(o.end_time) is float
            assert type(o.entered_relay_phase) is bool
            assert o.served_by in (SERVER, None) or type(o.served_by) is int
        out = tmp_path_factory.mktemp("outcomes")
        write_outcomes_csv(table, out / "blocks.csv")
        write_outcomes_csv_rows(rows, out / "rows.csv")
        assert (out / "blocks.csv").read_bytes() == (out / "rows.csv").read_bytes()

    def test_metrics_json(self, tmp_path):
        from relaysim.engine import collect_metrics
        from relaysim.io import write_metrics_json
        rep = collect_metrics(outcomes_table([RequestOutcome(0, 1.0, 0.0, served_by=SERVER)]))
        path = tmp_path / "metrics.json"
        write_metrics_json(rep, path)
        payload = json.loads(path.read_text())
        assert payload["success_ratio"] == 1.0
        assert list(payload) == sorted(payload)


class TestCli:
    @pytest.fixture(autouse=True)
    def no_seed_env(self, monkeypatch):
        """An exported RELAYSIM_SEED moves the default seed and stops sweep."""
        monkeypatch.delenv("RELAYSIM_SEED", raising=False)

    def run_flags(self):
        return ["--peers", "40", "--seed", "0", "--set", "sim_duration=600"]

    def sweep_flags(self):
        """run_flags less --seed, which sweep refuses (its cells read --seeds)."""
        return ["--peers", "40", "--set", "sim_duration=600"]

    def test_usage_error_exit_2(self, capsys):
        assert main([]) == 2
        assert main(["run", "--bogus-flag"]) == 2

    def test_run_prints_metrics(self, capsys):
        assert main(["run", *self.run_flags()]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total_requests"] == 40

    def test_run_writes_outputs(self, tmp_path, capsys):
        prefix = str(tmp_path / "demo")
        assert main(["run", *self.run_flags(), "--out", prefix]) == 0
        assert (tmp_path / "demo_outcomes.csv").exists()
        assert json.loads((tmp_path / "demo_metrics.json").read_text())

    def test_run_without_requests_exit_2(self, tmp_path, capsys):
        # a horizon before the first join issues no request
        prefix = tmp_path / "demo"
        assert main(["run", "--peers", "200", "--set", "sim_duration=0.5",
                     "--out", str(prefix)]) == 2
        first = engine.draw_population(SimConfig(peer_count=200)).join.min().item()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (f"sim_duration 0.5 s ends before the first request at {first!r} s"
                in captured.err)
        assert not list(tmp_path.iterdir())

    def test_sweep_without_requests_exit_1(self, tmp_path, capsys):
        # every cell of the sweep issues no request, so each one fails
        out = tmp_path / "s.csv"
        assert main(["sweep", "--peers", "50", "--sizes", "500", "--strategies", "random",
                     "--seeds", "1", "--set", "sim_duration=0.5", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.count("sim_duration 0.5 s ends before the first request") == 6
        assert "wrote 0 rows" in captured.out
        assert out.read_text().splitlines() == [",".join(SWEEP_COLUMNS)]

    def test_config_error_exit_2(self, capsys):
        assert main(["run", "--set", "alpha=1.5"]) == 2
        assert "alpha" in capsys.readouterr().err

    def test_failure_window_after_the_horizon_exit_2(self, capsys):
        assert main(["run", "--set", "sim_duration=100", "--set", "failure_start=200",
                     "--set", "failure_end=300", "--set", "peer_count=200"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config error: failure_start: must not come after sim_duration" in captured.err

    def test_unknown_config_key_exit_2(self, capsys):
        assert main(["run", "--set", "warpdrive=1"]) == 2

    def test_sweep_sizes_are_no_config_key_exit_2(self, tmp_path, capsys):
        # the sweep's size axis is set by --sizes alone
        assert main(["sweep", "--set", "content_sizes_kb=500,1000",
                     "--out", str(tmp_path / "s.csv")]) == 2
        assert capsys.readouterr().err == "config error: unknown config key 'content_sizes_kb'\n"

    def test_city_file_out_of_range_exit_2(self, tmp_path, capsys):
        cities = tmp_path / "cities.csv"
        cities.write_text("name,lat,lon\nBeijing,91.0,116.4\nWuhan,30.59,114.31\n")
        assert main(["run", "--set", f"city_file={cities}", "--peers", "50"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "config error: city_table[Beijing]: coordinates out of range\n"

    def test_run_nan_size_exit_2(self, capsys):
        assert main(["run", *self.run_flags(), "--size", "nan"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config error: content_size_kb" in captured.err

    def test_sweep_nan_size_exit_2(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert main(["sweep", *self.sweep_flags(), "--sizes", "nan,1000",
                     "--out", str(out)]) == 2
        assert "content sizes must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("axis, message", [
        (["--seeds", "1,1"], "sweep seeds must be non-empty and distinct"),
        (["--sizes", "500,500.0"], "sweep content sizes must be non-empty and distinct"),
        (["--seeds", ""], "--seeds '' has an empty value"),
        (["--sizes", ""], "--sizes '' has an empty value"),
        (["--ratios", "0.5,"], "--ratios '0.5,' has an empty value"),
        (["--strategies", " "], "--strategies ' ' has an empty value"),
    ])
    def test_sweep_bad_axis_exit_2(self, tmp_path, capsys, axis, message):
        out, summary = tmp_path / "s.csv", tmp_path / "s.json"
        flags = {"--sizes": "500", "--ratios": "0.5"}
        flags[axis[0]] = axis[1]
        assert main(["sweep", *self.sweep_flags(), *[v for kv in flags.items() for v in kv],
                     "--out", str(out), "--summary", str(summary)]) == 2
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""
        assert not out.exists() and not summary.exists()

    @pytest.mark.parametrize("flag, value, axis", [
        ("--seed", "7", "--seeds"), ("--strategy", "random", "--strategies"),
        ("--size", "500", "--sizes"), ("--failure-ratio", "0.6", "--ratios")])
    def test_sweep_one_value_flag_exit_2(self, tmp_path, capsys, monkeypatch, flag, value,
                                         axis):
        # a cell sets this field from its axis, so the flag would be lost
        def refuse(*args, **kwargs):
            raise AssertionError("the sweep ran")
        monkeypatch.setattr(rio, "run_sweep", refuse)
        out, summary = tmp_path / "s.csv", tmp_path / "s.json"
        assert main(["sweep", *self.sweep_flags(), flag, value, "--sizes", "500",
                     "--ratios", "0.6", "--out", str(out), "--summary", str(summary)]) == 2
        captured = capsys.readouterr()
        assert f"from {axis}, not {flag}" in captured.err and captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_sweep_seed_env_exit_2(self, tmp_path, capsys, monkeypatch):
        # the cells take their seeds from --seeds, so the variable would be lost
        def refuse(*args, **kwargs):
            raise AssertionError("the sweep ran")
        monkeypatch.setattr(rio, "run_sweep", refuse)
        monkeypatch.setenv("RELAYSIM_SEED", "7")
        out, summary = tmp_path / "s.csv", tmp_path / "s.json"
        assert main(["sweep", *self.sweep_flags(), "--sizes", "500", "--ratios", "0.6",
                     "--out", str(out), "--summary", str(summary)]) == 2
        captured = capsys.readouterr()
        assert "from --seeds, not RELAYSIM_SEED" in captured.err and captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_trace_nan_latency_exit_2(self, tmp_path, capsys):
        trace = tmp_path / "t.csv"
        write_trace_csv(synthesize_trace(20, seed=1), trace)
        assert main(["trace", "--file", str(trace), "--set", "latency_base_ms=nan"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config error: latency_base_ms" in captured.err

    @pytest.mark.parametrize("field,value", [
        ("zeta", "2.5"), ("peer_count", "50.5"), ("isp_count", "1.5")])
    @pytest.mark.parametrize("command", ["run", "sweep", "trace"])
    def test_non_integer_count_exit_2(self, command, field, value, tmp_path, capsys):
        extra = {"run": [], "sweep": ["--out", str(tmp_path / "s.csv")],
                 "trace": ["--file", str(tmp_path / "t.csv"), "--synthesize", "5"]}
        assert main([command, "--set", f"{field}={value}", *extra[command]]) == 2
        assert field in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, env, message", [
        (["run", "--seed", "-1"], None, "config error: rng_seed: must be non-negative"),
        (["run"], "-3", "config error: rng_seed: must be non-negative"),
        (["trace", "--synthesize", "10", "--seed", "-1"], None,
         "config error: rng_seed: must be non-negative"),
        (["sweep", "--seeds", "-1", "--peers", "50", "--sizes", "500", "--ratios", "0.6"],
         None, "error: sweep seeds must be non-negative"),
    ])
    def test_negative_seed_exit_2(self, command, env, message, tmp_path, capsys,
                                  monkeypatch):
        if env is not None:
            monkeypatch.setenv("RELAYSIM_SEED", env)
        out = {"run": ["--out", str(tmp_path / "r")], "sweep": ["--out", str(tmp_path / "s.csv")],
               "trace": ["--file", str(tmp_path / "t.csv")]}[command[0]]
        assert main([*command, *out]) == 2
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_sweep_grid_and_determinism(self, tmp_path, capsys):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        flags = ["sweep", *self.sweep_flags(),
                 "--sizes", "500,16000", "--ratios", "0.6",
                 "--strategies", "path-aware,random,no-relay", "--seeds", "0"]
        assert main([*flags, "--out", str(out1)]) == 0
        assert main([*flags, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        with open(out1, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 6

    def test_sweep_summary_file(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        summary = tmp_path / "s.json"
        assert main(["sweep", *self.sweep_flags(), "--sizes", "500",
                     "--ratios", "0.6", "--seeds", "0,1",
                     "--out", str(out), "--summary", str(summary)]) == 0
        payload = json.loads(summary.read_text())
        assert len(payload["cells"]) == 3
        assert all(c["seeds"] == 2 for c in payload["cells"])

    def test_trace_synthesize_then_replay(self, tmp_path, capsys):
        trace = tmp_path / "t.csv"
        assert main(["trace", "--file", str(trace), "--synthesize", "60",
                     "--seed", "3"]) == 0
        capsys.readouterr()
        assert main(["trace", "--file", str(trace), "--peers", "60",
                     "--seed", "0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total_requests"] == 60

    def test_trace_synthesize_seed_follows_the_config(self, tmp_path, capsys, monkeypatch):
        def synthesize(*flags):
            trace = tmp_path / "t.csv"
            assert main(["trace", "--file", str(trace), "--synthesize", "30", *flags]) == 0
            return trace.read_bytes()

        default = synthesize()
        by_flag = synthesize("--seed", "5")
        by_set = synthesize("--set", "rng_seed=5")
        cfg_file = tmp_path / "seed.cfg"
        cfg_file.write_text("rng_seed = 5\n")
        by_file = synthesize("--config", str(cfg_file))
        monkeypatch.setenv("RELAYSIM_SEED", "5")
        by_env = synthesize()
        assert by_flag == by_set == by_file == by_env != default
        write_trace_csv(synthesize_trace(30, seed=SimConfig().rng_seed), tmp_path / "ref.csv")
        assert default == (tmp_path / "ref.csv").read_bytes()

    def test_trace_synthesize_follows_the_session_model(self, tmp_path, capsys):
        def sessions(*flags):
            trace = tmp_path / "t.csv"
            assert main(["trace", "--file", str(trace), "--synthesize", "5", *flags]) == 0
            records = trace_rows(parse_trace(trace).records)
            return [r.request_ts for r in records], [r.duration for r in records]

        joins, durations = sessions()
        # a thirtieth of the default rate: the same gaps, each 30 times as long
        slow_joins, slow_durations = sessions("--set", "arrival_rate_lambda=1")
        assert slow_joins != joins
        assert slow_joins == pytest.approx([30.0 * t for t in joins])
        assert slow_durations == pytest.approx(durations)
        for field in ("pareto_shape=2", "pareto_scale_min=1"):
            other_joins, other_durations = sessions("--set", field)
            assert other_joins == joins and other_durations != pytest.approx(durations)

    @pytest.mark.parametrize("source", ["config", "set", "seed"])
    def test_explicit_seed_beats_the_environment(self, source, tmp_path, capsys,
                                                 monkeypatch):
        def synthesize(*flags):
            trace = tmp_path / "t.csv"
            assert main(["trace", "--file", str(trace), "--synthesize", "30", *flags]) == 0
            return trace.read_bytes()

        cfg_file = tmp_path / "seed.cfg"
        cfg_file.write_text("rng_seed = 7\n")
        flags = {"config": ["--config", str(cfg_file)], "set": ["--set", "rng_seed=7"],
                 "seed": ["--seed", "7"]}[source]
        seven, five = synthesize("--seed", "7"), synthesize("--seed", "5")
        monkeypatch.setenv("RELAYSIM_SEED", "5")
        assert synthesize(*flags) == seven != five

    def test_trace_past_horizon_exit_2(self, tmp_path, capsys):
        trace = tmp_path / "epoch.csv"
        write_trace_csv(synthesize_trace(30, seed=2, start=1.7e9), trace)
        default_cfg = Path(__file__).resolve().parent.parent / "configs" / "default.cfg"
        assert main(["trace", "--file", str(trace), "--config", str(default_cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "sim_duration" in captured.err

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_trace_synthesize_nothing_exit_2(self, count, tmp_path, capsys):
        trace = tmp_path / "t.csv"
        assert main(["trace", "--file", str(trace), "--synthesize", count]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--synthesize needs at least 1 session, got {count}" in captured.err
        assert not trace.exists()

    def test_trace_header_only_exit_2(self, tmp_path, capsys):
        trace = tmp_path / "empty.csv"
        trace.write_text(",".join(TRACE_COLUMNS) + "\n")
        assert main(["trace", "--file", str(trace)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no requests" in captured.err

    def test_trace_non_finite_row_skipped_with_warning(self, tmp_path, capsys):
        trace = tmp_path / "nan.csv"
        trace.write_text(",".join(TRACE_COLUMNS) + "\nu0,0,100,0\nu1,nan,nan,1\nu2,5,50,1\n")
        assert main(["trace", "--file", str(trace)]) == 0
        captured = capsys.readouterr()
        assert f"{trace}:3: bad timestamp" in captured.err
        assert json.loads(captured.out)["total_requests"] == 2

    def test_trace_missing_file_exit_1(self, capsys):
        assert main(["trace", "--file", "/nonexistent/trace.csv"]) == 1

    def test_calibrate_defaults(self, capsys):
        assert main(["calibrate"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["shape_a"] == pytest.approx(0.6020599913279624)
        assert payload["scale_x_m_minutes"] == pytest.approx(0.2182910614043151)

    def test_calibrate_bad_quantiles_exit_2(self, capsys):
        assert main(["calibrate", "--q1", "1:0.9", "--q2", "10:0.6"]) == 2

    def test_solve_exact(self, tmp_path, capsys):
        inst = tmp_path / "m.csv"
        inst.write_text("10.0,8.0\n10.0,8.0\n9.0,1.0\n")
        assert main(["solve", "--matrix", str(inst), "--exact"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["objective"] == 17.0
        assert payload["assignment"] == [1, 0]

    def test_solve_greedy(self, tmp_path, capsys):
        inst = tmp_path / "m.csv"
        inst.write_text("10.0,8.0\n10.0,8.0\n9.0,1.0\n")
        assert main(["solve", "--matrix", str(inst), "--greedy"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["objective"] == 11.0

    def test_solve_infeasible_exit_1(self, tmp_path, capsys):
        inst = tmp_path / "m.csv"
        inst.write_text("1.0\n5.0\n")
        assert main(["solve", "--matrix", str(inst), "--exact"]) == 1
        assert "infeasible" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["--exact", "--greedy"])
    def test_solve_caps_only_exit_2(self, tmp_path, capsys, method):
        # the library solves a 0-row instance; the command refuses to
        # print its empty assignment as a result
        inst = tmp_path / "m.csv"
        inst.write_text("3.0,4.0\n")
        assert main(["solve", "--matrix", str(inst), method]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "no benefit rows" in out.err


class TestGoldenOutputs:
    """Pinned digests of small outputs: any change to a random stream, or
    to the protocol, changes one of them. Update them only together with
    an announced behaviour change. The relay-strategy digests last moved
    when the selection stream became one block per population, read one
    row per relay-phase requester by the sequential pick; no-relay and the
    trace did not move."""

    CFG = SimConfig(peer_count=150, failure_ratio=0.6, sim_duration=1800.0,
                    content_size_kb=4000.0, rng_seed=7)
    OUTCOMES = {
        "no-relay": "86a49e06f854ecfac8bc449f784670ed4bbb1c0e260ed48ab089fbd6500e4e36",
        "random": "1b99984c0647b77b2b2818ed5072dd04312612a02700338ce7d4cdf61fec8fb8",
        "path-aware": "1034494e9a3b7e07297c870061d3e5cc2b085072658429f97de91d71fd53f9c8",
    }
    TRACE = "5c3b3f9af142f377b33e49865e623a136f0e73a46da548952842110fc1866b6f"

    # A failure window that opens and closes inside the run, with the
    # count workload filter.
    WINDOW_CFG = replace(CFG, peer_count=600, failure_start=200.0, failure_end=900.0,
                         workload_mode="count", strategy="path-aware")
    WINDOW_OUTCOMES = "fa053c124d5849ad105dda90d6bc6d98bfc698fc11a92ad3889a7366ce86e9c6"

    def outcomes_digest(self, cfg, tmp_path):
        sim = Simulation(cfg)
        sim.run()
        write_outcomes_csv(sim.outcomes, tmp_path / "o.csv")
        return hashlib.sha256((tmp_path / "o.csv").read_bytes()).hexdigest()

    @pytest.mark.parametrize("strategy", sorted(OUTCOMES))
    def test_outcomes_csv_digest(self, strategy, tmp_path):
        digest = self.outcomes_digest(replace(self.CFG, strategy=strategy), tmp_path)
        assert digest == self.OUTCOMES[strategy]

    def test_finite_window_count_mode_digest(self, tmp_path):
        assert self.outcomes_digest(self.WINDOW_CFG, tmp_path) == self.WINDOW_OUTCOMES

    def test_synthesized_trace_digest(self, tmp_path):
        write_trace_csv(synthesize_trace(40, seed=5, fail_fraction=0.3), tmp_path / "t.csv")
        assert hashlib.sha256((tmp_path / "t.csv").read_bytes()).hexdigest() == self.TRACE

    # Trace replay of records listed out of join order: a peer's id is its
    # record's position, so ids differ from issue rows.
    TRACE_OUTCOMES = {
        "path-aware": "294c5c4373424e2933a8d5037eb96a0bdde4ac7bfeb4f76dfc0a8585638c2173",
        "random": "b646be7a6fb2df1d9221d73d3b93e3c3c3ced678a9f432c920fea876a6353dff",
    }

    @pytest.mark.parametrize("strategy", sorted(TRACE_OUTCOMES))
    def test_trace_replay_outcomes_csv_digest(self, strategy, tmp_path):
        import numpy as np
        records = trace_rows(synthesize_trace(300, seed=5, fail_fraction=0.5))
        shuffled = [records[i] for i in np.random.default_rng(3).permutation(300).tolist()]
        _, outcomes = run_trace(trace_columns(shuffled),
                                replace(self.CFG, strategy=strategy))
        assert outcomes.entered_relay_phase.any() and (outcomes.served_by >= 0).any()
        write_outcomes_csv(outcomes, tmp_path / "o.csv")
        digest = hashlib.sha256((tmp_path / "o.csv").read_bytes()).hexdigest()
        assert digest == self.TRACE_OUTCOMES[strategy]
