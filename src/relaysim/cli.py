"""The relaysim command line: run / sweep / trace / calibrate / solve.

The subcommands share the config flags (--config, --set, --seed and the
one-field flags), and read and write the file formats of relaysim.io.
Exit status: 0 on success; 1 when a sweep cell fails, a solve is
infeasible or a file cannot be opened; 2 on a usage, config or input
error, with the message on stderr. Only the command line imports this
module, so a run or replay does not load argparse.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import relaysim.io as rio
from relaysim import churn, selection
from relaysim.churn import calibrate_pareto
from relaysim.engine import MetricsReport, Simulation
from relaysim.model import STRATEGIES, ConfigError, SimConfig, validate_config


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
        raw.update(rio.load_config_file(args.config))
    for pair in args.set:
        if "=" not in pair:
            raise ConfigError([f"--set expects KEY=VALUE, got {pair!r}"])
        key, val = pair.split("=", 1)
        raw[key.strip()] = val.strip()
    cfg = rio.apply_overrides(SimConfig(), raw)
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
        rio.write_outcomes_csv(outcomes, f"{args.out}_outcomes.csv")
        rio.write_metrics_json(report, f"{args.out}_metrics.json")
    _print_json(report.to_dict())
    return 0


def _cmd_run(args) -> int:
    sim = Simulation(build_config(args))
    report = sim.run()
    if not report.total_requests:
        raise rio._no_requests(sim.cfg, sim.population)
    return _report(args, report, sim.outcomes)


def _cmd_sweep(args) -> int:
    # Each cell sets these fields from its axes, so the one-value flags, a
    # --set of the field and RELAYSIM_SEED would be lost.
    set_keys = {pair.split("=", 1)[0].strip() for pair in args.set}
    for flag, field, axis in (("seed", "rng_seed", "seeds"),
                              ("strategy", "strategy", "strategies"),
                              ("size", "content_size_kb", "sizes"),
                              ("failure_ratio", "failure_ratio", "ratios")):
        if getattr(args, flag) is not None:
            raise ValueError(f"sweep takes its {axis} from --{axis}, not "
                             f"--{flag.replace('_', '-')}")
        if field in set_keys:
            raise ValueError(f"sweep takes its {axis} from --{axis}, not --set {field}")
    if os.environ.get("RELAYSIM_SEED"):
        raise ValueError("sweep takes its seeds from --seeds, not RELAYSIM_SEED")
    cfg = build_config(args)
    kwargs = {}
    for flag, field, parse in (("sizes", "content_sizes_kb", float),
                               ("ratios", "failure_ratios", float),
                               ("strategies", "strategies", str), ("seeds", "seeds", int)):
        raw = getattr(args, flag)
        if raw is not None:
            values = [v.strip() for v in raw.split(",")]
            if not all(values):
                raise ValueError(f"--{flag} {raw!r} has an empty value")
            kwargs[field] = tuple(map(parse, values))
    result = rio.run_sweep(rio.SweepSpec(**kwargs), cfg)
    rio.write_sweep_csv(result, args.out)
    if args.summary:
        with open(args.summary, "w") as fh:
            json.dump(rio.summarize_sweep(result), fh, indent=2, sort_keys=True)
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
        records = rio.synthesize_trace(args.synthesize, cfg.rng_seed, args.fail_fraction, cfg=cfg)
        rio.write_trace_csv(records, args.file)
        print(f"wrote {len(records)} sessions to {args.file}")
        return 0
    parsed = rio.parse_trace(args.file)
    for lineno, msg in parsed.errors:
        print(f"warning: {args.file}:{lineno}: {msg}", file=sys.stderr)
    return _report(args, *rio.run_trace(parsed.records, cfg))


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
    except (rio.TraceFormatError, churn.CalibrationError, ValueError) as exc:
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
