"""Per-layer tracing for the benchmark's traced run.

The tracer replaces public relaysim functions at the names their callers
look them up by (a module attribute, or a method on a class) with wrappers
that add each call's inclusive time, self time and call count to an
in-memory table. Self time is a call's duration minus the time its traced
children took, so the self times of everything inside a span add up to
that span's duration. Individual calls of the wrapped functions are not
kept, only the per-name totals, which bounds memory on million-call runs;
the benchmark's own spans (bench.setup, bench.run, ...) are kept one by one
with start, end and parent.

restore() puts every original back; the untraced run never installs a
wrapper and only records the benchmark's own spans.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from time import perf_counter

# Wrapped functions: (metric name, owner path, attribute). The owner is where
# the caller looks the name up, so `from x import f` call sites are patched in
# the importing module. Several owners may feed one metric name.
TIMED = (
    ("engine.Simulation.__init__", "relaysim.engine:Simulation", "__init__"),
    ("engine.build_population", "relaysim.engine", "build_population"),
    ("churn.sample", "relaysim.churn", "sample_interarrival"),
    ("churn.sample", "relaysim.churn", "sample_session_duration"),
    ("netsim.assign_bandwidth", "relaysim.engine", "assign_bandwidth"),
    ("netsim.assign_bandwidth", "relaysim.io", "assign_bandwidth"),
    ("netsim.inject_failure", "relaysim.engine", "inject_failure"),
    ("engine.Simulation.run", "relaysim.engine:Simulation", "run"),
    ("engine.collect_metrics", "relaysim.engine", "collect_metrics"),
    ("selection.generate_relay_list", "relaysim.engine", "generate_relay_list"),
    ("selection.random_relay_list", "relaysim.engine", "random_relay_list"),
    ("selection.solve_exact", "relaysim.selection", "solve_exact"),
    ("selection.solve_greedy", "relaysim.selection", "solve_greedy"),
    ("kernels.exact_best", "relaysim.kernels", "exact_best"),
    ("kernels.greedy_assign", "relaysim.kernels", "greedy_assign"),
    ("io.parse_trace", "relaysim.io", "parse_trace"),
    ("io.build_trace_peers", "relaysim.io", "build_trace_peers"),
    ("io.run_trace", "relaysim.io", "run_trace"),
    ("io.run_sweep", "relaysim.io", "run_sweep"),
    ("io.summarize_sweep", "relaysim.io", "summarize_sweep"),
    ("io.write_sweep_csv", "relaysim.io", "write_sweep_csv"),
    ("io.write_outcomes_csv", "relaysim.io", "write_outcomes_csv"),
    ("io.write_metrics_json", "relaysim.io", "write_metrics_json"),
    ("io.load_instance", "relaysim.selection", "load_instance"),
)

# Metric names whose calls are split by the benchmark's current tag
# (the greedy capacity regime), reported as <name>.<tag>.
TAGGED = {"kernels.greedy_assign": ("loose", "tight")}

# Small functions called per candidate or per run: counted, not timed, so the
# wrapper adds little to their callers' self time.
COUNTED = (
    ("churn.estimate_time_to_stay", "relaysim.selection", "estimate_time_to_stay"),
    ("model.validate_config", "relaysim.engine", "validate_config"),
    ("model.validate_config", "relaysim.io", "validate_config"),
)

BENCH_SPANS = ("bench.setup", "bench.run", "bench.write")

# Counters derived from what the wrapped calls return.
DERIVED = (
    ("selection.candidates_per_list", "count", "lower"),
    ("selection.candidates_tried_ratio", "ratio", "higher"),
    ("engine.requests", "count", "higher"),
    ("engine.relay_phase_requests", "count", "lower"),
    ("engine.served_by_relay", "count", "higher"),
    ("engine.relay_attempts", "count", "lower"),
    ("engine.relay_attempt_yield", "ratio", "higher"),
)


def timed_names() -> list[str]:
    names = []
    for name, _, _ in TIMED:
        for full in ([f"{name}.{t}" for t in TAGGED[name]] if name in TAGGED else [name]):
            if full not in names:
                names.append(full)
    return names + list(BENCH_SPANS)


def per_layer_units() -> dict[str, tuple[str, str]]:
    """Every metric the traced child reports: name -> (unit, better)."""
    out = {}
    for name in timed_names():
        out[f"{name}.s"] = ("s", "lower")
        out[f"{name}.self_s"] = ("s", "lower")
        out[f"{name}.calls"] = ("count", "lower")
    for name, _, _ in COUNTED:
        out[f"{name}.calls"] = ("count", "lower")
    for name, unit, better in DERIVED:
        out[name] = (unit, better)
    return out


def _resolve(owner_path: str):
    import importlib
    module, _, cls = owner_path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Tracer:
    """Span and call-count recorder; wrappers are installed by install()."""

    def __init__(self):
        self.stats: dict[str, list] = {}   # name -> [s, self_s, calls]
        self.counts: dict[str, int] = {}
        self.spans: list[dict] = []
        self.tag: str | None = None
        self.candidate_lists = 0
        self.candidates = 0
        self.reports: list = []            # (MetricsReport, outcomes) per run
        self._stack: list[float] = []      # child time of each open frame
        self._open_spans: list[str] = []
        self._patches: list[tuple] = []

    # -- recording --------------------------------------------------------

    def _enter(self) -> float:
        self._stack.append(0.0)
        return perf_counter()

    def _exit(self, name: str, t0: float) -> float:
        dt = perf_counter() - t0
        child = self._stack.pop()
        rec = self.stats.get(name)
        if rec is None:
            rec = self.stats[name] = [0.0, 0.0, 0]
        rec[0] += dt
        rec[1] += dt - child
        rec[2] += 1
        if self._stack:
            self._stack[-1] += dt
        return dt

    @contextmanager
    def span(self, name: str):
        """A benchmark span: kept individually and counted like a call."""
        parent = self._open_spans[-1] if self._open_spans else None
        self._open_spans.append(name)
        t0 = self._enter()
        try:
            yield
        finally:
            dt = self._exit(name, t0)
            self._open_spans.pop()
            self.spans.append({"name": name, "start": t0, "end": t0 + dt,
                               "parent": parent})

    @contextmanager
    def tagged(self, tag: str):
        self.tag = tag
        try:
            yield
        finally:
            self.tag = None

    def total_self_s(self) -> float:
        return sum(rec[1] for rec in self.stats.values())

    # -- wrappers ---------------------------------------------------------

    def _timed(self, name: str, fn, on_result=None):
        tracer = self
        tagged = name in TAGGED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = f"{name}.{tracer.tag}" if tagged else name
            t0 = tracer._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(key, t0)
            if on_result is not None:
                on_result(result, args)
            return result
        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _on_candidates(self, result, args) -> None:
        self.candidate_lists += 1
        self.candidates += len(result)

    def _on_run(self, result, args) -> None:
        self.reports.append((result, args[0].outcomes))

    def install(self) -> None:
        hooks = {"selection.generate_relay_list": self._on_candidates,
                 "selection.random_relay_list": self._on_candidates,
                 "engine.Simulation.run": self._on_run}
        for name, owner_path, attr in TIMED:
            self._patch(owner_path, attr,
                        lambda fn, n=name: self._timed(n, fn, hooks.get(n)))
        for name, owner_path, attr in COUNTED:
            self._patch(owner_path, attr, lambda fn, n=name: self._counted(n, fn))

    def _patch(self, owner_path: str, attr: str, make) -> None:
        owner = _resolve(owner_path)
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- report -----------------------------------------------------------

    def per_layer(self) -> dict[str, float]:
        """Every per-layer metric; functions the workload never called read 0."""
        out = {}
        for name in timed_names():
            s, self_s, calls = self.stats.get(name, (0.0, 0.0, 0))
            out[f"{name}.s"] = s
            out[f"{name}.self_s"] = self_s
            out[f"{name}.calls"] = calls
        for name, _, _ in COUNTED:
            out[f"{name}.calls"] = self.counts.get(name, 0)
        requests = relay_phase = by_relay = attempts = 0
        for report, outcomes in self.reports:
            requests += report.total_requests
            relay_phase += report.relay_phase_requests
            by_relay += report.served_by_relay
            attempts += sum(o.attempts for o in outcomes)
        out["selection.candidates_per_list"] = (
            self.candidates / self.candidate_lists if self.candidate_lists else 0.0)
        out["selection.candidates_tried_ratio"] = (
            attempts / self.candidates if self.candidates else 0.0)
        out["engine.requests"] = requests
        out["engine.relay_phase_requests"] = relay_phase
        out["engine.served_by_relay"] = by_relay
        out["engine.relay_attempts"] = attempts
        out["engine.relay_attempt_yield"] = by_relay / attempts if attempts else 0.0
        return out
