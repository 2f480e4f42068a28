"""relaysim benchmark: one workload, repeated in fresh single-threaded processes.

Generates the workload's inputs from --seed, then runs repetitions, each in
a new `worker.py` process pinned to one CPU, until --seconds have passed
(at least three; a repetition is not started when less than half of a
typical one's time is left). Every repetition sets up, runs, writes and
checks the program's outputs. A host-speed probe (hostspeed.py) shares
the worker's CPU, and every time below is divided by the probe's speed
factor over the same window, so it reads as seconds at the probe's
reference speed. The end-to-end metrics are the medians over the
repetitions:

  wall_s          spawn of the process to outputs written (checks excluded)
  setup_s         spawn to the main entry call: interpreter start, import,
                  config, input parse and Simulation construction
  run_s           time inside the main entry calls
  requests_per_s  requests simulated (or requester rows solved) per run_s
  peak_rss_mb     peak resident set size of the repetition's process

Failed operations (cells, runs, solver calls that raise or fail a check)
are the `failed` count against `attempted` in the result line.

With --trace 1 the repetitions alternate untraced and traced, and the
result holds the per-layer metrics (medians over the traced repetitions)
plus trace_overhead_ratio, the traced over the untraced median wall_s.

The last line of stdout is the JSON result; the lines before it give each
repetition (times at the reference speed, measured times and the speed
factor), failed checks, the run manifest (machine, versions, kernel
backend, pinned CPU, git commit, seed, held-out seed), the benchmark's own
spans of each traced repetition and the output digest.

Usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from hostspeed import HostSpeed
from tracing import per_layer_units
from workloads import HELD_OUT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_REPS = 3
MIN_TRACED_PAIRS = 2
DEADLINE_S = 170.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "run_s": "s",
              "requests_per_s": "1/s", "peak_rss_mb": "MB"}

# Per-layer metrics the parent adds to the traced table.
PER_LAYER_BENCH = {
    "bench.trace_overhead_ratio": ("ratio", "lower"),
    "bench.error_ratio": ("ratio", "lower"),
    # First 32 bits of the output digest: equal values mean equal outputs.
    "bench.output_digest32": ("hash", "lower"),
}

SINGLE_THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                     "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
                     "PYTHONHASHSEED": "0"}


def per_layer_metrics() -> dict[str, tuple[str, str]]:
    """Every metric of a traced run: name -> (unit, better)."""
    return {**per_layer_units(), **PER_LAYER_BENCH}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root: Path) -> str:
    """HEAD of the checkout's git directory, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def manifest(workload: str, seed: int) -> dict:
    import importlib.util
    return {
        "workload": workload, "seed": seed, "held_out_seed": HELD_OUT_SEED,
        "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numba_present": importlib.util.find_spec("numba") is not None,
        "git_commit": git_commit(ROOT),
    }


def spawn(workload: str, workdir: Path, trace: bool, deadline: float, cpu: int) -> dict:
    """Run one repetition pinned to `cpu`; returns its measured timings
    (time.monotonic stamps and spans), or {'error': ...}."""
    outdir = Path(tempfile.mkdtemp(prefix="out-", dir=workdir))
    env = dict(os.environ, **SINGLE_THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--workdir", str(workdir), "--outdir", str(outdir), "--trace", str(int(trace))]
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - t_spawn),
                              preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    except subprocess.TimeoutExpired:
        return {"error": "repetition timed out"}
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    try:
        rep = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"error": f"worker exited {proc.returncode}: {proc.stderr[-2000:]}"}
    if "error" in rep:
        return rep
    rep["t_spawn"] = t_spawn
    return rep


def at_reference_speed(rep: dict, speed: HostSpeed) -> None:
    """Adds the end-to-end times of one repetition, each divided by the
    host-speed factor over its own window."""
    windows = {"wall_s": (rep["t_spawn"], rep["t_write"]),
               "setup_s": (rep["t_spawn"], rep["t_setup"]),
               "run_s": (rep["t_setup"], rep["t_run"])}
    for name, (start, end) in windows.items():
        rep["measured_" + name] = end - start
        rep[name] = (end - start) / speed.factor(start, end)
    rep["speed_factor"] = speed.factor(rep["t_spawn"], rep["t_write"])
    rep["requests_per_s"] = rep["requests"] / rep["run_s"]


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[workload]
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=work_root))
    try:
        inp = wl.generate(seed, workdir)
        (workdir / "inputs.json").write_text(json.dumps(inp))
        cpu = min(os.sched_getaffinity(0))
        speed = HostSpeed(cpu)
        try:
            t0 = time.monotonic()
            deadline = t0 + DEADLINE_S
            plain, traced, errors, took = [], [], [], []
            while True:
                done_plain = len(plain) >= (MIN_TRACED_PAIRS if trace else MIN_REPS)
                done_traced = not trace or len(traced) >= MIN_TRACED_PAIRS
                left = seconds - (time.monotonic() - t0)
                if (done_plain and done_traced and left < statistics.median(took) / 2) \
                        or time.monotonic() >= deadline:
                    break
                as_traced = trace and len(traced) < len(plain)
                t_rep = time.monotonic()
                rep = spawn(workload, workdir, as_traced, deadline, cpu)
                took.append(time.monotonic() - t_rep)
                if "error" in rep:
                    errors.append(rep["error"])
                    print(f"rep error: {rep['error']}", file=sys.stderr, flush=True)
                    if len(errors) >= 2:
                        break
                    continue
                (traced if as_traced else plain).append(rep)
        finally:
            speed.stop()
        for rep in plain + traced:
            at_reference_speed(rep, speed)
            print(f"rep {'traced' if 'per_layer' in rep else 'plain'} "
                  + " ".join(f"{k}={rep[k]:.6g}" for k in END_TO_END)
                  + " measured " + " ".join(f"{k}={rep['measured_' + k]:.6g}"
                                            for k in ("wall_s", "setup_s", "run_s"))
                  + f" speed_factor={rep['speed_factor']:.4g}"
                  + f" failed={rep['failed']}/{rep['attempted']}", flush=True)
        run_manifest = manifest(workload, seed)
        run_manifest["pinned_cpu"] = cpu
        return summarize(wl, inp, plain, traced, errors, trace, run_manifest)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass


def summarize(wl, inp: dict, plain: list, traced: list, errors: list, trace: bool,
              run_manifest: dict) -> dict:
    reps = plain + traced
    attempted = sum(r["attempted"] for r in reps) + wl.operations(inp) * len(errors)
    failed = sum(r["failed"] for r in reps) + wl.operations(inp) * len(errors)
    problems = [p for r in reps for p in r["problems"]]
    digests = sorted({r["digest"] for r in reps})
    if len(digests) > 1:
        problems.append(f"outputs differ between repetitions of one seed: {digests}")
    for rep in traced:
        if abs(rep["self_time_gap_s"]) > 1e-6:
            problems.append("traced self times miss bench.run by "
                            f"{rep['self_time_gap_s']:.3g} s")
    for p in problems[:20]:
        print(f"check failed: {p}", flush=True)
    if reps:
        run_manifest.update(reps[0]["program"])
    print("manifest " + json.dumps(run_manifest, sort_keys=True), flush=True)
    for rep in traced:
        print("spans " + json.dumps(rep["spans"]), flush=True)
    print(f"digest {wl.name} sha256={','.join(digests) or 'none'}", flush=True)
    correct = bool(plain) and (bool(traced) or not trace) and failed == 0 \
        and not problems and not errors

    def median(rows, key):
        return statistics.median(r[key] for r in rows) if rows else 0.0

    if trace:
        units = per_layer_metrics()
        values = {name: median([r["per_layer"] for r in traced], name)
                  for name in per_layer_units()}
        values["bench.trace_overhead_ratio"] = (
            median(traced, "wall_s") / median(plain, "wall_s") if plain and traced else 0.0)
        values["bench.error_ratio"] = failed / attempted if attempted else 1.0
        values["bench.output_digest32"] = int(digests[0][:8], 16) if len(digests) == 1 else 0
        metrics = {name: {"value": values[name], "unit": units[name][0]} for name in units}
    else:
        metrics = {name: {"value": median(plain, name), "unit": unit}
                   for name, unit in END_TO_END.items()}
    for name, m in metrics.items():
        print(f"metric {name} {m['value']!r} {m['unit']}", flush=True)
    return {"correct": correct, "attempted": max(attempted, 1), "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an exception: the running worker is killed and
    # the probe stopped and waited for by the handlers on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "relaysim" / "__init__.py").is_file():
        print(f"error: relaysim sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
