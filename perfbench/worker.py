"""One repetition of one workload, in a fresh process started by run.py.

Reads the generated inputs from --workdir, sets up, runs, writes the
outputs to --outdir and checks them, then prints one JSON line with the
phase timestamps (time.monotonic, which on Linux is the system-wide
CLOCK_MONOTONIC, so run.py can measure from the moment it spawned this
process), peak RSS, the check results and an output digest. With
--trace 1 it also reports the per-layer table.

Usage: python3 perfbench/worker.py --workload NAME --workdir DIR --outdir DIR --trace 0|1
"""

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from tracing import Tracer
from workloads import WORKLOADS


def run_rep(name: str, workdir: Path, outdir: Path, trace: bool) -> dict:
    wl = WORKLOADS[name]
    inp = json.loads((workdir / "inputs.json").read_text())
    tracer = Tracer()
    if trace:
        # Importing relaysim to patch it moves the import out of bench.setup.
        tracer.install()
    try:
        with tracer.span("bench.setup"):
            state = wl.setup(inp, workdir)
        t_setup = time.monotonic()
        self_before = tracer.total_self_s()
        with tracer.span("bench.run"):
            result = wl.run(state, tracer)
        t_run = time.monotonic()
        self_in_run = tracer.total_self_s() - self_before
        with tracer.span("bench.write"):
            files = wl.write(state, result, outdir)
        t_write = time.monotonic()
    finally:
        tracer.restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with tracer.span("bench.check"):
        chk = wl.check(inp, state, result)
    digest = hashlib.sha256()
    for path in files:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    import numpy
    import relaysim
    from relaysim import kernels
    out = {
        "t_setup": t_setup, "t_run": t_run, "t_write": t_write,
        "peak_rss_mb": peak_rss_mb,
        "attempted": chk.attempted, "failed": min(chk.failed, chk.attempted),
        "requests": chk.requests, "problems": chk.problems[:20],
        "digest": digest.hexdigest(),
        "program": {"relaysim": relaysim.__version__, "numpy": numpy.__version__,
                    "kernels_backend": kernels.backend()},
    }
    if trace:
        run_s = tracer.stats["bench.run"][0]
        out["per_layer"] = tracer.per_layer()
        out["self_time_gap_s"] = self_in_run - run_s
        t0 = tracer.spans[0]["start"]
        out["spans"] = [dict(sp, start=sp["start"] - t0, end=sp["end"] - t0)
                        for sp in tracer.spans]
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--workdir", required=True, type=Path)
    ap.add_argument("--outdir", required=True, type=Path)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        out = run_rep(args.workload, args.workdir, args.outdir, bool(args.trace))
    except Exception:  # reported to run.py, which counts the repetition as failed
        out = {"error": traceback.format_exc()}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
