"""One benchmark process: set up a workload, run passes over its jobs, and
print one JSON line with every sample.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload W --seed N --setup-only

run.py starts it with PERFBENCH_SPAWN set to its clock reading at spawn, so
that set-up time counts from process start.  With --setup-only the process
exits as soon as the inputs are ready.

Passes run one after another in this one process (a closed loop with one
caller).  Untraced runs time every job; a pass cut by the deadline still
contributes its finished jobs, but the first pass always completes.  Traced
runs alternate untraced and traced passes, so that both see the same host
and their outputs can be compared.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import numpy as np

from tracer import CLOCK, Tracer, merge, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _fraction_loop() -> None:
    """A 16x16 Fraction elimination, like the engine's exact linear algebra."""
    n = 16
    m = [[Fraction(1, i + j + 1) + (i == j) for j in range(n)] for i in range(n)]
    for c in range(n):
        m[c] = [x / m[c][c] for x in m[c]]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]


def _int64_loop() -> None:
    """Dense int64 products of the sizes the identity checks multiply."""
    a = (np.arange(256 * 256, dtype=np.int64) % 5 - 2).reshape(256, 256)
    b = (np.arange(256 * 128, dtype=np.int64) % 3 - 1).reshape(256, 128)
    for _ in range(2):
        a @ b


def _process_loop() -> None:
    """A fresh interpreter that imports numpy, like the start of a set-up or
    of an hcc command."""
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)


# Calibration loops use no engine code.  Kind -> (loop, its time in seconds
# on the host the benchmark was defined on, a 2.1 GHz Xeon with Python 3.11,
# when that host's neighbours were idle).  Host slowdowns hit interpreted
# Fraction code far harder than numpy's int64 loops or process start-up, so
# each workload names the loop whose kind of work dominates its jobs.
CALIBRATIONS = {"fraction": (_fraction_loop, 0.015), "int64": (_int64_loop, 0.018),
                "process": (_process_loop, 0.10)}


def calibration(kind: str) -> float:
    """Seconds the `kind` calibration loop takes now: how fast the host runs
    this kind of work at the moment."""
    loop, _ = CALIBRATIONS[kind]
    start = time.perf_counter()
    loop()
    return time.perf_counter() - start


def run_pass(workload, tracer, deadline=None):
    """Run the job list once; stop between jobs once `deadline` has passed.
    The calibration loop runs before every job and after the last one."""
    from workloads import PassContext, digest  # needs the engine on sys.path

    ctx = PassContext(traced=tracer is not None)
    times, digests, failures, calib = {}, {}, [], []
    if tracer is not None:
        tracer.reset()
    for job in workload.jobs:
        if deadline is not None and CLOCK() >= deadline:
            break
        calib.append(calibration(workload.calibration))
        start = CLOCK()
        try:
            value = job.run(ctx)
        except Exception as exc:  # a failed operation; the pass goes on
            times[job.name] = CLOCK() - start
            layer = (tracer.raised_in(exc) if tracer else None) or job.layer
            failures.append({"job": job.name, "layer": layer,
                             "error": traceback.format_exc(limit=-3)})
            digests[job.name] = f"raised {type(exc).__name__}"
            continue
        finally:
            if tracer is not None:
                tracer.clear_raised()
        times[job.name] = CLOCK() - start
        ctx[job.name] = value
        problem = job.check(value, ctx) if job.check else None
        if problem:
            failures.append({"job": job.name, "layer": job.layer, "error": problem})
        digests[job.name] = digest(value)
    calib.append(calibration(workload.calibration))
    complete = len(times) == len(workload.jobs)
    return {"traced": tracer is not None, "complete": complete, "times": times,
            "calibration": calib, "failures": failures}, digests, ctx


def layer_sample(tracer, ctx, times) -> tuple[dict, list]:
    """Per-layer numbers of one traced pass (self time per group, calls,
    counters, top-level span time against the pass's job time), and its
    spans, CLI children's included."""
    dump = merge([tracer.dump()] + ctx.child_dumps)
    own, top = self_times(dump["spans"])
    return {"self_s": dict(own), "calls": dump["calls"], "counts": dump["counts"],
            "top_s": top, "wall_s": sum(times.values())}, dump["spans"]


def measure(workload, seconds: float, trace: bool, spans_path=None) -> dict:
    tracer = Tracer() if trace else None
    deadline = CLOCK() + seconds
    passes, layers, mismatches = [], [], []
    reference = None
    while True:
        first = len(passes) < (2 if trace else 1)  # always completes
        if not first and CLOCK() >= deadline:
            break
        traced = trace and len(passes) % 2 == 1
        if traced:
            tracer.install()
        try:
            cut = None if first else deadline
            record, digests, ctx = run_pass(workload, tracer if traced else None, cut)
        finally:
            if traced:
                tracer.uninstall()
        passes.append(record)
        if traced and record["complete"]:
            sample, spans = layer_sample(tracer, ctx, record["times"])
            if spans_path is not None and not layers:
                Path(spans_path).write_text(json.dumps(spans), encoding="utf-8")
            layers.append(sample)
        if reference is None:
            reference = digests
        for name, value in digests.items():
            if value != reference.get(name):
                mismatches.append({"job": name, "pass": len(passes) - 1,
                                   "traced": traced})
    usage = resource.RUSAGE_CHILDREN if workload.subprocess_rss else resource.RUSAGE_SELF
    return {"passes": passes, "layers": layers, "mismatches": mismatches,
            "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="file for the spans of the first traced pass")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import hopfcyclic  # noqa: F401  (set-up counts the import)
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, ROOT)
    ready = CLOCK()
    out = {"ready": ready}
    if not args.setup_only:
        out.update(measure(workload, args.seconds, bool(args.trace), args.spans))
        out["operations"] = {job.name: job.operation or job.name for job in workload.jobs}
        out["calibration_kind"] = workload.calibration
        out["why"] = workload.why
        out["inputs"] = workload.inputs
        out["versions"] = {"python": platform.python_version(),
                           "numpy": np.__version__}
        out["pid"] = os.getpid()
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
