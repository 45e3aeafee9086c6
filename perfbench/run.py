"""The hopfcyclic benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  With --trace 0 it prints the end-to-end
metrics of BENCHMARK.json; with --trace 1 the per-layer metrics of a traced
run.  Every metric is printed by name with its unit; the last line of
standard output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`.  The full run record (versions, seed, every sample) is written
under perfbench/runs/.  Times are in reference seconds (see `reference`).

Processes: set-up is timed in fresh processes started one after another;
the workload then runs in its own child process (worker.py), whose peak
resident memory is read through `resource` (for `cli`, the largest hcc
child).  Every process is waited for before this one exits.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS, STARTUP
from worker import CALIBRATIONS, calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / "runs"

SETUP_PROBES = 3     # before and again after the measurement
TIMEOUT_S = 170.0   # the whole run, set-up probes included

REQUIRED = ("src/hopfcyclic/__init__.py", "demo/builtin_catalog.json",
            "demo/plain_rationals.json", "demo/z2_cup.json",
            "tests/data/catalog_report.json")

LINALG = ("linalg.compose", "linalg.tensor", "linalg.apply", "linalg.elim",
          "linalg.convert")


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def _spawn(args, deadline: float, probe: bool = False) -> dict:
    """Run worker.py with `args`; its JSON line, with its set-up time added
    in seconds and in reference seconds.  The process-start calibration runs
    before the spawn and, for a set-up probe, again after it."""
    env = dict(os.environ)
    before = calibration("process")
    spawned = time.monotonic()
    env["PERFBENCH_SPAWN"] = repr(spawned)
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        done = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"worker {args} timed out") from exc
    if done.returncode != 0:
        raise BenchError(f"worker {args} exited with {done.returncode}:\n{done.stderr}")
    out = json.loads(done.stdout.strip().splitlines()[-1])
    seconds = out["ready"] - spawned
    after = calibration("process") if probe else before
    out["setup"] = {"seconds": seconds, "calibration": [before, after],
                    "reference_s": reference(seconds, before, after, "process")}
    return out


def setup_probes(common, deadline: float, count: int) -> list:
    """Set-ups of `count` fresh processes that stop once inputs are ready."""
    return [_spawn(common + ["--setup-only"], deadline, probe=True)["setup"]
            for _ in range(count)]


def git_sha():
    """The checkout's commit, read from .git when there is one."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def reference(seconds: float, calib_before: float, calib_after: float,
              kind: str) -> float:
    """`seconds` measured while the `kind` calibration loop took about the
    mean of the two readings, in reference seconds: scaled as if the loop
    had taken its reference time.  See README.md."""
    return seconds * CALIBRATIONS[kind][1] / ((calib_before + calib_after) / 2)


def pass_time(result, traced: bool) -> tuple[float, int]:
    """The job list once in reference seconds, each job at the median over
    the (un)traced passes of all samples of its operation; and the number of
    passes used."""
    operations = result["operations"]
    samples, used = {}, 0
    for record in result["passes"]:
        if record["traced"] != traced:
            continue
        used += 1
        calib = record["calibration"]
        for i, (name, t) in enumerate(record["times"].items()):
            samples.setdefault(operations[name], []).append(
                reference(t, calib[i], calib[i + 1], result["calibration_kind"]))
    return sum(statistics.median(samples[op]) for op in operations.values()), used


def counts(result) -> tuple[int, int]:
    """(attempted, failed) operations of the run."""
    failed = sum(len(p["failures"]) for p in result["passes"]) + len(result["mismatches"])
    return sum(len(p["times"]) for p in result["passes"]), failed


def end_to_end(result, setups) -> dict:
    attempted, failed = counts(result)
    return {
        "wall_s": (pass_time(result, traced=False)[0], "s"),
        "setup_s": (statistics.median(s["reference_s"] for s in setups), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MiB"),
        "pass_ratio": (1.0 - failed / attempted, "ratio"),
    }


def per_layer(result) -> dict:
    samples = result["layers"]
    if not samples:
        raise BenchError("no traced pass completed")

    def median_self(group):
        return statistics.median(s["self_s"].get(group, 0.0) for s in samples)

    first = samples[0]  # calls and counts repeat exactly from pass to pass
    calls, tallies = first["calls"], first["counts"]
    out = {}
    for group in LINALG:
        out[f"{group}.calls"] = (calls.get(group, 0), "count")
        out[f"{group}.self_s"] = (median_self(group), "s")
    out["linalg.elim.cells"] = (tallies.get("linalg.elim.cells", 0), "count")
    out["linalg.max_cells"] = (tallies.get("linalg.max_cells", 0), "count")
    for group in ("hopf.check", "coefficients.check", "cocyclic.build.plain",
                  "cocyclic.build.coalgebra", "cocyclic.build.algebra_module",
                  "cocyclic.build.comodule_algebra", "cocyclic.build.algebra_contra",
                  "cocyclic.verify", "cocyclic.mixed", "cocyclic.hh", "cocyclic.hc",
                  "cup.setup", "cup.comparison", "cup.comparison_check", "cup.total",
                  "cup.aw", "cup.product", "cup.complete", "cup.cocycle_check",
                  "specfile.parse", "cli.command", "reporting.emit"):
        out[f"{group}.self_s"] = (median_self(group), "s")
    out["cocyclic.verify.identities"] = (tallies.get("cocyclic.verify.identities", 0),
                                         "count")
    for group in ("cocyclic.coboundary", "cup.comparison"):
        out[f"{group}.calls"] = (calls.get(group, 0), "count")
        out[f"{group}.distinct"] = (tallies.get(f"{group}.distinct", 0), "count")
    out["cli.startup_s"] = (median_self(STARTUP), "s")
    by_layer = {}
    for record in result["passes"]:
        for failure in record["failures"]:
            by_layer[failure["layer"]] = by_layer.get(failure["layer"], 0) + 1
    for layer in LAYERS:
        out[f"{layer}.failed"] = (by_layer.get(layer, 0), "count")
    out["trace.coverage"] = (statistics.median(s["top_s"] / s["wall_s"] for s in samples),
                             "ratio")
    out["trace.overhead"] = (pass_time(result, traced=True)[0]
                             / pass_time(result, traced=False)[0] - 1.0, "ratio")
    return dict(sorted(out.items()))


def focus(workload: str, metrics: dict, untraced_pass_s: float):
    """The workload's stated focus, checked on the traced run."""
    linalg = {g: metrics[f"{g}.self_s"][0] for g in LINALG}
    top = max(linalg, key=linalg.get)
    if workload == "identities":
        return ("linalg.elim.calls = 0 and linalg.compose has the largest linalg self time",
                metrics["linalg.elim.calls"][0] == 0 and top == "linalg.compose")
    if workload == "cohomology":
        return "linalg.elim has the largest linalg self time", top == "linalg.elim"
    if workload == "cup":
        return "linalg.apply has the largest linalg self time", top == "linalg.apply"
    return ("cli.startup_s is at least a third of wall_s",
            metrics["cli.startup_s"][0] >= untraced_pass_s / 3)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hopfcyclic benchmark, one run")
    parser.add_argument("--workload", required=True,
                        choices=("identities", "cohomology", "cup", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        sys.stderr.write("perfbench: not a hopfcyclic checkout; missing "
                         + ", ".join(missing) + "\n")
        return 2
    deadline = time.monotonic() + TIMEOUT_S
    RUNS.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        # Set-up probes before and after the measurement, so that they do
        # not all fall into one slow stretch of the host.
        setups = setup_probes(common, deadline, 0 if args.trace else SETUP_PROBES)
        measure = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            measure += ["--spans", str(RUNS / f"spans-{tag}.json")]
        result = _spawn(common + measure, deadline)
        setups.append(result["setup"])
        setups += setup_probes(common, deadline, 0 if args.trace else SETUP_PROBES)
        metrics = per_layer(result) if args.trace else end_to_end(result, setups)
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1

    attempted, failed = counts(result)
    _, used = pass_time(result, traced=False)
    complete = [sum(p["times"].values()) for p in result["passes"]
                if p["complete"] and not p["traced"]]
    record = {
        "workload": args.workload, "why": result["why"], "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "inputs": result["inputs"],
        "python": result["versions"]["python"], "numpy": result["versions"]["numpy"],
        "nproc": os.cpu_count(), "git_sha": git_sha(),
        "calibration": {kind: ref for kind, (_, ref) in CALIBRATIONS.items()},
        "setups": setups, "operations": result["operations"], "passes": result["passes"],
        "layer_samples": result["layers"], "mismatches": result["mismatches"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }

    print(f"workload {args.workload}, seed {args.seed}: {attempted} operations, "
          f"{failed} failed (fail_ratio {failed / attempted:.4f})")
    for pass_record in result["passes"]:
        for failure in pass_record["failures"]:
            print(f"  FAILED [{failure['layer']}] {failure['job']}: {failure['error']}")
    for mismatch in result["mismatches"]:
        print(f"  FAILED output of {mismatch['job']} differs in pass {mismatch['pass']}")
    print(f"wall_s: median per job over {used} untraced passes, in reference seconds; "
          f"{len(complete)} complete passes, median {statistics.median(complete):.4f} "
          f"measured seconds")
    if not args.trace:
        print(f"setup_s: median of {len(setups)} set-ups in reference seconds; measured "
              f"median {statistics.median(s['seconds'] for s in setups):.4f} s")
    else:
        statement, holds = focus(args.workload, metrics, statistics.median(complete))
        record["focus"] = {"statement": statement, "holds": holds}
        print(f"focus: {statement}: {'holds' if holds else 'does NOT hold'}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    (RUNS / f"record-{tag}.json").write_text(json.dumps(record, indent=1),
                                             encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
