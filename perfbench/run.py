"""Benchmark runner for the spcube CLI.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads, metrics and bounds are declared in ``BENCHMARK.json``.  The load
is one single-threaded closed loop: one child process at a time.  Each
repetition is a fresh ``child.py`` process that imports ``spcube.cli`` and
calls ``spcube.cli.main(argv)`` once per job; repetitions run until
``--seconds`` have been spent on them, and at least ``MIN_REPS``.
Several set-up-only children per run give the median set-up time.  Every
job's output is checked by the workload's oracle between repetitions,
outside the timed region.

With ``--trace 0`` the last stdout line reports the end-to-end metrics,
medians over repetitions; job times are in units of a reference kernel
timed alongside the jobs (``child.SpeedProbe``).  With ``--trace 1`` the same untraced
repetitions run, then one repetition under the layer tracer, and the last
line reports the per-layer metrics; the spans go to ``.bench_run/``.
Earlier stdout lines, starting with ``#``, give each job's argv and the
workload's exact input descriptors.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
SETUP_PROBES = 9
# Set-up times are scaled to a machine on which one ``child.reference()``
# call takes this long, like the job times (see ``Run.end_to_end``).
REFERENCE_S = 0.004
MIN_REPS = 2  # so that one slow repetition cannot set the median alone
CHILD_TIMEOUT_S = 150


def launch(args: list[str], env: dict, cwd: Path) -> tuple[float, str]:
    """Run one child to completion.  Return its set-up time (launch until
    it reports ``spcube.cli`` imported) and the rest of its stdout."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), *args], stdout=subprocess.PIPE, cwd=cwd, env=env, text=True
    )
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.daemon = True
    watchdog.start()
    try:
        line = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest = proc.stdout.read()
        rc = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or rc != 0:
        raise RuntimeError(f"child exited with code {rc} after {line.strip()!r}")
    return setup, rest


class Run:
    def __init__(self, workload: str, seed: int, work: Path) -> None:
        import workloads

        self.jobs, self.descriptors = workloads.WORKLOADS[workload](seed, work)
        self.check_job = workloads.check_job
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=str(seed % 2**32))
        self.attempted = 0
        self.failed = 0
        self.setups: list[float] = []
        self.reps: list[dict] = []

    def repetition(self, trace: bool = False, spans_out: Path | None = None) -> dict:
        spec = self.work / "spec.json"
        result_path = self.work / "result.json"
        result_path.unlink(missing_ok=True)
        spec.write_text(json.dumps({
            "jobs": [job.argv for job in self.jobs],
            "trace": trace,
            "result_out": str(result_path),
            "spans_out": str(spans_out) if spans_out else None,
        }), encoding="utf-8")
        launch([str(spec)], self.env, self.work)
        result = json.loads(result_path.read_text(encoding="utf-8"))
        self.attempted += len(self.jobs)
        for job, out in zip(self.jobs, result["jobs"]):
            error = self.check_job(job, out)
            if error:
                self.failed += 1
                print(f"FAILED {' '.join(job.argv)}: {error}", file=sys.stderr)
        return result

    def measure(self, seconds: float) -> None:
        for _ in range(SETUP_PROBES):
            setup, kernel = launch(["--setup-only"], self.env, self.work)
            self.setups.append(setup * REFERENCE_S / float(kernel))
        spent = 0.0
        while len(self.reps) < MIN_REPS or spent < seconds:
            start = time.perf_counter()
            self.reps.append(self.repetition())
            spent += time.perf_counter() - start

    def median(self, key: str) -> float:
        return statistics.median(rep[key] for rep in self.reps)

    def end_to_end(self) -> dict[str, float]:
        """Job-phase times are reported in units of the concurrent
        reference-kernel time (see ``child.SpeedProbe``)."""
        return {
            "wall_ref": statistics.median(r["wall_s"] / r["probe"]["wall_s"] for r in self.reps),
            "cpu_ref": statistics.median(r["cpu_s"] / r["probe"]["cpu_s"] for r in self.reps),
            "setup_s": statistics.median(self.setups),
            "peak_rss_mb": self.median("peak_rss_mb"),
        }


def calls(name: str):
    return lambda t: t["names"].get(name, {}).get("calls", 0)


def counter(name: str):
    return lambda t: t["counters"].get(name, 0)


def share(part: str, whole: str):
    return lambda t: ratio(t["counters"].get(part, 0), t["counters"].get(whole, 0))


COUNTERS = {
    "multigraph.spanning_trees.calls": calls("multigraph.spanning_trees"),
    "multigraph.trees_out": counter("multigraph.trees_out"),
    "multigraph.is_isomorphic.calls": calls("multigraph.is_isomorphic"),
    "multigraph.tree_count.calls": calls("multigraph.tree_count"),
    "spterm.canonical.calls": calls("spterm.canonical"),
    "spterm.terms_out": counter("spterm.enumerate_terms.items"),
    "spterm.dedup.adds": counter("spterm.dedup.adds"),
    "spterm.dedup.new_ratio": share("spterm.dedup.new", "spterm.dedup.adds"),
    "patterns.x_pattern.calls": calls("patterns.x_pattern"),
    "patterns.y_pattern.calls": calls("patterns.y_pattern"),
    "patterns.strings_out": counter("patterns.strings_out"),
    "embeddings.ex_layer.calls": calls("embeddings.ex_layer"),
    "embeddings.contains.calls": calls("embeddings.contains_pattern"),
    "embeddings.maps": counter("embeddings.maps"),
    "constructions.f2_sets": counter("constructions.f2_sets"),
    "constructions.strings_tested": counter("constructions.strings_tested"),
    "constructions.admit_ratio": share(
        "constructions.strings_admitted", "constructions.strings_tested"
    ),
    "search.rows_out": counter("search.rows_out"),
}


def ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def per_layer(name: str, trace: dict) -> float:
    """Resolve one per-layer metric name against the traced repetition."""
    head, _, field = name.rpartition(".")
    if name == "trace.overhead_s":
        return trace["overhead_s"]
    if name in COUNTERS:
        return COUNTERS[name](trace)
    if head in trace["layers"]:
        return trace["layers"][head][field]
    if head.startswith("verify.") and field == "busy_s":
        span = trace["names"].get(head)
        if span is None:
            print(f"warning: no verify check named {head[7:]!r}", file=sys.stderr)
            return 0.0
        return span["busy_s"]
    raise KeyError(f"unknown per-layer metric {name!r}")


def print_trace_breakdown(jobs, trace: dict) -> None:
    for job, row in zip(jobs, trace["jobs"]):
        busy = row["busy_s"]
        shares = sorted(row["self_s"].items(), key=lambda kv: -kv[1])
        text = "  ".join(f"{k} {v / busy:.0%}" for k, v in shares if v / busy >= 0.01)
        print(f"# trace {busy:8.3f}s  {' '.join(job.argv)}: {text}", file=sys.stderr)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Turn SIGTERM into SystemExit, so that ``launch`` still kills its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "spcube" / "cli.py").is_file():
        print(f"error: no spcube sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spcube

    if Path(spcube.__file__).resolve().parent != SRC / "spcube":
        print(f"error: spcube imported from {spcube.__file__}, not {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    runs = ROOT / ".bench_run"
    work = runs / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(args.workload, args.seed, work)
        for job in run.jobs:
            print("# job " + json.dumps(job.argv))
        print("# inputs " + json.dumps({"jobs": len(run.jobs), **run.descriptors}))
        run.measure(args.seconds)
        if args.trace:
            spans = runs / f"spans-{args.workload}-seed{args.seed}.tsv"
            traced = run.repetition(trace=True, spans_out=spans)
            print(f"# {traced['trace']['spans']} spans in {spans}", file=sys.stderr)
            # The untraced median, in seconds at the traced repetition's speed.
            untraced = run.end_to_end()["wall_ref"] * traced["probe"]["wall_s"]
            trace = dict(traced["trace"], overhead_s=traced["wall_s"] - untraced)
            print_trace_breakdown(run.jobs, trace)
            metrics_spec = spec["per_layer"]
            values = {m["name"]: per_layer(m["name"], trace) for m in metrics_spec}
        else:
            metrics_spec = spec["end_to_end"]
            values = run.end_to_end()
    except RuntimeError as exc:  # a child crashed or timed out: no metrics
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    walls = " ".join(f"{rep['wall_s']:.3f}" for rep in run.reps)
    refs = " ".join(f"{rep['probe']['wall_s'] * 1000:.3f}" for rep in run.reps)
    setups = " ".join(f"{s:.3f}" for s in run.setups)
    print(f"# rep wall_s {walls}; reference ms {refs}; setup_s {setups}; "
          f"error_rate {run.failed / run.attempted}", file=sys.stderr)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics_spec},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
