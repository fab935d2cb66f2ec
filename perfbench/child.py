"""One benchmark repetition: a fresh process that runs a workload's jobs.

Usage: ``python3 child.py SPEC.json`` (or ``--setup-only``), with the
spcube sources on ``PYTHONPATH``.  The process imports ``spcube.cli`` and
prints ``ready``; the parent times set-up up to that line.  With
``--setup-only`` it then prints the mean time of a few ``reference()``
calls and exits.  Otherwise it calls ``spcube.cli.main(argv)`` once per
job of the spec, capturing each job's stdout and stderr in memory.  When
the job phase ends it writes one JSON object to ``result_out``: job-phase
wall and CPU time, peak RSS, the speed probe's means, and each job's exit
code and output.  With ``"trace": true`` the jobs run under the layer
tracer, whose summary joins the result and whose spans go to
``spans_out``.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import signal
import statistics
import sys
import time
import traceback

PROBE_PERIOD_S = 0.1
SETUP_KERNELS = 10  # reference() runs that give a set-up child's speed


def _cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def reference() -> None:
    """Fixed pure-Python work of the kinds spcube does: string building,
    dict updates and integer bit operations."""
    seen: dict[str, int] = {}
    for i in range(4000):
        s = format(i * 7919 % 4093, "012b")
        seen[s] = seen.get(s, 0) + s.count("1") + (i & -i).bit_length()


class SpeedProbe:
    """Times ``reference()`` every ``PROBE_PERIOD_S`` seconds of the job
    phase, from a SIGALRM handler in the job's own thread.

    The machine this runs on is shared, and its speed drifts by a quarter
    within minutes.  The reference kernel slows with it, so job time over
    mean kernel time (wall over wall, CPU over CPU) is steady where raw
    seconds are not.
    """

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer  # its clock skips the samples, so spans do too
        self.wall: list[float] = []
        self.cpu: list[float] = []

    def _sample(self, *_) -> None:
        wall, cpu = time.perf_counter(), time.process_time()
        reference()
        self.cpu.append(time.process_time() - cpu)
        self.wall.append(time.perf_counter() - wall)
        if self.tracer is not None:
            self.tracer.paused += self.wall[-1]

    def __enter__(self) -> "SpeedProbe":
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _run(main, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except Exception:  # a traceback is a failed job, not a failed run
            rc = None
            err.write(traceback.format_exc())
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def main() -> int:
    import spcube.cli

    print("ready", flush=True)
    if sys.argv[1:] == ["--setup-only"]:
        kernel = []
        for _ in range(SETUP_KERNELS):
            start = time.perf_counter()
            reference()
            kernel.append(time.perf_counter() - start)
        print(statistics.mean(kernel))
        return 0
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    entry = spcube.cli.main
    tracer = None
    if spec["trace"]:
        import layertrace

        tracer = layertrace.Tracer()
        layertrace.install(tracer)
        entry = tracer.wrap("cli", "cli.main", spcube.cli.main)
    probe = SpeedProbe(tracer)
    cpu0 = _cpu()
    start = time.perf_counter()
    with probe:
        jobs = [_run(entry, argv) for argv in spec["jobs"]]
    wall = time.perf_counter() - start - sum(probe.wall)
    cpu = _cpu() - cpu0 - sum(probe.cpu)
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    result = {
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_kb / 1024,
        "probe": {
            "samples": len(probe.wall),
            "wall_s": statistics.mean(probe.wall),
            "cpu_s": statistics.mean(probe.cpu),
        },
        "jobs": jobs,
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.write_spans(spec["spans_out"])
    with open(spec["result_out"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
