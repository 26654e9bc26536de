"""Child process of the benchmark: one set-up timing, or one closed loop of CLI ops.

    python3 bench/loop.py setup SPEC   time import + cache fill, print JSON
    python3 bench/loop.py run SPEC     run the loop, write SPEC's result file

SPEC is a JSON file written by ``run.py``.  The loop calls
``jetiso.cli.main(argv)`` in this process, one op at a time, until the ops
have taken ``seconds`` (or ``max_ops`` ops have run).  Writing an op's input
is not timed.  With ``trace`` set, the library is wrapped by ``Tracer``
for the whole loop; the end-to-end numbers always come from a run without it.
Set-up and untraced loops run a ``SpeedProbe`` beside the program and
report their times at reference speed as well.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback
from bisect import bisect_left
from fractions import Fraction

import workloads
from tracer import Tracer

# a probe every 20 ms costs about 2.5% of a loop; set-up lasts about 0.1 s,
# so it is probed every 5 ms
LOOP_PROBE_PERIOD_S = 0.02
SETUP_PROBE_PERIOD_S = 0.005
# the probe duration that reference speed stands for
REF_PROBE_S = 0.0005
MIN_PROBES = 5


class SpeedProbe:
    """Measures the machine's speed while the program runs.

    Other tenants of the host change this machine's speed by tens of percent
    from one second to the next, and process CPU time slows down with wall
    time, so neither can be compared across runs.  A fixed piece of
    pure-Python work (``Fraction`` arithmetic and dict updates, the
    program's own kind of work) runs from a timer signal every ``period``
    seconds, between the program's bytecodes.  ``scaled`` takes the probes'
    own time out of a stretch of the program's time and converts the rest
    to reference speed: it multiplies by ``REF_PROBE_S`` over the mean probe
    duration inside the stretch.  The probe keeps the garbage collector off
    while it runs, so a collection the program owes is never charged to it.
    """

    def __init__(self, period):
        self.period = period
        self.starts = []
        self.times = []
        self._previous = None

    def sample(self, *_):
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 60):
            acc += Fraction(i, i + 1) * 3
        table = {}
        for i in range(300):
            table[i % 31] = table.get(i % 31, 0) + i
        self.times.append(time.perf_counter() - start)
        self.starts.append(start)
        if collecting:
            gc.enable()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        # a stretch too short for probes of its own borrows its neighbours'
        while len(self.times) < MIN_PROBES:
            self.sample()
        return False

    def scaled(self, start, end):
        """(seconds in [start, end] outside the probes, the same at reference speed)."""
        lo, hi = bisect_left(self.starts, start), bisect_left(self.starts, end)
        busy = end - start - sum(self.times[lo:hi])
        if hi - lo < MIN_PROBES:
            lo = max(0, min(lo - MIN_PROBES // 2, len(self.times) - MIN_PROBES))
            hi = lo + MIN_PROBES
        return busy, busy * REF_PROBE_S / statistics.fmean(self.times[lo:hi])


def warm(n, gauge_degrees, q_top):
    """Import the CLI and fill the lazy caches an op would fill."""
    import jetiso.cli  # noqa: F401  (the import is part of set-up)
    from jetiso import freealg, tensor

    for d in gauge_degrees:
        tensor.gauge_basis(tensor.Space.euclidean(n), d)
    for d in range(q_top + 1):
        freealg.q_poly(d)
        freealg.qtilde_poly(d)


def run_op(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # an op that crashes is a failed op, not a failed run
        code = None
        error = traceback.format_exc()
    end = time.perf_counter()
    return {"argv": argv, "code": code, "start": start, "end": end,
            "stdout": out.getvalue(), "stderr": err.getvalue(), "error": error}


def run_loop(spec):
    from jetiso import cli

    workload = workloads.make(spec["workload"], spec["size"])
    warm(*workload.warm())
    tracer = probe = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install()
    else:
        probe = SpeedProbe(LOOP_PROBE_PERIOD_S)
    ops = []
    busy = 0.0
    max_ops = spec.get("max_ops")
    try:
        with probe or contextlib.nullcontext():
            while busy < spec["seconds"] and (max_ops is None or len(ops) < max_ops):
                i = len(ops)
                argv = workload.op_argv(spec["plan"], spec["seed"], i, spec["work"])
                rec = run_op(cli, argv)
                if tracer is not None:
                    tracer.fold()
                out = argv[argv.index("-o") + 1] if "-o" in argv else None
                rec["out"] = out if out is not None and os.path.exists(out) else None
                rec["out_bytes"] = (len(rec["stdout"])
                                    + (os.path.getsize(out) if rec["out"] else 0))
                ops.append(rec)
                busy += rec["end"] - rec["start"]
    finally:
        if tracer is not None:
            tracer.uninstall()
    # busy_s is the op's own time; s is busy_s at reference speed when probed
    for rec in ops:
        start, end = rec.pop("start"), rec.pop("end")
        if probe is None:
            rec["busy_s"] = rec["s"] = end - start
        else:
            rec["busy_s"], rec["s"] = probe.scaled(start, end)
    result = {"ops": ops,
              "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        result["trace"] = {"calls": tracer.calls, "self_s": tracer.self_s,
                           "total_s": tracer.total_s, "counts": tracer.counts,
                           "maxima": tracer.maxima}
    return result


def main(argv):
    mode, spec_path = argv
    with open(spec_path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    if mode == "setup":
        with SpeedProbe(SETUP_PROBE_PERIOD_S) as probe:
            start = time.perf_counter()
            warm(*spec["warm"])
            end = time.perf_counter()
        busy_s, setup_s = probe.scaled(start, end)
        print(json.dumps({"setup_s": setup_s, "busy_s": busy_s}))
        return 0
    result = run_loop(spec)
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
