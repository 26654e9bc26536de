"""Benchmark of the jetiso command line, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src``.  The workloads are described in ``workloads.py`` and the README
beside this file.  One run:

1. builds the seeded data the inputs derive from (not timed);
2. with ``--trace 0``: times set-up in fresh interpreters, then runs the
   closed loop for S seconds in a fresh child process and reports the
   end-to-end metrics, with times at reference speed (see
   ``loop.SpeedProbe``);
   with ``--trace 1``: runs the loop untraced for S/2 seconds, then traced
   for S/2 seconds in another child, and reports the per-layer metrics;
3. checks every op's output, counts failures, and prints a digest of the
   outputs so two commits can be compared on one seed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exits 2 without
a result when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
SETUP_RUNS = 9
# a run must finish within 180 s; children get what is left of this
RUN_LIMIT_S = 170

SUITES = ("freealg", "linear", "young", "roundtrip", "transport", "extension", "validator")
SELF_TIMED = (
    "poly.mul",
    "metriclab.curvature_jet_at_origin", "metriclab.metric_from_symjet",
    "metriclab.parallel_transport_series",
    "jets.validate_jet", "jets.ricci_defect", "jets.symmetrize_jet", "jets.jet_from_symjet",
    "jets.extend_jet", "jets.extend_jet_by_solve", "jets.linear_jet_basis",
    "jets.component_span_solve",
    "exactla.rref",
    "freealg.evaluate", "tensor.PolyEnd.mul", "tensor.kulkarni", "tensor.gauge_basis",
)
CALLED = (
    "poly.mul",
    "metriclab.curvature_jet_at_origin", "metriclab.metric_from_symjet",
    "metriclab.parallel_transport_series",
    "jets.ricci_defect", "jets.MultiTensor.permuted", "exactla.rref", "tensor.PolyEnd.mul",
)
COUNTED = ("poly.mul.term_pairs", "poly.mul.kept_pairs", "jets.ricci_defect.indices",
           "exactla.rref.cells")


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def loop_child(mode, spec, path, deadline):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a child")
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "loop.py"), mode, path],
                              env=child_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child {mode} did not finish in time") from exc
    if proc.returncode != 0:
        raise BenchError(f"child {mode} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def measure_setup(workload, work, deadline):
    """Median set-up time at reference speed, and median wall time."""
    spec = {"warm": list(workload.warm())}
    samples = []
    for _ in range(SETUP_RUNS):
        out = loop_child("setup", spec, os.path.join(work, "setup.json"), deadline)
        samples.append(json.loads(out.strip().splitlines()[-1]))
    return (statistics.median(s["setup_s"] for s in samples),
            statistics.median(s["busy_s"] for s in samples))


def run_loop(workload, plan, seed, seconds, trace, work, deadline, max_ops=None):
    tag = "traced" if trace else "plain"
    op_dir = os.path.join(work, tag)
    os.makedirs(op_dir)
    spec = {"workload": workload.name, "size": workload.size, "plan": plan, "seed": seed,
            "seconds": seconds, "trace": trace, "max_ops": max_ops, "work": op_dir,
            "result": os.path.join(work, f"{tag}.result.json")}
    loop_child("run", spec, os.path.join(work, f"{tag}.spec.json"), deadline)
    with open(spec["result"], "r", encoding="utf-8") as fh:
        return json.load(fh)


def check_ops(workload, plan, seed, ops):
    """Indices of failed ops, and one sha256 per op over what it produced."""
    failed = []
    digests = []
    for i, rec in enumerate(ops):
        h = hashlib.sha256(json.dumps([rec["code"], rec["stdout"]]).encode())
        if rec["out"] is not None:
            with open(rec["out"], "rb") as fh:
                h.update(fh.read())
        digests.append(h.hexdigest())
        ok = rec["error"] is None
        if ok:
            try:
                ok = workload.check(plan, seed, i, rec)
            except (ValueError, KeyError, TypeError, IndexError, ArithmeticError,
                    OSError) as exc:
                print(f"op {i}: output could not be read: {exc}", file=sys.stderr)
                ok = False
        if not ok:
            failed.append(i)
            print(f"op {i} failed: argv={rec['argv']} code={rec['code']}"
                  f"{' ' + rec['error'] if rec['error'] else ''}"
                  f"{' stderr=' + rec['stderr'][:500] if rec['stderr'] else ''}",
                  file=sys.stderr)
    return failed, digests


def layer_metrics(trace, ops, overhead):
    """Per-layer metrics of a traced loop, per op unless the unit says otherwise."""
    n = len(ops)
    self_s, total_s = trace["self_s"], trace["total_s"]
    calls, counts = trace["calls"], trace["counts"]
    m = {}
    for name in SELF_TIMED:
        m[f"{name}.self_s"] = (self_s.get(name, 0.0) / n, "s/op")
    for name in CALLED:
        m[f"{name}.calls"] = (calls.get(name, 0) / n, "count/op")
    for name in COUNTED:
        m[name] = (counts.get(name, 0) / n, "count/op")
    pairs = counts.get("poly.mul.term_pairs", 0)
    m["poly.mul.kept_frac"] = (counts.get("poly.mul.kept_pairs", 0) / pairs if pairs else 0.0,
                               "ratio")
    m["exactla.rref.max_cells"] = (trace["maxima"].get("exactla.rref.max_cells", 0), "count")
    # the CLI layer is main plus the cmd_* handler it dispatches to
    m["cli.main.self_s"] = (sum(v for k, v in self_s.items() if k.startswith("cli.")) / n,
                            "s/op")
    m["cli.out_bytes"] = (sum(rec["out_bytes"] for rec in ops) / n, "bytes/op")
    for suite in SUITES:
        m[f"verify.{suite}.s"] = (total_s.get(f"verify.suite_{suite}", 0.0) / n, "s/op")
    m["trace.overhead_frac"] = (overhead, "ratio")
    return m


def end_to_end(workload, plan, seed, seconds, work, deadline, max_ops):
    setup_s, setup_busy_s = measure_setup(workload, work, deadline)
    res = run_loop(workload, plan, seed, seconds, False, work, deadline, max_ops)
    ops = res["ops"]
    failed, digests = check_ops(workload, plan, seed, ops)
    times = [rec["s"] for rec in ops]
    busy = [rec["busy_s"] for rec in ops]
    metrics = {
        "ops_per_s": (len(ops) / sum(times), "1/s"),
        "op_s.p50": (statistics.median(times), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (res["peak_rss_kb"] / 1024, "MB"),
    }
    lines = [f"op_s.p50 over {len(ops)} ops; setup_s is the median of "
             f"{SETUP_RUNS} fresh interpreters; times at reference speed",
             "op_s=" + ",".join(f"{t:.4f}" for t in times),
             "measured, unscaled: op_s=" + ",".join(f"{t:.4f}" for t in busy),
             f"measured, unscaled: op_s.p50={statistics.median(busy):.4f} s "
             f"ops_per_s={len(ops) / sum(busy):.4f} 1/s setup_s={setup_busy_s:.4f} s"]
    return metrics, len(ops), failed, digests, not failed, lines


def per_layer(workload, plan, seed, seconds, work, deadline, max_ops):
    plain = run_loop(workload, plan, seed, seconds / 2, False, work, deadline, max_ops)
    traced = run_loop(workload, plan, seed, seconds / 2, True, work, deadline, max_ops)
    failed_plain, plain_digests = check_ops(workload, plan, seed, plain["ops"])
    failed_traced, digests = check_ops(workload, plan, seed, traced["ops"])
    ops, trace = traced["ops"], traced["trace"]
    common = min(len(plain["ops"]), len(ops))
    same = plain_digests[:common] == digests[:common]
    # traced against untraced time on the same first ops
    overhead = (sum(rec["busy_s"] for rec in ops[:common])
                / sum(rec["busy_s"] for rec in plain["ops"][:common]) - 1)
    busy = sum(rec["busy_s"] for rec in ops)
    self_sum = sum(trace["self_s"].values())
    top = sorted(trace["self_s"].items(), key=lambda kv: -kv[1])[:12]
    lines = [f"traced {len(ops)} ops in {busy:.4f} s; layer self times sum to {self_sum:.4f} s",
             "top self times (s/op): " + ", ".join(f"{k}={v / len(ops):.4g}" for k, v in top)]
    if not same:
        lines.append("traced and untraced outputs differ")
    failed = failed_plain + failed_traced
    correct = not failed and same and self_sum <= busy
    return (layer_metrics(trace, ops, overhead), len(plain["ops"]) + len(ops), failed,
            digests, correct, lines)


def run(name, seed, seconds, trace, size=None, max_ops=None):
    """One benchmark run; returns (result object, lines to print before it)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    workload = workloads.make(name, size)
    work = os.path.join(WORK_ROOT, f"{name}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        plan = workload.prepare(seed)
        measure = per_layer if trace else end_to_end
        metrics, attempted, failed, digests, correct, lines = measure(
            workload, plan, seed, seconds, work, deadline, max_ops)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines.insert(0, f"workload={name} seed={seed} seconds={seconds} trace={int(trace)} "
                    f"size={json.dumps(workload.size)}")
    run_digest = hashlib.sha256("".join(digests).encode()).hexdigest()
    lines.append(f"outputs_sha256={run_digest} over {len(digests)} ops")
    lines.append("op_sha256=" + ",".join(d[:16] for d in digests))
    lines.append(f"ops={attempted} failed_ops={len(failed)}")
    lines.extend(f"{k}={v:.6g} {unit}" for k, (v, unit) in metrics.items())
    result = {"correct": correct, "attempted": attempted, "failed": len(failed),
              "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()}}
    return result, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.KINDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "jetiso", "cli.py")):
        print(f"error: no jetiso sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # on SIGTERM, unwind so that subprocess.run kills and reaps the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    try:
        result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
