#!/usr/bin/env python3
"""Benchmark runner for the fairmis libraries.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds perfbench/fmbench.exe with
dune, then runs repetitions of one workload, each in a fresh process, for
about S seconds. Prints a human-readable report and, as the last stdout
line, one JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics (medians over repetitions).
--trace 1 runs one untraced and one traced repetition at 2 domains (and,
on table1-full, an untraced one at 1 domain), checks that their
digests and exact counts agree, and reports the per-layer metrics plus
the tracing overhead. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "fmbench.exe")
WORK = os.path.join(ROOT, ".perfbench_work")
UNIT_TIMEOUT = 170

# The workloads, each with what its throughput counts and what one
# operation is.
OPS = {
    "table1-full": ("trials", "one sweep of the 12 Table I cells"),
    "xl-1e6": ("trials", "one verified Luby + FairTree trial pair"),
    "serve-steady": ("events", "one served batch (parse, repair, check)"),
}


def metric_spec():
    """(name, unit) lists of the end-to-end and per-layer metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return tuple([(m["name"], m["unit"]) for m in spec[k]]
                 for k in ("end_to_end", "per_layer"))


class BenchError(Exception):
    pass


def log(msg):
    print(msg, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        raise BenchError("no dune-project at %s: not a source checkout" % ROOT)
    dune = shutil.which("dune")
    if dune is None:
        raise BenchError("dune not found on PATH")
    # The shared dune cache lives outside the checkout; keep it off.
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        [dune, "build", "--root", ROOT, "./perfbench/fmbench.exe"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, timeout=850)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        raise BenchError("build failed")


def fmbench(args):
    """Run fmbench with args; return (parsed last stdout line, wall seconds)."""
    t0 = time.perf_counter()
    proc = subprocess.run([EXE] + args, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          timeout=UNIT_TIMEOUT)
    wall = time.perf_counter() - t0
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError("fmbench %s exited with %d" % (" ".join(args), proc.returncode))
    lines = proc.stdout.strip().splitlines()
    return (json.loads(lines[-1]) if lines else None), wall


def input_seed(workload, seed, rep):
    """Seed of repetition rep's inputs. Serve repetitions each get their
    own stream, so a run's medians average over streams as well as over
    processes; the other workloads repeat the same inputs."""
    return seed * 64 + rep if workload == "serve-steady" else seed


def unit(workload, seed, trace=False, domains=1):
    """One repetition in a fresh process; its result with wall_s added."""
    args = ["run", "--workload", workload, "--seed", str(seed),
            "--domains", str(domains)]
    stream = None
    if trace:
        args.append("--trace")
    try:
        if workload == "serve-steady":
            # The stream is generated before timing, outside wall_s.
            os.makedirs(WORK, exist_ok=True)
            stream = os.path.join(WORK, "serve-%d-%d.jsonl" % (seed, os.getpid()))
            fmbench(["gen", "--seed", str(seed), "--out", stream])
            args += ["--stream", stream]
        res, wall = fmbench(args)
        if res is None:
            raise BenchError("fmbench %s printed no result" % " ".join(args))
    finally:
        if stream and os.path.exists(stream):
            os.remove(stream)
    res["wall_s"] = wall
    res["seed"] = seed
    return res


def percentile(q, xs):
    """Nearest-rank percentile, as fmbench computes it."""
    s = sorted(xs)
    return s[max(0, min(len(s) - 1, math.ceil(q * len(s)) - 1))]


def check_agreement(units):
    """Digests and exact counts must agree between repetitions of the same
    inputs (keys only some repetitions report are not compared)."""
    ok = True
    for seed in sorted({u["seed"] for u in units}):
        same = [u for u in units if u["seed"] == seed]
        for what in ("digests", "counts"):
            for k in sorted(set().union(*(u[what] for u in same))):
                vals = [u[what][k] for u in same if k in u[what]]
                if any(v != vals[0] for v in vals):
                    log("  MISMATCH %s %s (seed %d): %s" % (what, k, seed, vals))
                    ok = False
    return ok


def print_identity(units):
    seen = set()
    for u in units:
        if u["seed"] in seen:
            continue
        seen.add(u["seed"])
        log("  digests (seed %d): %s" % (u["seed"], ", ".join("%s=%s" % kv for kv in u["digests"].items())))
        log("  counts  (seed %d): %s" % (u["seed"], ", ".join("%s=%s" % kv for kv in u["counts"].items())))


def run_untraced(workload, seed, seconds, end_to_end):
    units = []
    t0 = time.perf_counter()
    while True:
        units.append(unit(workload, input_seed(workload, seed, len(units))))
        elapsed = time.perf_counter() - t0
        if elapsed + max(u["wall_s"] for u in units) > seconds:
            break
    n = len(units)
    ops = [x for u in units for x in u["op_ms"]]
    metrics = {
        "wall_s": statistics.median(u["wall_s"] for u in units),
        "setup_s": statistics.median(u["setup_s"] for u in units),
        "throughput_per_s": statistics.median(u["throughput"] for u in units),
        "op_ms_p50": percentile(0.5, ops),
        "peak_heap_mb": statistics.median(u["peak_heap_mb"] for u in units),
    }
    attempted = sum(u["attempted"] for u in units)
    failed = sum(u["failed"] for u in units)
    what, op = OPS[workload]
    log("== %s  seed=%d  %d repetition(s), one fresh process each" % (workload, seed, n))
    desc = {
        "wall_s": "process wall time, median of %d" % n,
        "setup_s": "before the first timed op, median of %d" % n,
        "throughput_per_s": "%s_per_s, median of %d" % (what, n),
        "op_ms_p50": "%s, median of %d" % (op, len(ops)),
        "peak_heap_mb": "top heap at exit, median of %d" % n,
    }
    for name, unit_ in end_to_end:
        log("  %-18s %14.6g %-4s %s" % (name, metrics[name], unit_, desc[name]))
    if len(ops) >= 1000:
        log("  %-18s %14.6g %-4s p99 of %d (%d beyond; printed, not gated)"
            % ("op_ms_p99", percentile(0.99, ops), "ms", len(ops),
               len(ops) - math.ceil(0.99 * len(ops))))
    log("  %-18s %14.6g %-4s %d failed of %d attempted"
        % ("fail_share", failed / attempted, "", failed, attempted))
    if workload == "serve-steady":
        for u in units:
            q = ", ".join("%d/%d" % (p["live"], p["crashed"]) for p in u["quartiles"])
            log("  live/crashed nodes at each churn quartile (seed %d): %s" % (u["seed"], q))
    print_identity(units)
    correct = check_agreement(units) and failed == 0
    return correct, attempted, failed, metrics


def run_traced(workload, seed, per_layer):
    seed = input_seed(workload, seed, 0)
    # table1-full is traced at 2 domains so the worker pool runs. Its gated
    # end-to-end runs use 1 domain (see README.md); that configuration is
    # the third process, and the engine promises bit-identical counts at
    # any domain count.
    base = unit(workload, seed, domains=2)
    traced = unit(workload, seed, trace=True, domains=2)
    units = [base, traced]
    if workload == "table1-full":
        units.append(unit(workload, seed))
    layers = dict(traced["layers"])
    layers["trace.overhead"] = traced["wall_s"] / base["wall_s"]
    metrics = {name: float(layers.get(name, 0)) for name, _ in per_layer}
    attempted = sum(u["attempted"] for u in units)
    failed = sum(u["failed"] for u in units)
    log("== %s  seed=%d  traced (untraced, traced%s: one fresh process each)"
        % (workload, seed, ", 1-domain untraced" if len(units) > 2 else ""))
    for name, unit_ in per_layer:
        log("  %-26s %14.6g %s" % (name, metrics[name], unit_))
    print_identity(units)
    correct = check_agreement(units) and failed == 0
    return correct, attempted, failed, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(OPS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    try:
        build()
        end_to_end, per_layer = metric_spec()
        if a.trace:
            correct, attempted, failed, metrics = run_traced(a.workload, a.seed, per_layer)
            units = dict(per_layer)
        else:
            correct, attempted, failed, metrics = run_untraced(
                a.workload, a.seed, a.seconds, end_to_end)
            units = dict(end_to_end)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as e:
        sys.stderr.write("perfbench: %s\n" % e)
        return 1
    finally:
        if os.path.isdir(WORK) and not os.listdir(WORK):
            os.rmdir(WORK)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
