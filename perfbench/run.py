#!/usr/bin/env python3
"""so2frames benchmark: one closed-loop client per workload.

    python3 perfbench/run.py --workload predict-stream --seed 1 --seconds 30 --trace 0

Run from the repository root; the library is imported from ``src/``.
With ``--trace 0`` it prints the end-to-end metrics (set-up time, median
and tail op latency and throughput relative to a reference kernel timed in
the same run, the same in milliseconds, peak RSS, failed fraction); with
``--trace 1`` it runs the same loop in alternating untraced and traced
rounds, and prints per-layer span times and counts and the tracing overhead.  Every op's
output is checked outside its timed interval.  The last line of stdout is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import time

T_START = time.monotonic()  # setup_s counts from here, before the imports

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import envinfo  # noqa: E402

envinfo.pin_threads()

# Reference-kernel time after each op, as a share of the op's time.
REFERENCE_SHARE = 0.1

def import_library() -> None:
    src = ROOT / "src"
    if not (src / "so2frames" / "__init__.py").is_file():
        raise SystemExit(f"error: no so2frames package under {src}")
    sys.path.insert(0, str(src))
    import so2frames
    if Path(so2frames.__file__).resolve().parent != src / "so2frames":
        raise SystemExit(f"error: so2frames imported from {so2frames.__file__}, not {src}")


def child_setup(args) -> float:
    """Set-up time of a fresh process running the same workload and seed."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def run_loop(workload, seconds: float, first_cycle: int, tracer=None, reference=None) -> dict:
    """Whole rounds of cycles until ``seconds`` of loop time have passed.

    Cycles go round-robin over the usable CPUs: cycle ``c`` runs on CPU
    ``c mod ncpu``.  On a shared host each CPU's speed drifts on its own
    over tens of seconds, and a process left on one CPU would measure
    that one CPU's drift; spreading the cycles samples all of them within
    every run.  A round is one cycle per CPU, so every CPU runs each input
    shape equally often, and a quantile does not depend on how the ops of
    one shape happened to fall on a fast and a slow CPU.

    With a ``reference`` kernel, each op is followed by runs of the kernel
    until they have taken a tenth of the op's time, so the kernel samples
    the host's speed evenly over the run and on every CPU.  Its times are
    returned apart from the ops' and are never counted as op time; the
    CPU of every op and every kernel run is returned with it.
    """
    from so2frames.counters import OpCounter
    from workloads import CheckFailed

    cpus = sorted(os.sched_getaffinity(0))
    latencies, failures, ref_times, op_cpus, ref_cpus = [], [], [], [], []
    deadline = time.monotonic() + seconds
    c = first_cycle
    try:
        while c == first_cycle or (c - first_cycle) % len(cpus) or time.monotonic() < deadline:
            cpu = cpus[c % len(cpus)]
            os.sched_setaffinity(0, {cpu})
            for inp in workload.cycle(c):
                op_id = len(latencies)
                counter = OpCounter() if tracer is not None else None
                if tracer is not None:
                    tracer.begin_op(op_id)
                out, error = None, None
                start = time.perf_counter()
                try:
                    out = workload.op(inp, counter)
                except Exception as err:  # a failing op is counted, never dropped
                    error = f"op raised {type(err).__name__}: {err}"
                latencies.append(time.perf_counter() - start)
                op_cpus.append(cpu)
                if tracer is not None:
                    tracer.end_op(workload.shape_key(inp), counter)
                if error is None:
                    try:
                        workload.check(inp, out)
                    except CheckFailed as err:
                        error = f"check failed: {err}"
                    except Exception as err:
                        error = f"check raised {type(err).__name__}: {err}"
                if error is not None:
                    failures.append(f"cycle {c}: {error}")
                spent = 0.0
                while reference is not None and spent < REFERENCE_SHARE * latencies[-1]:
                    start = time.perf_counter()
                    reference()
                    ref_times.append(time.perf_counter() - start)
                    ref_cpus.append(cpu)
                    spent += ref_times[-1]
            c += 1
    finally:
        os.sched_setaffinity(0, cpus)
    return {"latencies": latencies, "failures": failures, "next_cycle": c,
            "op_cpus": op_cpus, "reference": ref_times, "ref_cpus": ref_cpus}


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args, workload, setup_s: float) -> tuple[dict, dict, dict, dict]:
    """Set-up time, op times relative to the reference kernel, peak RSS.

    Each op's time is divided by the mean time of the reference kernel on
    the op's CPU, timed between the ops of the same run (see
    ``reference.py``).  A slow stretch of the host, or a slower CPU, slows
    both alike, so the ratios move with the program and hardly with the
    host.  The same figures in milliseconds are printed beside them.
    """
    import numpy as np
    import reference

    # setup_s is the median of three set-ups: this process's, and one fresh
    # process before and one after the loop, which see the machine at
    # moments far apart.
    setups = [setup_s, child_setup(args)]
    expected = reference.kernel()  # warm-up; every later call must return the same
    loop = run_loop(workload, args.seconds, 0, reference=reference.kernel)
    setups.append(child_setup(args))
    if reference.kernel() != expected:
        loop["problems"] = ["the reference kernel returned another value"]
    lat = np.asarray(loop["latencies"])
    ref = np.asarray(loop["reference"])
    ref_cpus = np.asarray(loop["ref_cpus"])
    unit_of = {cpu: float(np.mean(ref[ref_cpus == cpu])) for cpu in set(loop["ref_cpus"])}
    rel = lat / np.array([unit_of[cpu] for cpu in loop["op_cpus"]])
    n = len(lat)
    p = workload.tail_percentile
    beyond = int(np.sum(lat > np.percentile(lat, p)))
    unit = float(np.mean(ref))
    metrics = {
        "setup_s": metric(float(np.median(setups)), "s"),
        "op_p50_rel": metric(float(np.median(rel)), "ref"),
        "op_tail_rel": metric(float(np.percentile(rel, p)), "ref"),
        "ops_per_kref": metric(1e3 * n / float(np.sum(rel)), "1/kref"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    raw = {
        "op_ms_p50": (float(np.median(lat)) * 1e3, "ms", f"n={n}"),
        "op_ms_tail": (float(np.percentile(lat, p)) * 1e3, "ms",
                       f"p{p:g}, n={n}, {beyond} beyond"
                       + ("" if beyond >= 10 else "; fewer than ten beyond")),
        "ops_per_s": (n / float(np.sum(lat)), "1/s",
                      f"{n} ops in {float(np.sum(lat)):.2f} s of op time"),
        "ref_ms": (unit * 1e3, "ms", f"mean of {len(ref)} reference kernels, "
                                     f"{float(np.sum(ref)):.2f} s; by CPU "
                                     + ", ".join(f"{cpu}: {u * 1e3:.3f}"
                                                 for cpu, u in sorted(unit_of.items()))),
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups: "
                   + ", ".join(f"{s:.3f}" for s in setups),
        "op_p50_rel": "median of op time / ref_ms of its CPU",
        "op_tail_rel": f"p{p:g} of op time / ref_ms of its CPU",
        "ops_per_kref": "ops per 1000 reference kernels' time",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    return loop, metrics, notes, raw


def traced(args, workload) -> tuple[dict, dict, dict, object]:
    """Untraced and traced rounds in turn, so both see the same machine."""
    from tracing import Tracer

    tracer = Tracer()
    plain, traced_lat, failures = [], [], []
    deadline = time.monotonic() + args.seconds
    c = 0
    while c == 0 or time.monotonic() < deadline:
        loop = run_loop(workload, 0, c)
        plain += loop["latencies"]
        failures += loop["failures"]
        tracer.install()
        try:
            loop = run_loop(workload, 0, loop["next_cycle"], tracer)
        finally:
            tracer.uninstall()
        traced_lat += loop["latencies"]
        failures += loop["failures"]
        c = loop["next_cycle"]
    rate_plain = len(plain) / sum(plain)
    rate_traced = len(traced_lat) / sum(traced_lat)
    metrics = {name: metric(value, unit) for name, (value, unit) in tracer.per_op().items()}
    metrics["trace.overhead"] = metric(rate_plain / rate_traced, "ratio")
    notes = {"trace.overhead": f"untraced {rate_plain:.4f} ops/s over {len(plain)} ops, "
                               f"traced {rate_traced:.4f} ops/s over {len(traced_lat)} ops"}
    return {"latencies": plain + traced_lat, "failures": failures,
            "problems": tracer.problems}, metrics, notes, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("predict-stream", "fit-steps", "evaluate"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit (used for setup_s)")
    args = parser.parse_args(argv)

    import_library()
    from workloads import WORKLOADS

    out_dir = HERE / "out"
    workdir = out_dir / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, str(workdir))
        setup_s = time.monotonic() - T_START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        env = envinfo.record(ROOT)
        raw = {}
        if args.trace:
            loop, metrics, notes, tracer = traced(args, workload)
            trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
            tracer.write(str(trace_path), {"workload": args.workload, "seed": args.seed,
                                           "env": env})
            notes["spans"] = f"{len(tracer.spans)} spans written to {trace_path.relative_to(ROOT)}"
            if tracer.absent:
                notes["absent"] = "spans absent from the library: " + ", ".join(tracer.absent)
        else:
            loop, metrics, notes, raw = end_to_end(args, workload, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = loop.get("problems", []) + workload.run_problems()
    attempted = len(loop["latencies"])
    failed = len(loop["failures"])
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  (one closed-loop client)")
    print("env " + json.dumps(env, sort_keys=True))
    for name, m in metrics.items():
        note = notes.get(name)
        print(f"  {name:44s} {m['value']:14.6g} {m['unit']:10s}" + (f"  ({note})" if note else ""))
    for name, (value, unit, note) in raw.items():
        print(f"  {name:44s} {value:14.6g} {unit:10s}  ({note})")
    print(f"  {'failed_frac':44s} {failed / attempted:14.6g} {'ratio':10s}  "
          f"({failed} of {attempted} ops)")
    for key in ("spans", "absent"):
        if key in notes:
            print(f"  {notes[key]}")
    for line in loop["failures"] + problems:
        print(f"  FAIL {line}")
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
