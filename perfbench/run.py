"""eulerseq benchmark: run one workload's job list back to back and report.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload klc-confirm --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py                 # all workloads, seed 0

Load is a closed loop with one caller: one process, one thread, each job
starting when the previous one returns, so no job ever waits in a queue.
Passes over the job list repeat until ``--seconds`` have elapsed; every
output is checked after its pass, outside the timed region.

Times are reported at a fixed reference speed. On a shared host the CPU's
speed swings by up to 2x within a minute, and CPU time swings with wall
time, so neither is steady on its own. While each job runs, the benchmark
therefore times a fixed loop of its own (``calibrate``) every
``SAMPLE_INTERVAL_S`` from a timer signal, and rescales the job's wall time
(less the time spent in the loop) by ``CAL_REF_S`` over the median loop time.
Raw wall times are printed too. The run also fixes ``PYTHONHASHSEED``.

With ``--trace 0`` the run reports the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it alternates untraced and traced
passes and reports the per-layer metrics (see ``tracer.py``), including the
tracing overhead and a count self-check across the traced passes. The last
line of standard output is one JSON object per workload.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import COUNT_METRICS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 11
HASH_SEED = "0"
SAMPLE_INTERVAL_S = 0.05
CAL_REF_S = 0.001  # typical time of calibrate() on the machine in baseline.json
perf = time.perf_counter


def calibrate() -> float:
    """Wall time of a fixed loop of small-integer arithmetic and modular powers.

    It calls no eulerseq code and allocates no containers, so no change to
    the program under test (garbage-collector settings included) changes
    its cost.
    """
    start = perf()
    acc = 0
    for i in range(6000):
        acc = (acc * 31 + i) % 1000003
    for u in range(1, 80):
        pow(u, 1458, 3486784401)
    return perf() - start


def timed(fn) -> tuple[object, float, float]:
    """Run fn with speed sampling: (result or exception, wall s, s at reference speed).

    The wall time excludes the calibration loops run from the timer signal.
    """
    samples, paused = [calibrate()], [0.0]

    def tick(signum, frame):
        start = perf()
        samples.append(calibrate())
        paused[0] += perf() - start

    previous = signal.signal(signal.SIGALRM, tick)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
    start = perf()
    try:
        result = fn()
    except Exception as exc:  # counted as a failed job, not a crashed run
        result = exc
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        wall = perf() - start - paused[0]
        signal.signal(signal.SIGALRM, previous)
    samples.append(calibrate())
    return result, wall, wall * CAL_REF_S / statistics.median(samples)


def measure_setup() -> tuple[list[float], list[float], str | None]:
    """Fresh interpreters that import eulerseq and print the CLI help:
    (wall times, times at reference speed, error)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-m", "eulerseq.cli", "--help"]
    walls, scaled = [], []
    cpus = os.sched_getaffinity(0)
    # The child inherits one CPU with this process, so the calibration loop
    # measures the speed of the CPU the child runs on.
    os.sched_setaffinity(0, {min(cpus)})
    try:
        for _ in range(SETUP_REPEATS):
            proc, wall, ref = timed(
                lambda: subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, timeout=60))
            walls.append(wall)
            scaled.append(ref)
            if isinstance(proc, Exception):
                return walls, scaled, f"CLI help failed: {proc!r}"
            if proc.returncode != 0 or not proc.stdout.startswith(b"usage: eulerseq"):
                return walls, scaled, f"CLI help exited {proc.returncode}: {proc.stderr[-200:]!r}"
    finally:
        os.sched_setaffinity(0, cpus)
    return walls, scaled, None


def run_pass(jobs, tracer=None) -> tuple[float, list[float], list]:
    """One pass over the job list: (wall s, each job's s at reference speed, results).

    A job that raises yields its exception as its result.
    """
    gc.collect()
    results, wall, scaled = [], 0.0, []
    for index, job in enumerate(jobs):
        if tracer is not None:
            tracer.request = index
        result, job_wall, job_ref = timed(job.run)
        results.append(result)
        wall += job_wall
        scaled.append(job_ref)
    return wall, scaled, results


def check_pass(jobs, results) -> tuple[list[str], int, int]:
    """Failure reasons, and (exact, total) k-error profile entries."""
    failures, exact, total = [], 0, 0
    for job, result in zip(jobs, results):
        if isinstance(result, Exception):
            failures.append(f"{job.label}: raised {result!r}")
            continue
        try:
            reason = job.check(result)
        except (ValueError, KeyError, TypeError) as exc:
            reason = f"unreadable output ({exc!r})"
        if reason:
            failures.append(f"{job.label}: {reason}")
        else:
            e, t = job.profile_counts(result)
            exact, total = exact + e, total + t
    return failures, exact, total


def _metric_block(spec: list[dict], values: dict) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def timed_run(name, jobs, seconds, spec) -> tuple[dict, list[str]]:
    setup_walls, setup_times, setup_error = measure_setup()
    failures = [f"setup: {setup_error}"] if setup_error else []
    walls, job_times, attempted, failed = [], [], 0, 0
    exact = total = 0
    start = perf()
    while not walls or perf() - start < seconds:
        wall, per_job, results = run_pass(jobs)
        walls.append(wall)
        job_times.append(per_job)
        pass_failures, exact, total = check_pass(jobs, results)
        attempted += len(jobs)
        failed += len(pass_failures)
        failures += pass_failures
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    totals = [sum(t) for t in job_times]
    values = {
        # Each job's median over the passes, summed: a burst of host load
        # that slows one job in one pass does not move it.
        "pass_s": sum(statistics.median(t) for t in zip(*job_times)),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb,
        # A workload that requests no profile entries has all of them exact.
        "exact_frac": exact / total if total else 1.0,
        "ok_frac": (attempted - failed) / attempted,
    }
    print(f"workload {name}: {len(jobs)} jobs per pass, {len(walls)} passes, "
          f"closed loop, 1 caller")
    print(f"  pass_s      {values['pass_s']:.4f} s   sum of per-job medians over "
          f"{len(walls)} passes (pass totals [{', '.join(f'{t:.3f}' for t in totals)}], "
          f"median {statistics.median(totals):.4f}); too few for a tail percentile; "
          f"raw wall median {statistics.median(walls):.4f} s")
    print(f"  setup_s     {values['setup_s']:.4f} s   median of {len(setup_times)} "
          f"fresh 'python -m eulerseq.cli --help'; raw wall median "
          f"{statistics.median(setup_walls):.4f} s")
    print(f"  peak_rss_mb {peak_rss_mb:.1f} MB")
    print(f"  exact_frac  {values['exact_frac']:.4f}     {exact}/{total} k-error "
          f"profile entries exact (last pass)")
    print(f"  fail_frac   {failed / attempted:.4f}     {failed}/{attempted} jobs "
          f"(ok_frac {values['ok_frac']:.4f})")
    doc = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": _metric_block(spec["end_to_end"], values),
    }
    return doc, failures


def traced_run(name, seed, jobs, seconds, spec) -> tuple[dict, list[str]]:
    untraced, traced, per_pass, spans = [], [], [], []
    failures, attempted = [], 0
    start = perf()
    while len(traced) < 2 or perf() - start < seconds:
        _, per_job, results = run_pass(jobs)
        untraced.append(sum(per_job))
        failures += check_pass(jobs, results)[0]
        tracer = Tracer()
        tracer.install()
        try:
            wall, per_job, results = run_pass(jobs, tracer)
        finally:
            tracer.uninstall()
        dt = sum(per_job)
        traced.append(dt)
        failures += check_pass(jobs, results)[0]
        attempted += 2 * len(jobs)
        # Layer times move to the reference speed with their pass.
        per_pass.append({k: v * dt / wall if k.endswith("_s") else v
                         for k, v in tracer.metrics().items()})
        spans.append(tracer.spans)
    failed = len(failures)

    first = per_pass[0]
    mismatched = sorted({k for m in per_pass[1:] for k in COUNT_METRICS if m[k] != first[k]})
    for key in mismatched:
        failures.append(f"count {key} differs between traced passes: "
                        f"{[m[key] for m in per_pass]}")
    values = {k: (first[k] if k in COUNT_METRICS
                  else statistics.median(m[k] for m in per_pass)) for k in first}
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    values["trace.count_mismatches"] = len(mismatched)

    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{name}-seed{seed}.json"
    try:  # counts repeat exactly unless the program changed since that run
        previous = json.loads(trace_file.read_text())["passes"][0]["metrics"]
    except (OSError, ValueError, KeyError, IndexError):
        previous = first
    for key in COUNT_METRICS:
        if previous.get(key) != first[key]:
            print(f"note: count {key} is {first[key]}, the previous traced run of this "
                  f"seed gave {previous.get(key)}", file=sys.stderr)
    trace_file.write_text(json.dumps({
        "workload": name,
        "seed": seed,
        "jobs": [job.label for job in jobs],
        "span_fields": ["id", "parent", "request", "layer", "start", "end"],
        "passes": [{"pass_s": t, "metrics": m, "spans": s}
                   for t, m, s in zip(traced, per_pass, spans)],
    }))
    print(f"workload {name}: {len(traced)} traced and {len(untraced)} untraced passes; "
          f"spans in {trace_file.relative_to(ROOT)}")
    for key, value in values.items():
        print(f"  {key:38} {value:.6g}")
    doc = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": _metric_block(spec["per_layer"], values),
    }
    return doc, failures


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # String-hash randomization moved a run's pass_s by up to 10% from
        # one process to the next; a fixed seed removes that.
        os.execve(sys.executable, [sys.executable, __file__, *sys.argv[1:]],
                  dict(os.environ, PYTHONHASHSEED=HASH_SEED))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_file = ROOT / "BENCHMARK.json"
    if not (SRC / "eulerseq" / "cli.py").is_file() or not spec_file.is_file():
        print(f"error: {ROOT} holds no eulerseq checkout (src/eulerseq, BENCHMARK.json)",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_file.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload == "all":  # one process each, so peak_rss_mb is per workload
        status = 0
        for name in names:
            status |= subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)]).returncode
        return status
    if args.workload not in names:
        parser.error(f"--workload must be 'all' or one of {names}")
    sys.path.insert(0, str(SRC))
    import eulerseq

    if Path(eulerseq.__file__).resolve().parent != SRC / "eulerseq":
        print(f"error: imported eulerseq from {eulerseq.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    name = args.workload
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        jobs = workloads.build(name, args.seed, workdir)
        print(f"seed {args.seed}; jobs: " + "; ".join(j.label for j in jobs))
        if args.trace:
            doc, failures = traced_run(name, args.seed, jobs, args.seconds, spec)
        else:
            doc, failures = timed_run(name, jobs, args.seconds, spec)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for reason in dict.fromkeys(failures):
        print(f"FAIL {reason}", file=sys.stderr)
    print(json.dumps(doc), flush=True)
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
