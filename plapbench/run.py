"""plapeig benchmark: one workload per call, or all four with --workload all.

    python3 plapbench/run.py --workload afem-lshape-p2 --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout: puts `src` on PYTHONPATH, pins
BLAS and OpenMP to one thread, and starts each workload in fresh
processes.  Prints, per workload, every metric with its unit, the
operations attempted and failed and every check, and as its last line one
JSON object: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are run_s, setup_s and peak_rss_mb; with --trace 1
they are the per-layer figures of a traced run.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("afem-lshape-p2", "afem-square-p3", "psweep-square16",
             "refine-local")
#: Set-ups timed before and after the passes, so that one slow spell of
#: the machine does not set the median.
SETUP_SAMPLES = (2, 3)
DEADLINE_S = 170.0

#: The one operation allowed to fail, and why (see README.md).
KNOWN_FAILURE = ("p=1.2: SolverError: torsion start did not converge",
                 "fixed-unit-penalty DC iteration stalls at p = 1.2")


def _env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def _worker_cmd(workload, seed, *extra):
    return [sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", workload, "--seed", str(seed), *extra]


def _stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def _setup_times(workload, seed, env, deadline, count):
    """Spawn-to-ready time of `count` fresh interpreters."""
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        proc = subprocess.Popen(_worker_cmd(workload, seed, "--setup-only"),
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=env, cwd=ROOT, text=True)
        try:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            _, err = proc.communicate(timeout=max(1.0, deadline - time.time()))
        finally:
            _stop(proc)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up of {workload} failed:\n{err[-2000:]}")
    return times


def _run_worker(workload, seed, seconds, trace, out, env, deadline):
    spans = os.path.join(ROOT, ".plapbench_out",
                         f"spans-{workload}-{seed}.jsonl")
    cmd = _worker_cmd(workload, seed, "--seconds", str(seconds),
                      "--trace", str(trace), "--out", out,
                      *(["--spans", spans] if trace else []))
    log_path = os.path.join(out, "worker.log")
    with open(log_path, "w") as log:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=log,
                                env=env, cwd=ROOT, text=True)
        try:
            stdout, _ = proc.communicate(
                timeout=max(1.0, deadline - time.time()))
        finally:
            _stop(proc)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        with open(log_path) as log:
            tail = log.read()[-3000:]
        raise RuntimeError(f"{workload} exited {proc.returncode}:\n{tail}")
    return json.loads(lines[-1]), spans


def run_workload(workload, seed, seconds, trace):
    """Run one workload; returns (report lines, result object)."""
    deadline = time.time() + DEADLINE_S
    env = _env()
    out = os.path.join(ROOT, ".plapbench_out",
                       f"run-{workload}-{seed}-{os.getpid()}")
    os.makedirs(out, exist_ok=True)
    try:
        setup = _setup_times(workload, seed, env, deadline, SETUP_SAMPLES[0])
        res, spans = _run_worker(workload, seed, seconds, trace, out, env,
                                 deadline)
        setup += _setup_times(workload, seed, env, deadline, SETUP_SAMPLES[1])
    finally:
        shutil.rmtree(out, ignore_errors=True)

    failures = res["failures"]
    unexpected = [f for f in failures if not f.startswith(KNOWN_FAILURE[0])]
    checks = res["checks"]
    correct = all(ok for _, ok, _ in checks)
    lines = [f"== {workload}  seed {seed}  {seconds:g} s  trace {trace}"]
    times = res["times"]
    if trace:
        metrics = {k: {"value": v, "unit": _unit(k)}
                   for k, v in sorted(res["per_layer"].items())}
        lines.append(f"  {len(res['traced_times'])} traced and {len(times)} "
                     f"untraced windows; spans in {os.path.relpath(spans, ROOT)}")
        lines += [f"  {k:<38} {m['value']:.6g} {m['unit']}"
                  for k, m in metrics.items()]
    else:
        n_seg, run_s = fastest_segments(res["segments"])
        metrics = {
            "run_s": {"value": run_s, "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
        lines.append(f"  run_s        {run_s:.4f} s  (fastest time of each of "
                     f"{n_seg} segments over {len(times)} passes, summed)")
        lines.append(f"  passes       {min(times):.4f} s fastest, "
                     f"{statistics.median(times):.4f} s median: "
                     + " ".join(f"{t:.3f}" for t in times))
        lines.append(f"  setup_s      {metrics['setup_s']['value']:.4f} s  "
                     f"(median of {len(setup)} fresh interpreters: "
                     + " ".join(f"{t:.3f}" for t in setup) + ")")
        lines.append(f"  peak_rss_mb  {metrics['peak_rss_mb']['value']:.1f} MB")
    lines.append(f"  operations   {res['attempted']} attempted, "
                 f"{len(failures)} failed")
    for f in sorted(set(failures)):
        known = "" if f in unexpected else f"  [known: {KNOWN_FAILURE[1]}]"
        lines.append(f"    failed x{failures.count(f)}: {f[:160]}{known}")
    lines += [f"  {'PASS' if ok else 'FAIL'} {name}: {detail}"
              for name, ok, detail in checks]
    result = {"correct": correct, "attempted": res["attempted"],
              "failed": len(failures), "metrics": metrics}
    return lines, result


def fastest_segments(segments):
    """`run_s`: the fastest time of each segment of a pass over all passes,
    summed.  Every pass of a run repeats the same operations, so passes cut
    at the same marks (the afem levels) have segments that match one to
    one; on a shared host each segment's fastest time dodges the spells of
    interference that a whole pass rarely escapes (see README.md).  Passes
    cut differently would not match: then the fastest whole pass.
    Returns (segments per pass, value)."""
    if len({len(s) for s in segments}) != 1:
        return 1, min(sum(s) for s in segments)
    return len(segments[0]), sum(min(col) for col in zip(*segments))


def _unit(metric):
    if metric.endswith("_s"):
        return "s"
    return "bytes" if metric.endswith(".bytes") else "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "plapeig", "__init__.py")):
        print(f"no plapeig sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        try:
            lines, result = run_workload(name, args.seed, args.seconds,
                                         args.trace)
        except (RuntimeError, subprocess.TimeoutExpired) as err:
            print(f"benchmark failed: {err}", file=sys.stderr)
            return 1
        print("\n".join(lines))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
