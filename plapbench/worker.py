"""One workload in one fresh process; started by run.py.

With --setup-only it imports plapeig, builds the workload's inputs, prints
`ready` and exits: run.py times that from the spawn.  Otherwise it makes
one untimed reduced-size pass, then timed passes until --seconds have gone
by (reading its peak RSS after the first), checks the outputs of every
pass, and prints one JSON line.  With --trace 1 it alternates untraced and traced windows (each
builds the inputs and makes one pass) and reports per-layer figures from
the traced ones.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import resource
import statistics
import sys
import time


def _parse(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default="")
    ap.add_argument("--spans", default="")
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    import plapeig
    import workloads

    src = os.path.realpath(os.path.join(os.path.dirname(__file__), "..", "src"))
    if not os.path.realpath(plapeig.__file__).startswith(src + os.sep):
        print(f"plapeig was imported from {plapeig.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    build, run, check = workloads.WORKLOADS[args.workload]
    inputs = build(args.seed)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    run(build(args.seed, small=True), os.path.join(args.out, "warmup"), True)
    passes = _traced_passes if args.trace else _timed_passes
    result = passes(args, build, run, inputs)
    result["checks"] = [[c.name, bool(c.ok), c.detail]
                        for c in check(inputs, result.pop("records"))]
    print(json.dumps(result), flush=True)
    return 0


class _LevelMarks(logging.Handler):
    """Clock readings at the adaptive loop's per-level log records ("loop
    k: ..."), which plapeig.driver emits whether or not anyone listens;
    they cut an afem pass into one segment per level."""

    def __init__(self):
        super().__init__(logging.INFO)
        self.marks = []

    def emit(self, record):
        self.marks.append(time.perf_counter())


def _timed_passes(args, build, run, inputs):
    """Whole passes until args.seconds have gone by, each cut into segments
    at the level marks.  The peak RSS is read after the first timed pass:
    later passes only add allocator fragmentation, which varies with the
    number of passes."""
    times, segments, records, failures = [], [], [], []
    attempted = 0
    levels = _LevelMarks()
    logging.getLogger("plapeig.driver").addHandler(levels)
    start = time.perf_counter()
    while not times or time.perf_counter() - start < args.seconds:
        out_dir = os.path.join(args.out, f"pass{len(times)}")
        levels.marks.clear()
        t0 = time.perf_counter()
        n, failed, record = run(inputs, out_dir, not times)
        t1 = time.perf_counter()
        times.append(t1 - t0)
        bounds = [t0, *levels.marks, t1]
        segments.append([b - a for a, b in zip(bounds, bounds[1:])])
        if len(times) == 1:
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        attempted += n
        failures += failed
        records.append(record)
    logging.getLogger("plapeig.driver").removeHandler(levels)
    return {"times": times, "segments": segments, "attempted": attempted,
            "failures": failures, "peak_rss_mb": peak, "records": records}


def _traced_passes(args, build, run, inputs):
    """Pairs of one untraced and one traced window, the order swapped from
    pair to pair; each window builds the inputs and makes one pass, so
    set-up calls show too."""
    from spans import Tracer

    tracer = Tracer()
    plain, traced, summaries, records, failures = [], [], [], [], []
    attempted = 0
    start = time.perf_counter()
    while len(traced) < 1 or time.perf_counter() - start < args.seconds:
        order = (False, True) if len(traced) % 2 == 0 else (True, False)
        for use_tracer in order:
            out_dir = os.path.join(args.out, f"pass{len(records)}")
            if use_tracer:
                tracer.install()
                mark = tracer.mark()
            t0 = time.perf_counter()
            try:
                n, failed, record = run(build(args.seed), out_dir,
                                        not records)
            finally:
                wall = time.perf_counter() - t0
                if use_tracer:
                    tracer.uninstall()
            if use_tracer:
                traced.append(wall)
                summaries.append(tracer.summary(mark))
            else:
                plain.append(wall)
            attempted += n
            failures += failed
            records.append(record)
    if args.spans:
        tracer.write(args.spans)
    mean = statistics.fmean
    layer = {key: mean(s[key] for s in summaries) for key in summaries[0]}
    outer = layer.pop("outer_s")
    layer["trace.wall_s"] = mean(traced)
    layer["trace.unwrapped_s"] = layer["trace.wall_s"] - outer
    layer["trace.overhead_s"] = mean(traced) - mean(plain)
    return {"times": plain, "traced_times": traced, "attempted": attempted,
            "failures": failures, "per_layer": layer, "records": records}


if __name__ == "__main__":
    sys.exit(main())
