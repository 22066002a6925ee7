"""parcornet benchmark: one workload per call, one JSON result line.

    python3 perfbench/run.py --workload select-gauss-p60 --seed 1 --seconds 45 --trace 0

With --trace 0 it times the workload closed-loop (one caller, each unit
starting when the previous one returned) for about --seconds seconds,
with no tracing, and reports the end-to-end metrics. Timed work is
reported in reference-host seconds (hostspeed.py); the plain wall-time
figures are in the context line. With --trace 1 it
runs one pass over the workload's units untraced and one pass traced,
and reports the per-layer metrics; the spans go to
.perfbench_out/trace-<workload>-seed<seed>.jsonl. Both modes check every
output and print, as the last line of stdout,

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

preceded by one line of non-gating context (result digest, src/ line
count, library versions, BLAS threads, nproc). The exit code is 0 when
every check passed, 1 when one failed, and 2 when the checkout has no
parcornet sources or the workload is unknown.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings

import env

# setup_s is the median of this many import timings plus the median of as
# many input builds; imports are timed in fresh interpreters.
SETUP_REPEATS = 5
IMPORT_PROBE = "import parcornet.cli"
END_TO_END_UNITS = {
    "ref_fits_per_s": "1/s",
    "ref_fit_s_p50": "s",
    "setup_s": "s",
    "f1_median": "ratio",
    "ok_frac": "ratio",
    "peak_rss_mb": "MiB",
}
OUT_DIR = env.ROOT / ".perfbench_out"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def timed_loop(wl, inputs, seconds: float) -> tuple:
    """Cycle through the units until the next one would end past seconds.

    The first pass over all units always runs, whatever seconds says.
    Returns the units and the (start, end) clock span of each call.
    """
    units, spans = [], []
    busy = 0.0
    while len(units) < wl.count or busy + busy / len(units) <= seconds:
        t0 = time.perf_counter()
        unit = wl.run(inputs, len(units) % wl.count)
        spans.append((t0, time.perf_counter()))
        units.append(unit)
        busy += unit.wall
    return units, spans


def import_seconds() -> float:
    """Wall seconds for a fresh interpreter to start, import the CLI and exit."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_PROBE], check=True,
                   env={**os.environ, "PYTHONPATH": str(env.SRC)})
    return time.perf_counter() - t0


def src_line_count() -> int:
    return sum(len(f.read_text().splitlines()) for f in sorted(env.SRC.rglob("*.py")))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        env.prepare()
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # unconverged-regression warnings are counted by the traced run instead
    warnings.simplefilter("ignore")

    import numpy
    import scipy

    import hostspeed
    import tracing
    import workloads

    table = workloads.workloads()
    if args.workload not in table:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(table)}",
              file=sys.stderr)
        return 2
    wl = table[args.workload]

    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{wl.name}-seed{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        builds = []
        for _ in range(SETUP_REPEATS):
            workdir.mkdir()
            t0 = time.perf_counter()
            inputs = wl.build(args.seed, workdir)
            builds.append(time.perf_counter() - t0)
            if len(builds) < SETUP_REPEATS:
                shutil.rmtree(workdir)

        if args.trace:
            untraced = [wl.run(inputs, k) for k in range(wl.count)]
            tracer = tracing.Tracer()
            with tracing.installed(tracer):
                traced = [wl.run(inputs, k, tracer) for k in range(wl.count)]
            tracer.write(OUT_DIR / f"trace-{wl.name}-seed{args.seed}.jsonl")
            units = untraced + traced
            overhead = sum(u.wall for u in traced) - sum(u.wall for u in untraced)
            metrics = tracer.layer_metrics(overhead)
        else:
            sampler = hostspeed.Sampler()
            with sampler.running():
                units, spans = timed_loop(wl, inputs, args.seconds)
        rss_mb = peak_rss_mb()
        outcome = wl.check(inputs, units)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    imports = [] if args.trace else [import_seconds() for _ in range(SETUP_REPEATS)]

    attempted = sum(u.fits for u in units)
    failed = sum(u.failed for u in units)
    correct = not outcome.violations and bool(outcome.f1)
    for v in outcome.violations:
        print(f"check failed: {v}", file=sys.stderr)
    context = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "result_digest": outcome.digest,
        "frobenius_median": statistics.median(outcome.frobenius) if outcome.frobenius else None,
        "units": len(units),
        "unit_walls_s": [round(u.wall, 4) for u in units],
        "setup_builds_s": builds,
        "setup_imports_s": imports,
        "src_lines": src_line_count(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
        "blas_threads": env.BLAS_THREADS,
        "nproc": env.nproc(),
    }
    if not args.trace:
        ref = [sampler.ref_seconds(t0, t1, u.wall) for u, (t0, t1) in zip(units, spans)]
        wall = [u.wall - sum(sampler.between(t0, t1)) for u, (t0, t1) in zip(units, spans)]
        speed = statistics.fmean(1.0 / s for _, s in sampler.samples)
        context.update({
            "wall_fits_per_s": attempted / sum(wall),
            "wall_fit_s_p50": statistics.median(w / max(u.fits, 1) for w, u in zip(wall, units)),
            "unit_ref_s": [round(r, 4) for r in ref],
            "host_slowdown": 1.0 / (speed * hostspeed.REF_KERNEL_S),
            "kernel_samples": len(sampler.samples),
        })
        values = {
            "ref_fits_per_s": attempted / sum(ref),
            "ref_fit_s_p50": statistics.median(r / max(u.fits, 1) for r, u in zip(ref, units)),
            "setup_s": statistics.median(imports) + statistics.median(builds),
            "f1_median": statistics.median(outcome.f1) if outcome.f1 else 0.0,
            "ok_frac": (attempted - failed) / attempted,
            "peak_rss_mb": rss_mb,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    print(json.dumps({"context": context}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
