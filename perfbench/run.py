#!/usr/bin/env python3
"""Benchmark entry point for uwbheading.

    python3 perfbench/run.py --workload {fit,monte-carlo,online} --seed N \
        --seconds S --trace {0,1} [--scale {bench,reference}]

Run from the root of a checkout. It imports the package from the checkout's
own `src/` and fails, printing no result, if that is missing. It prints the
environment stamp and every metric with its unit and sample count, and as
its last line one JSON object: {"correct", "attempted", "failed", "metrics"}.
`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer ones
from a run with the tracing wrappers installed. Working files go to
`.bench_work/<workload>-trace<0|1>/` under the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def import_package():
    """Import uwbheading from ROOT/src, refusing any other copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import uwbheading

    where = Path(uwbheading.__file__).resolve()
    if src.resolve() not in where.parents:
        raise ImportError(f"uwbheading imported from {where}, not from {src}")
    return uwbheading


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _blas_threads(module) -> int | None:
    """OpenBLAS thread count of a wheel's bundled library, as found."""
    import ctypes
    import glob

    libs = Path(module.__file__).resolve().parent.parent / f"{module.__name__}.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def environment(args, scale) -> dict:
    import platform
    from dataclasses import asdict

    import numpy
    import scipy

    blas = {}
    for module in (numpy, scipy):
        dep = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas[module.__name__] = {
            "name": dep.get("name"),
            "version": dep.get("version"),
            "threads": _blas_threads(module),
        }
    return {
        "git_sha": _git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_thread_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "sizes": asdict(scale),
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("fit", "monte-carlo", "online"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--scale", choices=("bench", "reference"), default="bench",
        help="bench: what the benchmark measures; reference: the ROADMAP config",
    )
    return ap.parse_args(argv)


def measure(args, workdir):
    """Run the workload; returns (bench, metrics, not applicable)."""
    import tracing
    import workloads

    scale = workloads.SCALES[args.scale]
    tracer = tracing.Tracer() if args.trace else None
    bench = workloads.Bench(args.workload, scale, args.seed, workdir, tracer)
    bench.run(args.seconds, traced=bool(args.trace))
    if not args.trace:
        return bench, bench.end_to_end(), []

    layers, not_applicable = tracing.layer_metrics(tracer, bench.traced_ops, ["setup-0"])
    n = len(bench.traced_ops)
    metrics = {name: (value, unit, n) for name, (value, unit) in layers.items()}
    overhead = min(bench.op_walls["traced"]) - min(bench.op_walls["plain"])
    metrics["trace.overhead_s"] = (overhead, "s", n)
    tracer.write_spans(workdir / "spans.csv")
    return bench, metrics, not_applicable


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_package()
    except ImportError as exc:
        print(f"cannot import uwbheading from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import workloads

    workdir = ROOT / ".bench_work" / f"{args.workload}-trace{args.trace}"
    env = environment(args, workloads.SCALES[args.scale])
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    try:
        bench, metrics, not_applicable = measure(args, workdir)
    except Exception:  # no result can be measured; report and fail
        print("benchmark aborted:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return 1

    for name, (value, unit, n) in metrics.items():
        print(f"{name:38s} {value:>16.6g} {unit:6s} n={n}")
    if not_applicable:
        print(f"not applicable on {args.workload} (reported as 0): {' '.join(not_applicable)}")
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()
        },
    }
    samples = dict(bench.samples)
    samples["epoch_latency_us"] = [a.tolist() for a in bench.latency_us]
    samples["op_walls"] = bench.op_walls
    samples["raw_s"] = bench.raw_s
    (workdir / "result.json").write_text(
        json.dumps({"env": env, "result": result, "samples": samples}) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
