"""Benchmark of slotwalks: one workload per run, single-threaded.

    python3 bench/run.py --workload {train-toy,train-wide,eval-holdout} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from its `src/`.
Every end-to-end metric is printed by name with its unit, then the host
facts, then, as the last line, one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with `--trace 0`, its per-layer metrics with `--trace 1`.
The full record of the run, and with `--trace 1` its spans, are written
under `.bench_out/`.

Exit codes: 0 after a run (check `correct`), 2 when the checkout has no
`src/slotwalks` or more than one BLAS thread would run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

ROOT = Path(__file__).resolve().parent.parent


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=["train-toy", "train-wide", "eval-holdout"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def _blas_threads() -> int | None:
    """Threads the OpenBLAS bundled with numpy will use, when it can be asked."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(str(lib)), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_facts(args, thread_env: dict, blas_threads) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "blas_threads": blas_threads,
        "thread_env": thread_env,
    }


def main(argv=None) -> int:
    args = _parse(argv)
    # as the caller set them; unset ones are forced to 1 below
    thread_env = {v: os.environ.get(v) for v in THREAD_VARS}
    wide = {v: value for v, value in thread_env.items() if value not in (None, "1")}
    if wide:
        print(f"error: refusing to run with more than one thread: {wide}", file=sys.stderr)
        return 2
    for v in THREAD_VARS:
        os.environ[v] = "1"

    src = ROOT / "src"
    if not (src / "slotwalks" / "__init__.py").is_file():
        print(f"error: no slotwalks package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import slotwalks  # noqa: F401  (registers every submodule in sys.modules)

    blas = _blas_threads()
    if blas is not None and blas > 1:
        print(f"error: OpenBLAS would run {blas} threads", file=sys.stderr)
        return 2

    import report
    import tracing
    import workloads

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir))
    run = workloads.Run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    run.clock.install()
    try:
        workloads.RUNNERS[args.workload](run)
        workloads.finish(run)
    finally:
        run.trace_phase(None)
        run.clock.remove()
        shutil.rmtree(workdir, ignore_errors=True)

    facts = host_facts(args, thread_env, blas)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if run.tracer is not None:
        run.tracer.write(out_dir / f"{stem}.spans.jsonl")
    for name, (value, unit, note) in run.named.items():
        print(f"{name}\t{value:.6g}\t{unit}" + (f"\t({note})" if note else ""))
    for failure in run.tally.failures:
        print(f"FAILED CHECK: {failure}")
    print("# host " + json.dumps(facts))

    wanted = report.contract_metrics(ROOT / "BENCHMARK.json", bool(args.trace))
    source = run.layers if args.trace else run.contract
    metrics = {name: {"value": source[name], "unit": unit} for name, unit in wanted}
    bad = [name for name in metrics if not report.valid_metric_name(name)]
    if bad:
        raise ValueError(f"invalid metric names: {bad}")
    if args.trace:
        for name, value in run.layers.items():
            print(f"{name}\t{value:.6g}")
    record = {
        "host": facts,
        "named": {k: {"value": v, "unit": u, "note": n} for k, (v, u, n) in run.named.items()},
        "layers": run.layers,
        "failures": run.tally.failures,
        "layer_failures": tracing.layer_failures(run.tracer) if run.tracer is not None else {},
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    result = {
        "correct": run.tally.failed == 0,
        "attempted": run.tally.attempted,
        "failed": run.tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
