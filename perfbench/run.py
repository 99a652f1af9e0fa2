"""Benchmark command: run one workload of dynlab and print its metrics.

    python3 perfbench/run.py --workload orbit-coverage --seed 1 --seconds 10 --trace 0

Runs from the root of a checkout and imports dynlab from its `src/`. The
run is one single-threaded process (BLAS pinned to one thread) driving a
closed loop: one untimed warm-up op, then a fixed number of timed ops whose
inputs come from `--seed`; each op's output is checked after it is timed.
With `--trace 0` the last stdout line holds the end-to-end metrics; with
`--trace 1` the layers are wrapped with timing spans over the workload's own
set-up and timed ops, and the line holds the per-layer metrics of
BENCHMARK.json; a layer the workload does not reach reads 0. Results and
spans are written under perfbench/results/.
Exit status: 0 when every op passed its checks, 1 when some op failed,
2 when dynlab's source is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# numpy is first imported in main, after this: BLAS stays on one thread
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
SETUP_PROBES = 3


def load_dynlab():
    """Import dynlab from this checkout's src/, never from elsewhere."""
    if not (SRC / "dynlab" / "__init__.py").is_file():
        raise FileNotFoundError(f"no dynlab source under {SRC}")
    sys.path.insert(0, str(SRC))
    import dynlab

    if SRC not in Path(dynlab.__file__).resolve().parents:
        raise ImportError(f"dynlab imported from {dynlab.__file__}, not from {SRC}")
    return dynlab


def probe_setup(workload: str, seed: int) -> float:
    """Wall time of a fresh interpreter importing dynlab and building the
    workload's models and certificates, median over several probes."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            check=True, timeout=120, stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_ops(wl, inputs, log=print, untraced=contextlib.nullcontext):
    """Time each op, then check it (inside `untraced`, so a traced run
    records only the ops). Returns (op seconds, failed count)."""
    from dynlab.errors import DynlabError

    times, failed = [], 0
    for k, inp in enumerate(inputs):
        t0 = time.perf_counter()
        try:
            out = wl.op(inp)
        except DynlabError as e:
            times.append(time.perf_counter() - t0)
            failed += 1
            log(f"op {k}: {type(e).__name__}: {e}")
            continue
        times.append(time.perf_counter() - t0)
        try:
            with untraced():
                problems = wl.check(inp, wl.extract(inp, out))
        except DynlabError as e:
            problems = [f"{type(e).__name__} while checking: {e}"]
        if problems:
            failed += 1
            log(f"op {k}: check failed: {'; '.join(problems[:3])}")
        del out
    return times, failed


def tail_line(times: list[float]) -> str:
    """The highest percentile with at least ten ops beyond it."""
    n = len(times)
    if n < 11:
        return f"op tail: n={n} ops, too few for a percentile beyond the median"
    q = int(100 * (1 - 10 / n))
    v = statistics.quantiles(times, n=100, method="inclusive")[q - 1]
    return f"op p{q}: {1000 * v:.2f} ms over n={n} ops"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    def log(msg):
        print(msg, file=sys.stderr, flush=True)

    try:
        load_dynlab()
    except (FileNotFoundError, ImportError) as e:
        log(f"error: {e}")
        return 2
    import numpy as np

    from workloads import WORKLOADS, n_ops_for, source_lines

    if args.workload not in WORKLOADS:
        log(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
        return 2
    if args.setup_probe:
        WORKLOADS[args.workload]().setup()
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        if tracer.absent:
            log(f"absent layer names: {', '.join(tracer.absent)}")
        setup_s = None
    else:
        setup_s = probe_setup(args.workload, args.seed)

    wl = WORKLOADS[args.workload]()
    wl.setup()
    n_ops = n_ops_for(wl, args.seconds)
    rng = np.random.default_rng([sorted(WORKLOADS).index(args.workload), args.seed])
    *timed, warm = wl.inputs(rng, n_ops + 1)
    untraced = contextlib.nullcontext if tracer is None else tracer.pause
    with untraced():
        wl.op(warm)
    times, failed = run_ops(wl, timed, log, untraced)
    run_s = sum(times)

    if tracer is not None:
        tracer.uninstall()
        per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        metrics = tracer.metrics(per_layer, source_lines(SRC), run_s)
        tracer.write(RESULTS / f"{args.workload}-seed{args.seed}-spans")
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "run_s": (run_s, "s"),
            "op_p50_ms": (1000 * statistics.median(times), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    log(f"{args.workload} seed {args.seed}: {len(times)} ops, {failed} failed, run_s {run_s:.3f}")
    log(tail_line(times))
    result = {
        "correct": failed == 0,
        "attempted": len(times),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
