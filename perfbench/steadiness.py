"""Steadiness check: two separate sets of benchmark runs of one commit.

    python3 perfbench/steadiness.py

Each set makes ten runs of every workload in BENCHMARK.json at its
`run_seconds`, cycling through the workloads so that a slow phase of the
host spreads over all of them, with a fresh seed per run (set A seeds 1..10,
set B seeds 101..110). For every workload and end-to-end metric it prints
each set's median and quartiles, the spread (quartile distance over median)
and the shift of set B's median against set A's, and whether both stay
within the bound in BENCHMARK.json. The shift is bounded in either
direction. The spread of setup_s is not bounded: it is the median of three
fresh-interpreter start-ups, whose spread is start-up noise of the host,
and its bound guards against work moved into set-up, which the shift shows.
It also requires the share of failed ops to be identical in both sets.
Finally it makes one traced run per workload and reports traced run_s
minus set A's median untraced run_s. The report is also written to
perfbench/results/.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUNS = 10  # runs per workload and set


def run_once(spec, workload, seed, trace) -> dict:
    """The result line of one run; exit status 1 means some op failed and
    still carries a result, any other failure raises."""
    proc = subprocess.run(
        spec["command"] + ["--workload", workload, "--seed", str(seed),
                           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}")
    return json.loads(lines[-1])


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]

    sets = []
    for s, seed0 in enumerate((1, 101)):
        runs = {w: [] for w in names}
        for i in range(RUNS):
            order = names[i % len(names):] + names[: i % len(names)]
            for w in order:
                res = run_once(spec, w, seed0 + i, 0)
                runs[w].append(res)
                m = {k: round(v["value"], 4) for k, v in res["metrics"].items()}
                print(f"set {'AB'[s]} run {i} {w}: failed {res['failed']}, {m}", flush=True)
        sets.append(runs)

    ok = True
    report = {"runs": RUNS, "seconds": spec["run_seconds"], "workloads": {}}
    print()
    print(f"{'workload':20} {'metric':12} {'A median [q1, q3]':32} {'B median [q1, q3]':32}"
          f" {'spread A/B':12} {'shift':8} bound  ok")
    for w in names:
        rows = {}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            qa = quartiles([r["metrics"][name]["value"] for r in sets[0][w]])
            qb = quartiles([r["metrics"][name]["value"] for r in sets[1][w]])
            spread_a, spread_b = (qa[2] - qa[0]) / qa[1], (qb[2] - qb[0]) / qb[1]
            shift = (qb[1] - qa[1]) / qa[1]
            good = abs(shift) <= bound and (name == "setup_s" or max(spread_a, spread_b) <= bound)
            ok = ok and good
            rows[name] = {"A": qa, "B": qb, "spread_A": spread_a, "spread_B": spread_b,
                          "shift": shift, "bound": bound, "ok": good}
            fa = "%.4g [%.4g, %.4g]" % (qa[1], qa[0], qa[2])
            fb = "%.4g [%.4g, %.4g]" % (qb[1], qb[0], qb[2])
            print(f"{w:20} {name:12} {fa:32} {fb:32} {spread_a:5.1%}/{spread_b:5.1%} "
                  f"{shift:+7.1%} {bound:5.2f} {'yes' if good else 'NO'}")
        share = [sum(r["failed"] for r in runs[w]) / sum(r["attempted"] for r in runs[w])
                 for runs in sets]
        same = share[0] == share[1]
        ok = ok and same
        print(f"{w:20} failed share A {share[0]:.4f}, B {share[1]:.4f}: "
              f"{'identical' if same else 'DIFFERENT'}")
        rows["failed_share"] = share
        report["workloads"][w] = rows

    print()
    for w in names:
        traced = run_once(spec, w, 1, 1)
        t = traced["metrics"]["trace.run_s"]["value"]
        base = statistics.median(r["metrics"]["run_s"]["value"] for r in sets[0][w])
        report["workloads"][w]["trace_overhead_s"] = t - base
        print(f"{w:20} traced run_s {t:.3f} s, untraced median {base:.3f} s, "
              f"overhead {t - base:+.3f} s ({(t - base) / base:+.1%})")

    (BENCH_DIR / "results").mkdir(exist_ok=True)
    (BENCH_DIR / "results" / "steadiness.json").write_text(json.dumps(report, indent=1) + "\n")
    print(f"\nsteady within bounds: {'yes' if ok else 'NO'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
