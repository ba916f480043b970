"""Steadiness sweep for the benchmark.

    python3 pipebench/sweep.py [--out FILE]

Runs every workload of BENCHMARK.json for its `run_seconds`, one run at a
time: two sweeps of `--trace 0` runs, on seeds 1-10 and then on seeds 11-20,
and last two `--trace 1` runs of seed 1 per workload.

For every end-to-end metric each sweep reports the median, the quartiles
(`statistics.quantiles(n=4)`) and the spread, the distance between the
quartiles as a share of the median, against the metric's bound. The
benchmark is steady when every spread but that of `setup_s` stays below a
third of its bound. `agreement` gives, per metric, the change of the second
sweep's median against the first's, which must stay within the bound.
`traced` holds the result lines of the two traced runs and whether their
per-layer counts are identical.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import COUNT_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SWEEPS = (range(1, 11), range(11, 21))
TRACED_SEED = 1


def run(spec: dict, workload: str, seed: int, trace: int) -> dict:
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(spec["run_seconds"]), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.monotonic() - start
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    context = json.loads(lines[-2])
    print(f"{workload} seed {seed} trace {trace}: {wall:.1f} s, correct={result['correct']}", file=sys.stderr)
    return {"seed": seed, "wall_s": wall, "result": result, "problems": context["problems"],
            "repetitions": context["repetitions"]}


def summarize(values, bound):
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "spread_over_bound": spread / bound, "values": values}


def sweep(spec: dict, workload: str, seeds) -> dict:
    runs = [run(spec, workload, seed, 0) for seed in seeds]
    metrics = {m["name"]: summarize([r["result"]["metrics"][m["name"]]["value"] for r in runs], m["bound"])
               for m in spec["end_to_end"]}
    for name, s in metrics.items():
        print(f"{workload:18s} {name:12s} median {s['median']:.4g}  q1 {s['q1']:.4g}  q3 {s['q3']:.4g}  "
              f"spread {s['spread']:.4f}  bound {s['bound']}  ({s['spread_over_bound']:.2f} of bound)")
    return {"all_correct": all(r["result"]["correct"] for r in runs),
            "max_run_wall_s": max(r["wall_s"] for r in runs),
            "metrics": metrics, "runs": runs}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]

    sweeps = [{w: sweep(spec, w, seeds) for w in names} for seeds in SWEEPS]
    agreement = {}
    for w in names:
        agreement[w] = {}
        for m in spec["end_to_end"]:
            first, second = (s[w]["metrics"][m["name"]]["median"] for s in sweeps)
            change = second / first - 1
            agreement[w][m["name"]] = {"first": first, "second": second, "change": change,
                                       "bound": m["bound"], "within": change <= m["bound"]}
            print(f"{w:18s} {m['name']:12s} second median {change:+.4f} against the first", file=sys.stderr)
    traced = {}
    for w in names:
        runs = [run(spec, w, TRACED_SEED, 1) for _ in range(2)]
        counts = [{k: v["value"] for k, v in r["result"]["metrics"].items() if k in COUNT_METRICS} for r in runs]
        traced[w] = {"counts_identical": counts[0] == counts[1], "runs": runs}
    report = {"run_seconds": spec["run_seconds"],
              "sweeps": [{"seeds": [s.start, s.stop - 1], "workloads": sw} for s, sw in zip(SWEEPS, sweeps)],
              "agreement": agreement, "traced": traced}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
