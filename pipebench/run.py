"""Benchmark of the `crooked` CLI pipeline: construct -> verify -> invariants.

    python3 pipebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. One client drives the CLI in a closed loop,
one command at a time. Each repetition of the workload's command list runs
in a fresh interpreter (`worker.py`) that imports the package once, so the
import is paid once per repetition and reported as `setup_s` rather than
inside every command. Repetitions run until `--seconds` have passed and
at least two of each kind the run uses are done.

Every command's exit code and output are checked against the workload's
seed-independent facts, and stdout and written files must be byte-identical
across the repetitions of one seed.

With `--trace 0` every repetition is untraced and the last stdout line
carries the end-to-end metrics named in BENCHMARK.json. With `--trace 1`
traced and untraced repetitions alternate; the last line carries the
per-layer metrics, taken from the traced ones, and `trace.overhead_frac`
compares the two. The line before it holds the run's context (revision,
CPU, load, seed draw) and every metric measured.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))  # workloads.py draws moduli with the program's FieldCtx

try:
    import workloads
except ImportError as e:
    sys.exit(f"pipebench: no program to measure under {SRC}: {e}")
from tracer import COUNT_METRICS

SETUP_PROBES = 11       # fresh-interpreter set-up samples per run, at least
MIN_REPS = 2            # of each kind a run uses, so outputs and counts are compared
RUN_LIMIT_S = 170       # every worker is stopped by then, so a run ends within 180 s
PROBE_ROOM_S = 15       # kept free for set-up probes after the last repetition


def _pipeline_s(result: dict) -> float:
    return sum(c["wall_s"] for c in result["commands"])


def _fail(msg: str) -> int:
    print(f"pipebench: {msg}", file=sys.stderr)
    return 2


def _context() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "crooked").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        rev = None
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "git_rev": rev,
        "src_sha256": digest.hexdigest(),
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "python": sys.version.split()[0],
    }


class Run:
    def __init__(self, plan: workloads.Plan, workdir: Path, seconds: int, trace: bool):
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.plan = plan
        self.workdir = workdir
        self.seconds = seconds
        self.trace = trace
        self.reps = []          # (traced, worker result)
        self.setup = []         # fresh-interpreter set-up samples, s
        self.reference = None   # stdout and written files of the first repetition
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def _worker(self, commands, traced: bool):
        plan_path = self.workdir / "plan.json"
        result_path = self.workdir / "result.json"
        result_path.unlink(missing_ok=True)
        plan_path.write_text(json.dumps({
            "src": str(SRC), "workdir": str(self.workdir), "fields": self.plan.fields,
            "commands": [list(c.argv) for c in commands], "trace": traced, "result": str(result_path),
        }))
        env = dict(os.environ, PYTHONHASHSEED="0")  # the same str hashing in every repetition
        try:
            proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(plan_path)],
                                  cwd=self.workdir, env=env, stdin=subprocess.DEVNULL,
                                  capture_output=True, text=True,
                                  timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            return None, "worker timed out"
        if proc.returncode != 0 or not result_path.exists():
            return None, f"worker exited {proc.returncode}: {proc.stderr.strip()[-400:]}"
        result = json.loads(result_path.read_text())
        if not Path(result["module"]).resolve().is_relative_to(SRC.resolve()):
            return None, f"crooked imported from {result['module']}, not from {SRC}"
        return result, None

    def _check(self, rep_no: int, result: dict) -> None:
        outputs = []
        for i, (cmd, got) in enumerate(zip(self.plan.commands, result["commands"])):
            files = {}
            for name in cmd.writes:
                path = self.workdir / name
                files[name] = path.read_bytes() if path.exists() else None
            outputs.append((got["stdout"], files))
            bad = []
            if got["exit"] != cmd.exit_code:
                bad.append(f"exit {got['exit']}, expected {cmd.exit_code}: {got['stderr'].strip()[-200:]}")
            else:
                try:
                    bad += cmd.check(got["stdout"])
                except (ValueError, KeyError, TypeError, AttributeError) as e:
                    bad.append(f"unreadable output: {e!r}")
            bad += [f"{name} not written" for name, data in files.items() if data is None]
            if self.reference is not None:
                ref_out, ref_files = self.reference[i]
                if got["stdout"] != ref_out:
                    bad.append("stdout differs from repetition 1")
                bad += [f"{name} differs from repetition 1" for name in files if files[name] != ref_files[name]]
            if bad:
                self.failed += 1
                self.problems.append(f"rep {rep_no} `{' '.join(cmd.argv)}`: {'; '.join(bad)}")
        if self.reference is None:
            self.reference = outputs

    def execute(self) -> None:
        for name, text in self.plan.inputs.items():
            (self.workdir / name).write_text(text)
        end = time.monotonic() + self.seconds
        untraced = traced = 0
        last = 0.0
        enough = False
        while time.monotonic() + last < self.deadline - PROBE_ROOM_S:
            use_trace = self.trace and untraced > traced
            for cmd in self.plan.commands:
                for name in cmd.writes:
                    (self.workdir / name).unlink(missing_ok=True)
            t = time.monotonic()
            result, err = self._worker(self.plan.commands, use_trace)
            last = time.monotonic() - t
            self.attempted += len(self.plan.commands)
            if result is None:
                self.failed += len(self.plan.commands)
                self.problems.append(f"rep {len(self.reps) + 1}: {err}")
                break
            self._check(len(self.reps) + 1, result)
            self.reps.append((use_trace, result))
            self.setup.append(result["setup_s"])
            traced += use_trace
            untraced += not use_trace
            enough = untraced >= MIN_REPS and (traced >= MIN_REPS or not self.trace)
            if enough and time.monotonic() >= end:
                break
        else:
            if not enough:
                self.problems.append(f"only {untraced} untraced and {traced} traced repetitions fit in "
                                     f"{RUN_LIMIT_S} s; fewer than {MIN_REPS} of a kind compare nothing")
        while len(self.setup) < SETUP_PROBES and time.monotonic() < self.deadline:
            result, err = self._worker([], False)
            if result is None:
                self.problems.append(f"set-up probe: {err}")
                break
            self.setup.append(result["setup_s"])

    def metrics(self, nonzero) -> dict:
        plain = [r for t, r in self.reps if not t]
        traced = [r for t, r in self.reps if t]
        med = statistics.median
        out = {}
        if plain:
            out.update({
                "setup_s": med(self.setup),
                "pipeline_s": med(_pipeline_s(r) for r in plain),
                "peak_rss_mb": med(r["peak_rss_mb"] for r in plain),
                "process.cpu_s": med(r["cpu_s"] for r in plain),
            })
        out["machine.calibration_s"] = med(r["calibration_s"] for _, r in self.reps)
        out["failed_frac"] = self.failed / max(1, self.attempted)
        if traced and plain:
            layers = [r["layers"] for r in traced]
            for name in layers[0]:
                values = [lay.get(name, 0.0) for lay in layers]
                if name in COUNT_METRICS:
                    if any(v != values[0] for v in values):
                        self.problems.append(f"count {name} differs between traced repetitions: {values}")
                    out[name] = values[0]
                else:
                    out[name] = med(values)
            out["trace.overhead_frac"] = med(_pipeline_s(r) for r in traced) / out["pipeline_s"] - 1
            self.problems += [f"layer count {name} is 0 on this workload" for name in nonzero if not out.get(name)]
        return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    context = _context()
    workload = workloads.WORKLOADS[args.workload]
    plan = workloads.plan_for(args.workload, args.seed)
    base = ROOT / ".bench_work"
    base.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=base))
    run = Run(plan, workdir, args.seconds, bool(args.trace))
    try:
        run.execute()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass
    if not run.reps:
        return _fail("no repetition completed: " + "; ".join(run.problems))
    measured = run.metrics(workload.nonzero if args.trace else ())
    missing = [m["name"] for m in declared if measured.get(m["name"]) is None]
    if missing:
        return _fail(f"metrics not measured: {missing}; " + "; ".join(run.problems))

    context["loadavg_end"] = os.getloadavg()
    for line in run.problems:
        print(f"pipebench: {line}", file=sys.stderr)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "why": next((w["why"] for w in spec["workloads"] if w["name"] == args.workload), None),
        "left_out": workloads.LEFT_OUT, "draw": plan.draw, "context": context,
        "repetitions": {"untraced": sum(not t for t, _ in run.reps), "traced": sum(t for t, _ in run.reps),
                        "setup_s_each": run.setup,
                        "pipeline_s_each": [_pipeline_s(r) for _, r in run.reps],
                        "calibration_s_each": [r["calibration_s"] for _, r in run.reps]},
        "problems": run.problems, "measured": measured,
        "binding_sites": next((r["patched"] for t, r in run.reps if t), None),
    }, sort_keys=True))
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
