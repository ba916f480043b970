"""One repetition of a workload, run in a fresh interpreter.

    python3 worker.py PLAN.json

The plan names the source tree, the working directory, the field contexts
of the workload and the CLI command list. The worker times its own set-up
(`import crooked.cli` plus building the field contexts), then runs the
commands one at a time through `crooked.cli.main`, in process, and writes a
result JSON to the path the plan gives.

Output is captured at file-descriptor level: `cli._emit` binds `sys.stdout`
as a default argument at import time, so redirecting the `sys.stdout`
object would miss what `verify` and `invariants` print.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import tempfile
import time
import traceback


def _calibrate() -> float:
    """Time a fixed pure-Python loop, to record how fast the host runs now."""
    t = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc ^= i * i
    return time.perf_counter() - t


def _run(main, argv, workdir):
    """Run one CLI command, capturing fds 1 and 2. Returns
    (exit code, wall seconds, stdout, stderr)."""
    with tempfile.TemporaryFile(dir=workdir) as out, tempfile.TemporaryFile(dir=workdir) as err:
        sys.stdout.flush()
        sys.stderr.flush()
        saved = os.dup(1), os.dup(2)
        os.dup2(out.fileno(), 1)
        os.dup2(err.fileno(), 2)
        start = time.perf_counter()
        try:
            code = main(list(argv))
        except SystemExit as e:  # argparse rejects its arguments this way
            code = e.code if isinstance(e.code, int) else 2
        except Exception:  # a traceback is a failed command, not a failed benchmark
            traceback.print_exc()
            code = -1
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            wall = time.perf_counter() - start
            os.dup2(saved[0], 1)
            os.dup2(saved[1], 2)
            os.close(saved[0])
            os.close(saved[1])
        out.seek(0)
        err.seek(0)
        return code, wall, out.read().decode("utf-8", "replace"), err.read().decode("utf-8", "replace")


def main(plan_path: str) -> None:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])

    start = time.perf_counter()
    import crooked.cli
    from crooked.field import FieldCtx

    for n, modulus in plan["fields"]:
        FieldCtx(n, modulus)
    setup_s = time.perf_counter() - start

    result = {"setup_s": setup_s, "module": crooked.cli.__file__, "commands": []}
    tracer = None
    if plan["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        result["patched"] = tracer.patched

    os.chdir(plan["workdir"])
    cpu = time.process_time()
    for argv in plan["commands"]:
        code, wall, stdout, stderr = _run(crooked.cli.main, argv, plan["workdir"])
        result["commands"].append({"exit": code, "wall_s": wall, "stdout": stdout, "stderr": stderr})
    result["cpu_s"] = time.process_time() - cpu
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["calibration_s"] = _calibrate()
    if tracer is not None:
        result["layers"] = tracer.layer_totals()
    with open(plan["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
