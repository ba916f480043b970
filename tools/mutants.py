"""Mutation sampler: how many small edits of one source file do the Tier-1
tests catch?

    python3 tools/mutants.py src/crooked/cli.py --count 40 --seed 1

Stdlib only; a dev script, not a Tier-1 step. It copies src/, tests/,
pipebench/, pytest.ini and pyproject.toml into a scratch directory, then, one mutant at a
time, writes the file with one AST edit (a binary or comparison operator
swapped, or an integer constant moved by +1 or -1) and runs Tier-1 there
with `-x`, stopping each run after --timeout seconds. A mutant is killed
when the run fails or times out, and survives when it passes. The edits are
drawn with a fixed seed, so a run is repeatable. Survivors are listed as
file:line with the edit made.
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SWAPS = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult,
    ast.Mod: ast.FloorDiv, ast.LShift: ast.RShift, ast.RShift: ast.LShift,
    ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd, ast.BitXor: ast.BitOr,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Lt: ast.LtE, ast.LtE: ast.Lt,
    ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In, ast.And: ast.Or, ast.Or: ast.And,
}


def sites(tree: ast.AST) -> list:
    """Every (node, field, index, old, new) edit this script can make."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)) and type(node.op) in SWAPS:
            out.append((node, "op", None, node.op, SWAPS[type(node.op)]()))
        elif isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                if type(op) in SWAPS:
                    out.append((node, "ops", i, op, SWAPS[type(op)]()))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            for step in (1, -1):
                out.append((node, "value", None, node.value, node.value + step))
    return out


def describe(old, new) -> str:
    """The edit as `Lt -> LtE` or `16 -> 17`."""
    return " -> ".join(type(v).__name__ if isinstance(v, ast.AST) else repr(v) for v in (old, new))


def apply(node, field, index, value):
    if index is None:
        setattr(node, field, value)
    else:
        getattr(node, field)[index] = value


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("target", help="source file to mutate, relative to the repository root")
    ap.add_argument("--count", type=int, default=40)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--timeout", type=float, default=300, help="seconds per mutant's test run")
    ap.add_argument("--scratch", help="directory for the copy (default: a new temporary one)")
    args = ap.parse_args()

    scratch = Path(args.scratch or tempfile.mkdtemp(prefix="mutants-"))
    for part in ("src", "tests", "pipebench"):
        shutil.copytree(ROOT / part, scratch / part, dirs_exist_ok=True,
                        ignore=shutil.ignore_patterns("__pycache__"))
    for name in ("pytest.ini", "pyproject.toml"):
        shutil.copy(ROOT / name, scratch / name)
    target = scratch / args.target
    original = target.read_text()

    tree = ast.parse(original)
    candidates = sites(tree)
    picked = random.Random(args.seed).sample(range(len(candidates)), min(args.count, len(candidates)))
    env = {**os.environ, "PYTHONPATH": str(scratch / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    survivors, killed = [], 0
    pytest = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    try:
        # The unparsed, unmutated file must pass, or every mutant would count as killed.
        target.write_text(ast.unparse(tree) + "\n")
        if subprocess.run(pytest, cwd=scratch, env=env, capture_output=True, timeout=args.timeout).returncode:
            sys.exit("mutants: Tier-1 fails on the unmutated file")
        for k, i in enumerate(picked, 1):
            node, field, index, old, new = candidates[i]
            apply(node, field, index, new)
            target.write_text(ast.unparse(tree) + "\n")
            apply(node, field, index, old)
            where = f"{args.target}:{node.lineno}"
            start = time.perf_counter()
            try:
                run = subprocess.run(pytest, cwd=scratch, env=env, capture_output=True, timeout=args.timeout)
                outcome = "survived" if run.returncode == 0 else "killed"
            except subprocess.TimeoutExpired:
                outcome = "killed (timeout)"
            print(f"[{k}/{len(picked)}] {where} {describe(old, new)}: {outcome} "
                  f"({time.perf_counter() - start:.0f} s)", flush=True)
            if outcome == "survived":
                survivors.append(f"{where} {describe(old, new)}")
            else:
                killed += 1
    finally:
        target.write_text(original)
        if not args.scratch:
            shutil.rmtree(scratch, ignore_errors=True)
    print(f"killed {killed} of {len(picked)}")
    for s in survivors:
        print(f"survivor: {s}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
