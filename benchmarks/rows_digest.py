#!/usr/bin/env python3
"""rows_digest: does the working tree answer the benchmark's reads as a
parent commit does?

    python3 benchmarks/rows_digest.py [--parent REF] [--seed S]

Exports ``--parent`` (default ``HEAD~1``) into a temp dir as
``ab_e2e.py`` does, then, once per tree and in a process of its own
with that tree's ``src`` and ``benchmarks/e2e`` on the path, loads every
workload of ``bench_e2e`` at seed ``S`` (default 7) into an in-process
``Database`` and runs each statement of its ``read_ops()`` and its
``cheap_op()``: the ``EXPLAIN`` text first, then the rows.  Prints one
line per statement saying whether the rows (in order, compared by
``repr``) and the ``EXPLAIN`` text are the same on both sides, and
exits 1 on any difference, including a workload or statement only one
side has.  A performance change that claims to change no answer runs
this against its parent.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

from ab_e2e import export_tree, git

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: workload -> statement key -> {"rows": digest, "explain": text}
Dump = Dict[str, Dict[str, Dict[str, str]]]


def dump(seed: int) -> Dump:
    """Every workload's reads in this process's ``repro``."""
    from repro.engine.database import Database
    from workloads import WORKLOADS, make_workload

    out: Dump = {}
    for name in WORKLOADS:
        workload = make_workload(name, seed)
        db = Database()
        workload.populate(db)
        out[name] = {}
        for op in workload.read_ops() + [workload.cheap_op()]:
            explain = db.explain(op.arg)
            rows = repr(db.query(op.arg).rows).encode("utf-8")
            out[name][op.key] = {
                "rows": hashlib.blake2b(rows, digest_size=12).hexdigest(),
                "explain": explain,
            }
    return out


def dump_tree(tree: Path, seed: int) -> Dump:
    """:func:`dump` run on ``tree``'s code, in a child process."""
    path = os.pathsep.join(
        [str(tree / "src"), str(tree / "benchmarks" / "e2e"), str(HERE)])
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import json, rows_digest; print(json.dumps(rows_digest.dump({seed})))"],
        cwd=tree, env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"reading {tree} failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def compare(parent: Dump, change: Dump) -> List[str]:
    """One line per statement either side ran; a line starting with
    ``DIFF`` marks a difference."""
    lines = []
    for name in sorted(set(parent) | set(change)):
        p, c = parent.get(name, {}), change.get(name, {})
        for key in dict.fromkeys([*p, *c]):
            if key not in p or key not in c:
                side = "change" if key in c else "parent"
                lines.append(f"DIFF {name} {key}: only the {side} runs it")
                continue
            rows = p[key]["rows"] == c[key]["rows"]
            explain = p[key]["explain"] == c[key]["explain"]
            mark = "same" if rows and explain else "DIFF"
            lines.append(
                f"{mark} {name} {key}: rows {'same' if rows else 'differ'}, "
                f"explain {'same' if explain else 'differs'}")
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD~1", metavar="REF")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    parent = git("rev-parse", "--verify", args.parent + "^{commit}")
    with tempfile.TemporaryDirectory(prefix="rows_digest_") as tmp:
        export_tree(parent, tmp)
        before = dump_tree(Path(tmp), args.seed)
    lines = compare(before, dump_tree(ROOT, args.seed))
    print("\n".join(lines))
    differ = sum(line.startswith("DIFF") for line in lines)
    print(f"{len(lines) - differ}/{len(lines)} statements answer and plan "
          f"as {args.parent} ({parent[:7]}) at seed {args.seed}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
