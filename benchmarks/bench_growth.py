#!/usr/bin/env python3
"""Microbenchmark of the growth kernels; writes BENCH_growth.json.

One row per (label, kernel, d, n): median over three runs of the step
loop (ns/step and steps/s), the lex phase inside it (`lex_seconds`), and
the `code` serialization of the grown tree (`code_seconds`: the kernel's
`code_text()`, or the CLI's former join over `preorder_code()` for a
kernel without it).  The compiled kernel (the package default) runs the
full sizes; the Python kernel runs smaller ones, otherwise a run takes
minutes.  Rows with the same label, kernel, d and n are replaced, others
kept, so one file can hold rows of two commits measured on one machine:
run the script with each commit's `src` first on PYTHONPATH and its own
--label.  The cross-kernel check lives in bench/run.py (`crosscheck`).

Usage: python benchmarks/bench_growth.py [--label L] [--seed N] [--quick]
"""

import argparse
import json
import os
import platform
import statistics
import time
from pathlib import Path

from darygrow.sampler import kernel_name, make_kernel

CELLS = [
    # d, n for the compiled kernel, n for the python kernel
    (2, 1_000_000, 20_000),
    (3, 200_000, 20_000),
    (5, 100_000, 10_000),
]
OUT = Path(__file__).resolve().parent.parent / "BENCH_growth.json"
REPEAT = 3


def code_text(k):
    if hasattr(k, "code_text"):
        return k.code_text()
    return " ".join(str(s) for s in k.preorder_code()).encode("ascii")


def run(kernel, d, n, seed):
    k = make_kernel(d, seed, kernel)
    t0 = time.perf_counter()
    k.steps(n)
    t1 = time.perf_counter()
    code_text(k)
    t2 = time.perf_counter()
    return k.name, t1 - t0, k.lex_seconds, t2 - t1


def cell(label, kernel, d, n, seed):
    runs = [run(kernel, d, n, seed) for _ in range(REPEAT)]
    name = runs[0][0]
    steps_s = statistics.median(r[1] for r in runs)
    return {
        "label": label,
        "kernel": name,
        "d": d,
        "n": n,
        "repeat": REPEAT,
        "ns_per_step": round(steps_s / n * 1e9, 1),
        "steps_per_s": round(n / steps_s),
        "lex_seconds": round(statistics.median(r[2] for r in runs), 4),
        "code_seconds": round(statistics.median(r[3] for r in runs), 4),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default="current")
    parser.add_argument("--seed", type=int, default=20240)
    parser.add_argument("--quick", action="store_true", help="divide sizes by 10")
    args = parser.parse_args()

    shrink = 10 if args.quick else 1
    rows = []
    for d, n_compiled, n_python in CELLS:
        rows.append(cell(args.label, None, d, n_compiled // shrink, args.seed))
        if kernel_name() != "python":
            rows.append(cell(args.label, "python", d, n_python // shrink, args.seed))

    header = f"{'label':<8} {'kernel':<7} {'d':>2} {'n':>8} {'ns/step':>8} {'steps/s':>10} {'lex s':>7} {'code s':>7}"
    print(header)
    print("-" * len(header))
    for r in rows:
        print(
            f"{r['label']:<8} {r['kernel']:<7} {r['d']:>2} {r['n']:>8} {r['ns_per_step']:>8} "
            f"{r['steps_per_s']:>10} {r['lex_seconds']:>7} {r['code_seconds']:>7}"
        )

    record = {"machine": None, "rows": []}
    if OUT.exists():
        record = json.loads(OUT.read_text())
    key = lambda r: (r["label"], r["kernel"], r["d"], r["n"])  # noqa: E731
    fresh = {key(r) for r in rows}
    record["rows"] = [r for r in record["rows"] if key(r) not in fresh] + rows
    record["machine"] = (
        f"{os.cpu_count()} cores, {platform.machine()}, Python {platform.python_version()}"
    )
    OUT.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
