#!/usr/bin/env python3
"""Microbenchmark of the growth kernels; writes BENCH_growth.json.

One row per (label, kernel, d, n): median over three runs of the step
loop (ns/step and steps/s), the lex phase inside it (`lex_seconds`), and
the `code` and `paren` serializations of the grown tree (`code_seconds`:
the kernel's `code_text()`; `paren_seconds`: its `paren_text()`).  The
compiled kernel (the package default) runs the full sizes; the Python
kernel runs smaller ones, otherwise a run takes minutes, and none at all
in the guard cells d = 12, 40, 300 and 1000, which watch the lex phase's
cost at wider arities.  Rows with the same label, kernel, d and n are
replaced, others kept, so one file can hold rows of two commits
measured on one machine: run the script with each commit's `src` first
on PYTHONPATH and its own --label.  --out names another file to write (a
quick check can leave BENCH_growth.json alone).  The cross-kernel check,
the reference bijections, the oracles and process start-up are measured
by bench/run.py (`crosscheck`, and the per-layer metrics of --trace 1).

The short-chain layer gets rows of its own (`histogram` in the JSON):
ns per chain of `kernel.histogram` on criterion 8's two grids, d = 3,
n = 4 over 110,000 chains and d = 2, n = 5 over 84,000, median of three
calls on one kernel; the Python kernel bins a tenth of the chains.

The reference bijections get one row per label (`bijections`): criterion
3's exhaustive suite (`oracle.verify_enlarge_bijection` over its 15 sizes,
6,958 inputs) and, over the same inputs, the public stages `cut`,
`add_root . rotate` and `reduce`, in seconds, each the median of the rounds
run in one process (15, or 3 with --quick).

Usage: python benchmarks/bench_growth.py [--label L] [--seed N] [--quick] [--out FILE]
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
    # d, n for the compiled kernel, n for the python kernel (None: no row)
    (2, 1_000_000, 20_000),
    (3, 200_000, 20_000),
    (5, 100_000, 10_000),
    (12, 50_000, None),
    (40, 10_000, None),
    (300, 1000, None),
    (1000, 300, None),
]
OUT = Path(__file__).resolve().parent.parent / "BENCH_growth.json"
REPEAT = 3
# criterion 8's chi-square grids: d, n, chains
HISTOGRAMS = [(3, 4, 110_000), (2, 5, 84_000)]
# criterion 3's sizes: d, n
SUITE = [(2, n) for n in range(6)] + [(3, n) for n in range(4)] + [(4, n) for n in range(3)]
SUITE += [(5, 0), (5, 1)]


def run(kernel, d, n, seed):
    k = make_kernel(d, seed, kernel)
    t0 = time.perf_counter()
    k.steps(n)
    t1 = time.perf_counter()
    k.code_text()
    t2 = time.perf_counter()
    k.paren_text()
    t3 = time.perf_counter()
    return k.name, t1 - t0, k.lex_seconds, t2 - t1, t3 - t2


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
        "paren_seconds": round(statistics.median(r[4] for r in runs), 4),
    }


def histogram_row(label, kernel, d, n, chains, seed):
    k = make_kernel(d, seed, kernel)
    runs = []
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        k.histogram(n, chains)
        runs.append(time.perf_counter() - t0)
    seconds = statistics.median(runs)
    return {
        "label": label,
        "kernel": k.name,
        "d": d,
        "n": n,
        "chains": chains,
        "repeat": REPEAT,
        "ns_per_chain": round(seconds / chains * 1e9, 1),
        "chains_per_s": round(chains / seconds),
    }


def bijection_row(label, rounds):
    from darygrow import bijections as b, oracle

    trees = [x for d, n in SUITE for x in oracle.enumerate_marked_trees(d, n)]
    forests = [b.cut(x, 1)[0] for x in trees]
    turned = [(f, a) for f in forests for a in range(1, f.d + 1)]
    images = [b.add_root(b.rotate(f, a)) for f, a in turned]
    stages = {
        "suite_s": lambda: [oracle.verify_enlarge_bijection(d, n) for d, n in SUITE],
        "cut_s": lambda: [b.cut(x, 1) for x in trees],
        "rotate_add_root_s": lambda: [b.add_root(b.rotate(f, a)) for f, a in turned],
        "reduce_s": lambda: [b.reduce(t) for t in images],
    }
    runs = {name: [] for name in stages}
    for _ in range(rounds):
        for name, stage in stages.items():
            t0 = time.perf_counter()
            stage()
            runs[name].append(time.perf_counter() - t0)
    row = {"label": label, "inputs": len(images), "repeat": rounds}
    row.update((name, round(statistics.median(r), 5)) for name, r in runs.items())
    return row


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default="current")
    parser.add_argument("--seed", type=int, default=20240)
    parser.add_argument("--quick", action="store_true", help="divide sizes by 10")
    parser.add_argument("--out", type=Path, default=OUT, help=f"default {OUT.name}")
    args = parser.parse_args()

    shrink = 10 if args.quick else 1
    rows = []
    for d, n_compiled, n_python in CELLS:
        rows.append(cell(args.label, None, d, n_compiled // shrink, args.seed))
        if kernel_name() != "python" and n_python:
            rows.append(cell(args.label, "python", d, n_python // shrink, args.seed))

    header = (
        f"{'label':<8} {'kernel':<7} {'d':>4} {'n':>8} {'ns/step':>8} {'steps/s':>10}"
        f" {'lex s':>7} {'code s':>7} {'paren s':>7}"
    )
    print(header)
    print("-" * len(header))
    for r in rows:
        print(
            f"{r['label']:<8} {r['kernel']:<7} {r['d']:>4} {r['n']:>8} {r['ns_per_step']:>8} "
            f"{r['steps_per_s']:>10} {r['lex_seconds']:>7} {r['code_seconds']:>7}"
            f" {r['paren_seconds']:>7}"
        )

    histograms = []
    for d, n, chains in HISTOGRAMS:
        histograms.append(histogram_row(args.label, None, d, n, chains // shrink, args.seed))
        if kernel_name() != "python":
            histograms.append(
                histogram_row(args.label, "python", d, n, chains // shrink // 10, args.seed)
            )
    print()
    for r in histograms:
        print(
            f"{r['label']:<8} {r['kernel']:<7} histogram d={r['d']} n={r['n']}"
            f" x {r['chains']}: {r['ns_per_chain']} ns/chain"
        )

    bijections = bijection_row(args.label, 3 if args.quick else 15)
    print()
    print(" ".join(f"{k} {v}" for k, v in bijections.items()))

    record = {"machine": None, "rows": [], "histogram": [], "bijections": []}
    if args.out.exists():
        old = json.loads(args.out.read_text())
        # only the sections this script writes are kept
        record.update((name, old[name]) for name in record if name in old)
    key = lambda r: (r["label"], r["kernel"], r["d"], r["n"])  # noqa: E731
    fresh = {key(r) for r in rows}
    record["rows"] = [r for r in record["rows"] if key(r) not in fresh] + rows
    fresh = {key(r) for r in histograms}
    record["histogram"] = [r for r in record["histogram"] if key(r) not in fresh] + histograms
    kept = [r for r in record["bijections"] if r["label"] != args.label]
    record["bijections"] = kept + [bijections]
    record["machine"] = (
        f"{os.cpu_count()} cores, {platform.machine()}, Python {platform.python_version()}"
    )
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
