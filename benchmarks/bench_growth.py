#!/usr/bin/env python3
"""Microbenchmark of the growth kernels and the reference bijections; writes
BENCH_growth.json.

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
quick check can leave BENCH_growth.json alone).  The cross-kernel check
lives in bench/run.py (`crosscheck`).

The short-chain layer gets rows of its own (`histogram` in the JSON):
ns per chain of `kernel.histogram` on criterion 8's two grids, d = 3,
n = 4 over 110,000 chains and d = 2, n = 5 over 84,000, median of three
calls on one kernel; the Python kernel bins a tenth of the chains.

The reference layer gets rows of its own (`reference` in the JSON):
the seconds of criterion 3's exhaustive bijection suite (median of three
runs, each enumerating its trees afresh), and the ms per enlarge ->
reduce round trip on a grown tree of n = 10^4 for d = 2, 3 and 5 (median
over ten random mark sets; `make_ms` is building the edge-marked tree from
the grown tree, outside the trip), and `from_code_ms`, the median of ten
`DaryTree.from_preorder_code` calls on the grown tree's code.

The process layer gets a `startup` row: the median wall, in ms, of a
fresh interpreter running `python -c pass` (`bare_ms`), the benchmark's
set-up probe, which imports `darygrow.cli`, `darygrow.oracle` and
`darygrow.sampler` and makes a kernel (`probe_ms`), and `darygrow grow
--d 3 --n 0` (`grow_n0_ms`); the three take turns, eleven rounds (three
with --quick).  `bytecode_writing` says whether the children could write
`__pycache__` files; with it off every run compiles the package afresh, as
the benchmark's operations do when PYTHONDONTWRITEBYTECODE is set.

Usage: python benchmarks/bench_growth.py [--label L] [--seed N] [--quick] [--out FILE]
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from darygrow import oracle
from darygrow.bijections import enlarge, reduce
from darygrow.marks import EdgeMarkedTree
from darygrow.sampler import SplitMix64, kernel_name, make_kernel, sample_mark_set
from darygrow.tree import DaryTree

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
# criterion 3's suite and criterion 4's round trips
BIJECTION_SUITE = (
    [(2, n) for n in range(6)]
    + [(3, n) for n in range(4)]
    + [(4, n) for n in range(3)]
    + [(5, 0), (5, 1)]
)
# criterion 8's chi-square grids: d, n, chains
HISTOGRAMS = [(3, 4, 110_000), (2, 5, 84_000)]
TRIP_DS = (2, 3, 5)
TRIP_N = 10_000
TRIPS = 10
# fresh interpreters timed by the startup row
PROBE = (
    "import darygrow.cli, darygrow.oracle, darygrow.sampler as s;"
    "s.make_kernel(2, 0); print(s.kernel_name())"
)
STARTUP = {
    "bare_ms": ["-c", "pass"],
    "probe_ms": ["-c", PROBE],
    "grow_n0_ms": ["-m", "darygrow.cli", "grow", "--d", "3", "--n", "0", "--seed", "1"],
}
STARTUP_RUNS = 11


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


def suite_row(label):
    runs = []
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        inputs = 0
        for d, n in BIJECTION_SUITE:
            report = oracle.verify_enlarge_bijection(d, n)
            assert report["pass"], report
            inputs += report["inputs"]
        runs.append(time.perf_counter() - t0)
    return {
        "label": label,
        "what": "bijection_suite",
        "inputs": inputs,
        "repeat": REPEAT,
        "seconds": round(statistics.median(runs), 4),
    }


def trip_row(label, d, n, seed):
    k = make_kernel(d, seed)
    k.steps(n)
    code = k.preorder_code()
    from_code = []
    for _ in range(TRIPS):
        t0 = time.perf_counter()
        tree = DaryTree.from_preorder_code(d, code)
        from_code.append(time.perf_counter() - t0)
    rng = SplitMix64(seed + d)
    make, trip = [], []
    for _ in range(TRIPS):
        marks = tuple(sample_mark_set(rng, tree))
        a = 1 + rng.uniform_below(d)
        t0 = time.perf_counter()
        x = EdgeMarkedTree(tree, marks)
        t1 = time.perf_counter()
        back, back_a = reduce(enlarge(x, a))
        t2 = time.perf_counter()
        assert back_a == a and back.key() == x.key()
        make.append(t1 - t0)
        trip.append(t2 - t1)
    return {
        "label": label,
        "what": "round_trip",
        "d": d,
        "n": n,
        "trips": TRIPS,
        "from_code_ms": round(statistics.median(from_code) * 1e3, 2),
        "make_ms": round(statistics.median(make) * 1e3, 2),
        "trip_ms": round(statistics.median(trip) * 1e3, 2),
    }


def startup_row(label, runs):
    """Median fresh-interpreter wall of each STARTUP command, in turns."""
    python = [sys.executable, "-B"] if sys.dont_write_bytecode else [sys.executable]
    walls = {name: [] for name in STARTUP}
    for _ in range(runs):
        for name, args in STARTUP.items():
            t0 = time.perf_counter()
            subprocess.run(
                [*python, *args],
                check=True,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )
            walls[name].append(time.perf_counter() - t0)
    row = {"label": label, "what": "startup", "runs": runs}
    row.update((name, round(statistics.median(w) * 1e3, 1)) for name, w in walls.items())
    row["bytecode_writing"] = not sys.dont_write_bytecode
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

    reference = [suite_row(args.label)]
    reference.extend(trip_row(args.label, d, TRIP_N // shrink, args.seed) for d in TRIP_DS)
    print()
    for r in reference:
        if r["what"] == "bijection_suite":
            print(f"{r['label']:<8} suite of {r['inputs']} inputs {r['seconds']:>8} s")
        else:
            print(
                f"{r['label']:<8} round trip d={r['d']} n={r['n']}: {r['trip_ms']} ms"
                f" (make {r['make_ms']} ms, from code {r['from_code_ms']} ms)"
            )

    startup = startup_row(args.label, 3 if args.quick else STARTUP_RUNS)
    print(
        f"{startup['label']:<8} startup: bare {startup['bare_ms']} ms, probe"
        f" {startup['probe_ms']} ms, grow --n 0 {startup['grow_n0_ms']} ms"
        f" (bytecode writing {'on' if startup['bytecode_writing'] else 'off'})"
    )

    record = {"machine": None, "rows": [], "histogram": [], "reference": [], "startup": []}
    if args.out.exists():
        record.update(json.loads(args.out.read_text()))
    key = lambda r: (r["label"], r["kernel"], r["d"], r["n"])  # noqa: E731
    fresh = {key(r) for r in rows}
    record["rows"] = [r for r in record["rows"] if key(r) not in fresh] + rows
    fresh = {key(r) for r in histograms}
    record["histogram"] = [r for r in record["histogram"] if key(r) not in fresh] + histograms
    ref_key = lambda r: (r["label"], r["what"], r.get("d"), r.get("n"))  # noqa: E731
    fresh = {ref_key(r) for r in reference}
    record["reference"] = [
        r for r in record["reference"] if ref_key(r) not in fresh
    ] + reference
    record["startup"] = [r for r in record["startup"] if r["label"] != args.label]
    record["startup"].append(startup)
    record["machine"] = (
        f"{os.cpu_count()} cores, {platform.machine()}, Python {platform.python_version()}"
    )
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
