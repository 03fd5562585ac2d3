#!/usr/bin/env python3
"""The darygrow benchmark: one command, three workloads, every output checked.

    python3 bench/run.py --workload grow-d2|grow-d3|verify --seed N
                         --seconds S --trace 0|1 [--smoke]

Runs from any directory; the checkout is the parent of this file's
directory.  One run:

1. builds the package in place once per source tree (`setup.py build_ext`),
2. times a fresh interpreter importing the package and making its first
   kernel, several times (`setup_s`, the median),
3. compares the kernel the package selects with the `python` reference
   kernel at a small size (untimed; skipped, with a note, when they are the
   same kernel),
4. runs operations as a closed loop, one `darygrow` process at a time,
   until `--seconds` is spent, and checks every output.

With `--trace 0` the last stdout line holds the end-to-end metrics, with
`--trace 1` the per-layer ones, from a run that alternates untraced and
traced operations.  The line before it is the run record (kernel, commit,
Python, nproc, seeds, output digests, notes).  Spans of the traced run are
written to .bench_build/trace/.  See README.md beside this file for why
each workload and metric exists.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path

import workloads as wl
from child import COUNTERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_build"
PY = sys.executable

# set-up and reference samples taken before the first round and after
# each round, so that they span the run
SAMPLES_PER_ROUND = 4
RUN_DEADLINE_S = 165  # a run, after the build, must end within 180 s
BUILD_TIMEOUT_S = 600
CROSSCHECK_N = {False: 2_000, True: 200}
# Each verify op runs one chi-square test, and comparing two commits takes
# a few hundred ops, so a per-test alpha of 0.001 (the CLI default) would
# flag a correct sampler in about one comparison out of five; 1e-6 keeps
# that near 0.02%.  A biased sampler gives p values far below either.
CHI_SQUARE_ALPHA = 1e-6
TAIL_LADDER = (99.9, 99, 95, 90, 75, 50)

SETUP_CODE = (
    "import darygrow.cli, darygrow.oracle, darygrow.sampler as s;"
    "s.make_kernel({d}, 0); print(s.kernel_name())"
)
# The reference: a fresh isolated interpreter doing fixed standard-library
# work, independent of the package.  The speed of the machine this was
# tuned on drifts by up to 40% for minutes at a time (other tenants), and
# the reference's wall drifts with it, so the end-to-end times are scaled
# by REFERENCE_NOMINAL_S / (median reference wall of the run): seconds at
# the reference speed of the tuning machine.  Raw times are in the record.
REFERENCE_CODE = (
    "import argparse, dataclasses, json, math, random, typing\n"
    "x = 0\n"
    "for i in range(400000): x = (x * 31 + i) & 0xFFFFFFFF"
)
REFERENCE_NOMINAL_S = 0.15


def child_env():
    """The children's environment: the package from src, no overrides."""
    env = {
        k: v
        for k, v in os.environ.items()
        if k not in ("DARYGROW_PURE_PYTHON", "DARY_SEED", "PYTHONPATH")
    }
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


# ----------------------------------------------------------------------
# workloads


@dataclass
class Workload:
    name: str
    smoke: bool

    @property
    def grow(self):
        return self.name in wl.GROW

    @property
    def d(self):
        return wl.GROW[self.name][0] if self.grow else self.sizes["chi"][0]

    @property
    def n(self):
        return wl.GROW_SMOKE_N[self.name] if self.smoke else wl.GROW[self.name][1]

    @property
    def fmt(self):
        return wl.GROW[self.name][2]

    @property
    def sizes(self):
        """Sizes of the verify op."""
        return wl.verify_sizes(self.smoke)

    def cli_args(self, seed):
        return ["grow", "--d", str(self.d), "--n", str(self.n),
                "--seed", str(seed), "--format", self.fmt]

    def command(self, seed, spans=None, op=0):
        """argv of one operation; `spans` set means a traced operation."""
        trace = ["--trace", str(spans), "--op", str(op)] if spans else []
        if not self.grow:
            smoke = ["--smoke"] if self.smoke else []
            return [PY, str(BENCH / "child.py"), "verify", "--seed", str(seed),
                    *smoke, *trace]
        if spans:
            return [PY, str(BENCH / "child.py"), "grow", *trace, "--",
                    *self.cli_args(seed)]
        return [PY, "-m", "darygrow.cli", *self.cli_args(seed)]

    def crosscheck_pairs(self, seeds):
        """(d, seed) of every kernel that the workload's ops grow."""
        pairs = [(self.d, s) for s in seeds]
        if not self.grow:
            trip_ds = self.sizes["trip_ds"]
            pairs += [(d, wl.trip_seeds(s, d)[0]) for s in seeds for d in trip_ds]
        return pairs

    def check(self, stdout, seed):
        """None when the output is correct, else what is wrong with it."""
        try:
            text = stdout.decode("ascii")
        except UnicodeDecodeError:
            return "output is not ASCII"
        if not text.endswith("\n"):
            return "output does not end in a newline"
        if self.grow:
            body = text[:-1]
            if self.fmt == "code":
                return check_code(body, self.d, self.n)
            return check_paren(body, self.d, self.n)
        return check_verify(text.splitlines()[-1], self.sizes, seed)


def check_code(body, d, n):
    """Preorder child counts of a d-ary tree with n internal nodes."""
    tokens = body.split(" ")
    inner = tokens.count(str(d))
    if inner != n:
        return f"{inner} internal nodes, expected {n}"
    if len(tokens) != d * n + 1 or inner + tokens.count("0") != len(tokens):
        return f"{len(tokens)} symbols, expected {d * n + 1} of 0 and {d}"
    # Lukasiewicz walk: steps of s - 1 stay >= 0 until the last one
    walk = list(accumulate(d - 1 if t != "0" else -1 for t in tokens))
    if walk[-1] != -1 or min(walk[:-1], default=0) < 0:
        return "Lukasiewicz walk is not an excursion"
    return None


def check_paren(body, d, n):
    """`(` + d children + `)` per internal node, `o` per leaf."""
    leaves = (d - 1) * n + 1
    counts = (body.count("("), body.count(")"), body.count("o"))
    if counts != (n, n, leaves) or len(body) != 2 * n + leaves:
        return f"( ) o counts {counts}, expected {(n, n, leaves)}"
    need = [1]  # children still expected by each open node; one root tree
    for ch in body:
        if ch == ")":
            if len(need) < 2 or need[-1]:
                return "unbalanced or short parenthesis group"
            need.pop()
        elif not need[-1]:
            return "node with more than d children"
        else:
            need[-1] -= 1
            if ch == "(":
                need.append(d)
    return None if need == [0] else "unbalanced parentheses"


def check_verify(line, sizes, seed):
    try:
        report = json.loads(line)
        chi = report["chi"]
        d, n, samples = sizes["chi"]
        if (chi["classes"], chi["samples"], chi["seed"]) != (
            wl.count_trees(d, n), samples, seed
        ):
            return f"chi-square ran on the wrong input: {chi}"
        if not chi["p_value"] >= CHI_SQUARE_ALPHA:
            return f"chi-square p = {chi['p_value']} < {CHI_SQUARE_ALPHA}"
        if len(report["bijection"]) != len(sizes["suite"]):
            return "missing bijection reports"
        for (d, n), r in zip(sizes["suite"], report["bijection"]):
            if r["params"] != {"d": d, "n": n} or r["pass"] is not True:
                return f"bijection report without pass at d={d}, n={n}"
            if r["inputs"] != wl.bijection_inputs(d, n):
                return f"bijection at d={d}, n={n} certified {r['inputs']} inputs"
        trips = report["round_trips"]
        if [t["d"] for t in trips] != list(sizes["trip_ds"]):
            return "missing round trips"
        for t in trips:
            if t["internal"] != sizes["trip_n"]:
                return f"round-trip tree with {t['internal']} internal nodes"
            if not t["returned"] == t["trips"] == sizes["trips"]:
                return f"{t['returned']} of {sizes['trips']} round trips returned"
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable verify report: {exc!r}"
    return None


# ----------------------------------------------------------------------
# running operations


@dataclass
class Op:
    traced: bool
    wall: float = 0.0
    rss_mb: float = 0.0
    cpu: float = 0.0
    output_bytes: int = 0
    report: dict = None  # the parsed verify report
    spans: dict = None  # the child's span file, traced ops only
    error: str = None  # why the op failed; None when it passed every check


def execute(argv, timeout):
    """Run argv to completion: (wall s, exit code, rusage, stdout, stderr)."""
    out_path, err_path = WORK / "op.out", WORK / "op.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err, cwd=ROOT, env=child_env())
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    return wall, proc.returncode, usage, out_path.read_bytes(), err_path.read_text(
        "utf-8", "replace"
    )


def run_op(workload, seed, traced, op_id, deadline, digests):
    op = Op(traced)
    spans_path = WORK / "op.spans.json" if traced else None
    if spans_path and spans_path.exists():
        spans_path.unlink()
    op.wall, code, usage, stdout, stderr = execute(
        workload.command(seed, spans_path, op_id), deadline - time.perf_counter()
    )
    op.rss_mb = usage.ru_maxrss / 1024
    op.cpu = usage.ru_utime + usage.ru_stime
    op.output_bytes = len(stdout)
    digest = hashlib.sha256(stdout).hexdigest()
    if code != 0 or "Traceback" in stderr:
        op.error = f"exit {code}: {stderr.strip()[-300:]}"
    else:
        op.error = workload.check(stdout, seed)
    if op.error is None and digests.setdefault(seed, digest) != digest:
        op.error = "output differs from an earlier run with the same seed"
    if op.error is None and not workload.grow:
        op.report = json.loads(stdout.decode("ascii").splitlines()[-1])
    if traced and op.error is None:
        try:
            op.spans = json.loads(spans_path.read_text("ascii"))
        except (OSError, ValueError) as exc:
            op.error = f"no spans: {exc!r}"
        else:
            if op.spans["problems"]:
                op.error = "; ".join(op.spans["problems"])
    return op


def measure(workload, seeds, seconds, trace, deadline, between_rounds=None):
    """Closed loop: the next op starts when the previous one has ended.

    The loop stops once half a round more would pass `seconds`, so a run
    ends within half an operation of `seconds`.
    """
    ops, digests = [], {}
    t0 = time.perf_counter()
    rounds = 0
    while True:
        seed = seeds[rounds % len(seeds)]
        order = [False, True] if rounds % 2 == 0 else [True, False]
        for traced in order if trace else [False]:
            ops.append(run_op(workload, seed, traced, len(ops), deadline, digests))
        if between_rounds:
            between_rounds()
        rounds += 1
        now = time.perf_counter()
        per_round = (now - t0) / rounds
        if now - t0 + per_round / 2 > seconds or now + per_round > deadline:
            return ops, digests


@dataclass
class Clock:
    """Set-up walls and reference walls, sampled in pairs through the run."""

    d: int
    setup: list
    reference: list
    kernel: str = None  # the kernel the package selected

    def sample(self, count):
        setup = [PY, "-c", SETUP_CODE.format(d=self.d)]
        reference = [PY, "-I", "-c", REFERENCE_CODE]
        for _ in range(count):
            wall, code, _, stdout, stderr = execute(setup, 60)
            if code != 0:
                raise SystemExit(f"error: the package does not import:\n{stderr}")
            self.kernel = stdout.decode().strip()
            self.setup.append(wall)
            self.reference.append(execute(reference, 60)[0])

    def warm_up(self):
        """One pair, not kept: fills the bytecode cache, learns the kernel."""
        self.sample(1)
        del self.setup[:], self.reference[:]

    @property
    def scale(self):
        return REFERENCE_NOMINAL_S / statistics.median(self.reference)


class CrosscheckFailed(Exception):
    pass


def crosscheck(workload, seeds, kernel):
    if kernel == "python":
        return "cross-kernel check skipped: the package selected the python reference kernel"
    pairs = ",".join(f"{d}:{s}" for d, s in workload.crosscheck_pairs(seeds))
    n = CROSSCHECK_N[workload.smoke]
    _, code, _, stdout, stderr = execute(
        [PY, str(BENCH / "child.py"), "crosscheck", "--n", str(n), "--pairs", pairs], 120
    )
    if code != 0:
        raise CrosscheckFailed(f"cross-kernel check crashed: {stderr.strip()[-300:]}")
    result = json.loads(stdout.decode().splitlines()[-1])
    if result["mismatches"]:
        raise CrosscheckFailed(
            f"kernel {kernel} differs from python: {result['mismatches']}"
        )
    return f"cross-kernel check: {kernel} == python at n={n} for {len(seeds)} seeds"


# ----------------------------------------------------------------------
# build and run record


def source_digest():
    h = hashlib.sha256()
    paths = [p for p in sorted((ROOT / "src").rglob("*")) if p.is_file()]
    paths += [ROOT / name for name in ("setup.py", "pyproject.toml")]
    for p in paths:
        if "__pycache__" in p.parts or p.suffix in (".so", ".pyc", ".o") or not p.exists():
            continue
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def build(digest):
    """Build any compiled part of the package in place, once per source tree."""
    marker = WORK / "build.done"
    if marker.exists() and marker.read_text() == digest:
        return "build: up to date"
    if not (ROOT / "setup.py").exists():
        return "build: no setup.py"
    proc = subprocess.run(
        [PY, "setup.py", "build_ext", "--inplace", "--build-temp", str(WORK / "build")],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=BUILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        print(proc.stderr[-2000:], file=sys.stderr)
        return f"build: setup.py build_ext failed with exit {proc.returncode}"
    marker.write_text(digest)
    return "build: setup.py build_ext ok"


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() or None


# ----------------------------------------------------------------------
# metrics


def metric(value, unit):
    return {"value": value, "unit": unit}


def tail(values):
    """(value, percentile, samples): the highest ladder percentile with at
    least ten samples beyond it, or the maximum when there are too few."""
    values = sorted(values)
    for pct in TAIL_LADDER:
        if len(values) * (100 - pct) / 100 >= 10:
            index = min(len(values) - 1, int(len(values) * pct / 100))
            return values[index], pct, len(values)
    return values[-1], 100, len(values)


def end_to_end(ops, clock):
    good = [op for op in ops if op.error is None] or ops
    failed = sum(op.error is not None for op in ops)
    return {
        "setup_s": metric(statistics.median(clock.setup) * clock.scale, "s"),
        "wall_s": metric(statistics.median(op.wall for op in good) * clock.scale, "s"),
        "peak_rss_mb": metric(statistics.median(op.rss_mb for op in good), "MB"),
        "ok_ratio": metric((len(ops) - failed) / len(ops), "ratio"),
    }


def span_tables(op):
    """Per span name: total duration, self duration, and each duration."""
    spans = op.spans["spans"]
    dur = [end - start for _, start, end, _ in spans]
    covered = [0.0] * len(spans)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            covered[parent] += dur[i]
    total, self_, each = {}, {}, {}
    for i, (name, _, _, parent) in enumerate(spans):
        total[name] = total.get(name, 0.0) + dur[i]
        self_[name] = self_.get(name, 0.0) + dur[i] - covered[i]
        each.setdefault(name, []).append(dur[i])
    roots = sum(d for d, s in zip(dur, spans) if s[3] < 0)
    return total, self_, each, op.wall - roots


def kernel_sums(op):
    rows = op.spans["kernels"]
    sums = {}
    for name in COUNTERS:
        values = [r[name] for r in rows]
        sums[name] = None if not rows or None in values else sum(values)
    return sums


def div(a, b):
    return None if a is None or b is None or b == 0 else a / b


def op_layers(workload, op):
    """Per-layer numbers of one traced op; None where a hook was missing."""
    total, self_, each, unattributed = span_tables(op)
    k = kernel_sums(op)
    steps_s = total.get("kernel.steps")
    lex_s = k["lex_seconds"]
    o1 = None if steps_s is None or lex_s is None else steps_s - lex_s
    row = {
        "kernel.make_s": self_.get("kernel.make"),
        "kernel.steps_s": steps_s,
        "kernel.o1_ns_per_step": div(None if o1 is None else o1 * 1e9, k["n"]),
        "kernel.rng_draws_per_step": div(k["rng_draws"], k["n"]),
        "kernel.node_allocations": k["node_allocations"],
        "kernel.link_redirections": k["link_redirections"],
        "kernel.lex_s": lex_s,
        "kernel.lex_share": div(lex_s, steps_s),
        "kernel.lex_letters_per_step": div(k["lex_letters_compared"], k["n"]),
        "trace.unattributed_s": unattributed,
    }
    if workload.grow:
        row.update({
            "cli.import_s": total.get("cli.import"),
            "cli.preorder_code_s": total.get("kernel.preorder_code"),
            "cli.format_write_s": self_.get("cli.main"),
            "cli.output_bytes": op.output_bytes,
        })
    else:
        samples = workload.sizes["chi"][2]
        histogram_s = total.get("kernel.histogram")
        inputs = sum(r["inputs"] for r in op.report["bijection"])
        row.update({
            "kernel.histogram_s": histogram_s,
            "kernel.chains_per_s": div(samples, histogram_s),
            "tree.from_code_s": total.get("tree.from_code"),
            "sampler.sample_mark_set_s": total.get("sampler.sample_mark_set"),
            "oracle.chi_square_s": total.get("oracle.chi_square"),
            "oracle.chi_square_self_s": self_.get("oracle.chi_square"),
            "oracle.verify_bijection_s": total.get("oracle.verify_bijection"),
            "oracle.inputs_per_s": div(inputs, total.get("oracle.verify_bijection")),
            "oracle.inputs_certified": inputs,
        })
    return row, each


VERIFY_ONLY = ("kernel.histogram", "kernel.chains", "tree.", "bijections.",
               "sampler.", "oracle.")


def reaches(workload, name):
    """Whether the workload runs the layer that the metric describes."""
    if name.startswith("cli."):
        return workload.grow
    return not (workload.grow and name.startswith(VERIFY_ONLY))


def per_layer(workload, ops, layer_units):
    """Medians over traced ops, pooled bijection tails, op and trace metrics."""
    traced = [op for op in ops if op.traced and op.error is None]
    plain = [op for op in ops if not op.traced]
    plain_good = [op for op in plain if op.error is None] or plain
    rows, pooled = [], {}
    for op in traced:
        row, each = op_layers(workload, op)
        rows.append(row)
        for name, values in each.items():
            pooled.setdefault(name, []).extend(values)

    values, notes = {}, {}
    for name in rows[0] if rows else ():
        column = [row[name] for row in rows]
        values[name] = None if None in column else statistics.median(column)
    for layer in ("enlarge", "reduce"):
        durations = pooled.get(f"bijections.{layer}")
        if durations:
            values[f"bijections.{layer}_s_p50"] = statistics.median(durations)
            value, pct, count = tail(durations)
            values[f"bijections.{layer}_s_tail"] = value
            notes[f"bijections.{layer}_s_tail"] = f"p{pct} of {count}"
    values["bijections.round_trips"] = len(pooled.get("bijections.reduce", ()))
    values["cli.cpu_s"] = statistics.median(op.cpu for op in plain_good)
    walls = [op.wall for op in plain_good]
    value, pct, count = tail(walls)
    values.update({
        "op.wall_s_tail": value,
        "op.wall_s_tail_pct": pct,
        "op.count": count,
        "op.fail_ratio": sum(op.error is not None for op in ops) / len(ops),
    })
    if traced:
        values["trace.overhead"] = div(
            statistics.median(op.wall for op in traced), statistics.median(walls)
        )

    reached = {name for name in layer_units if reaches(workload, name)}
    unmeasured = sorted(
        {u for op in traced for u in op.spans["unmeasured"]}
        | {name for name in reached if values.get(name) is None}
    )
    not_reached = sorted(set(layer_units) - reached)
    metrics = {
        name: metric((name in reached and values.get(name)) or 0, unit)
        for name, unit in layer_units.items()
    }
    return metrics, {"unmeasured": unmeasured, "not_reached": not_reached,
                     "tails": notes}


def write_trace(workload, seed, ops):
    path = WORK / "trace" / f"{workload.name}-seed{seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    spans = [
        [name, start, end, parent, op.spans["op"]]
        for op in ops if op.spans
        for name, start, end, parent in op.spans["spans"]
    ]
    path.write_text(json.dumps({"columns": ["name", "start", "end", "parent", "op"],
                                "spans": spans}))
    return str(path.relative_to(ROOT))


# ----------------------------------------------------------------------


def load_metric_units(section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def run(args):
    """One benchmark run: (run record, result object)."""
    workload = Workload(args.workload, args.smoke)
    digest = source_digest()
    notes = [build(digest)]
    deadline = time.perf_counter() + RUN_DEADLINE_S
    clock = Clock(workload.d, [], [])
    clock.warm_up()
    kernel = clock.kernel
    clock.sample(SAMPLES_PER_ROUND)
    seeds = wl.op_seeds(workload.name, args.seed)
    correct = True
    try:
        notes.append(crosscheck(workload, seeds, kernel))
    except CrosscheckFailed as exc:
        notes.append(str(exc))
        correct = False
    more_samples = None if args.trace else (lambda: clock.sample(SAMPLES_PER_ROUND))
    ops, digests = measure(workload, seeds, args.seconds, args.trace, deadline, more_samples)
    good = [op for op in ops if op.error is None] or ops
    failed = sum(op.error is not None for op in ops)
    record = {
        "workload": workload.name,
        "workload_seed": args.seed,
        "smoke": args.smoke,
        "trace": args.trace,
        "kernel": kernel,
        "commit": git_commit(),
        "source_sha256": digest,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "program_seeds": seeds,
        "stdout_sha256": {str(s): h for s, h in digests.items()},
        "op_walls_s": [round(op.wall, 4) for op in ops],
        "raw_wall_s": statistics.median(op.wall for op in good),
        "raw_setup_s": statistics.median(clock.setup),
        "reference_s": statistics.median(clock.reference),
        "scale": clock.scale,
        "errors": sorted({op.error for op in ops if op.error}),
        "notes": notes,
    }
    if args.trace:
        metrics, trace_notes = per_layer(workload, ops, load_metric_units("per_layer"))
        record.update(trace_notes)
        record["spans_file"] = write_trace(workload, args.seed, ops)
    else:
        metrics = end_to_end(ops, clock)
    result = {
        "correct": correct and failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }
    return record, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "darygrow" / "__init__.py").is_file():
        print(f"error: no darygrow package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    record, result = run(args)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
