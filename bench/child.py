"""One benchmark operation, run in a fresh interpreter by run.py.

    child.py grow --trace SPANS --op ID -- <darygrow cli arguments>
    child.py verify --seed S [--smoke] [--trace SPANS --op ID]
    child.py crosscheck --n N --pairs D:SEED,...

`grow` runs `darygrow.cli.main` with timing hooks; untimed grow runs do not
come here, run.py starts `python -m darygrow.cli` for them.  `verify` calls
the public oracle, tree, sampler and bijection API and prints one JSON
report for run.py to check.  `crosscheck` compares the kernel the package
selects with the `python` reference kernel.

With --trace, calls into each darygrow module are wrapped in spans (name,
start, end, parent) that stay in memory and are written to SPANS as JSON
when the operation ends, with the kernel counters read after the run.
A hook point that no longer exists is listed as unmeasured, not fatal.
"""

import argparse
import contextlib
import json
import sys
import time

from workloads import trip_seeds, verify_sizes

COUNTERS = (
    "n",
    "node_allocations",
    "link_redirections",
    "rng_draws",
    "lex_letters_compared",
    "lex_seconds",
)


class Tracer:
    """Spans of one operation, kept in memory until `dump`."""

    def __init__(self, path=None, op=None):
        self.path = path
        self.op = op
        self.spans = []  # [name, start, end, parent index or -1]
        self.kernels = []  # KernelProxy instances, in creation order
        self.unmeasured = []
        self.problems = []
        self._stack = []

    @property
    def enabled(self):
        return self.path is not None

    @contextlib.contextmanager
    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def span(self, name):
        return self._open(name) if self.enabled else contextlib.nullcontext()

    def wrap(self, name, fn):
        if not self.enabled:
            return fn

        def timed(*args, **kwargs):
            with self._open(name):
                return fn(*args, **kwargs)

        return timed

    def kernel_factory(self, make_kernel):
        """Wrap a `make_kernel` so that every kernel it makes is timed."""
        if not self.enabled:
            return make_kernel

        def make(*args, **kwargs):
            with self._open("kernel.make"):
                kernel = make_kernel(*args, **kwargs)
            proxy = KernelProxy(kernel, self)
            self.kernels.append(proxy)
            return proxy

        return make

    def patch(self, module, attr, wrapper):
        """Replace module.attr by wrapper(module.attr), or note it as unmeasured."""
        if not self.enabled:
            return
        original = getattr(module, attr, None)
        if original is None:
            self.unmeasured.append(f"{module.__name__}.{attr}")
            return
        setattr(module, attr, wrapper(original))

    def dump(self):
        if not self.enabled:
            return
        kernels = [k.counters() for k in self.kernels if k.stepped]
        for row in kernels:
            self._check_counters(row)
        with open(self.path, "w", encoding="ascii") as fh:
            json.dump(
                {
                    "op": self.op,
                    "spans": self.spans,
                    "kernels": kernels,
                    "unmeasured": sorted(set(self.unmeasured)),
                    "problems": self.problems,
                },
                fh,
            )

    def _check_counters(self, row):
        d, n = row["d"], row["n"]
        if None in (d, n):
            return
        if row["node_allocations"] is not None and row["node_allocations"] != d * n:
            self.problems.append(
                f"node_allocations {row['node_allocations']} != d*n = {d * n}"
            )
        if d == 2 and row["lex_seconds"]:
            self.problems.append(f"lex_seconds {row['lex_seconds']} at d=2")


class KernelProxy:
    """A growth kernel whose bulk methods open spans; the rest passes through."""

    TIMED = {
        "steps": "kernel.steps",
        "histogram": "kernel.histogram",
        "preorder_code": "kernel.preorder_code",
    }

    def __init__(self, kernel, tracer):
        object.__setattr__(self, "_kernel", kernel)
        object.__setattr__(self, "_tracer", tracer)
        object.__setattr__(self, "stepped", False)

    def __getattr__(self, name):
        attr = getattr(self._kernel, name)
        span = self.TIMED.get(name)
        if span is None:
            return attr
        if name == "steps":
            object.__setattr__(self, "stepped", True)
        return self._tracer.wrap(span, attr)

    def __setattr__(self, name, value):
        setattr(self._kernel, name, value)

    def counters(self):
        row = {"d": getattr(self._kernel, "d", None)}
        for name in COUNTERS:
            value = getattr(self._kernel, name, None)
            if value is None:
                self._tracer.unmeasured.append(f"kernel.{name}")
            row[name] = value
        return row


def run_grow(tracer, argv):
    with tracer.span("cli.import"):
        from darygrow import cli
    tracer.patch(cli, "make_kernel", tracer.kernel_factory)
    with tracer.span("cli.main"):
        status = cli.main(argv)
        sys.stdout.flush()
    return status


def run_verify(tracer, seed, smoke):
    from darygrow import bijections, oracle, sampler
    from darygrow.marks import EdgeMarkedTree
    from darygrow.tree import DaryTree

    sizes = verify_sizes(smoke)
    report = {"kernel": sampler.kernel_name()}
    with tracer.span("op"):
        tracer.patch(oracle, "make_kernel", tracer.kernel_factory)
        d, n, samples = sizes["chi"]
        chi = tracer.wrap("oracle.chi_square", oracle.chi_square_uniformity)
        report["chi"] = chi(d, n, samples, seed).to_obj()

        verify = tracer.wrap("oracle.verify_bijection", oracle.verify_enlarge_bijection)
        report["bijection"] = [verify(d, n) for d, n in sizes["suite"]]

        make_kernel = tracer.kernel_factory(sampler.make_kernel)
        from_code = tracer.wrap("tree.from_code", DaryTree.from_preorder_code)
        sample_marks = tracer.wrap("sampler.sample_mark_set", sampler.sample_mark_set)
        enlarge = tracer.wrap("bijections.enlarge", bijections.enlarge)
        reduce_ = tracer.wrap("bijections.reduce", bijections.reduce)
        trips = []
        for d in sizes["trip_ds"]:
            grow_seed, mark_seed = trip_seeds(seed, d)
            kernel = make_kernel(d, grow_seed)
            kernel.steps(sizes["trip_n"])
            tree = from_code(d, kernel.preorder_code())
            rng = sampler.SplitMix64(mark_seed)
            returned = 0
            for _ in range(sizes["trips"]):
                x = EdgeMarkedTree(tree, tuple(sample_marks(rng, tree)))
                a = 1 + rng.uniform_below(d)
                back, back_a = reduce_(enlarge(x, a))
                returned += back_a == a and back.key() == x.key()
            trips.append(
                {
                    "d": d,
                    "internal": tree.internal_count,
                    "trips": sizes["trips"],
                    "returned": returned,
                }
            )
        report["round_trips"] = trips
    print(json.dumps(report))
    return 0


def run_crosscheck(n, pairs):
    """Same tree and counters from the selected and the reference kernel."""
    from darygrow.sampler import kernel_name, make_kernel

    mismatches = []
    for d, seed in pairs:
        rows = []
        for kernel in (None, "python"):
            k = make_kernel(d, seed, kernel)
            k.steps(n)
            rows.append(
                (
                    k.preorder_code(),
                    [getattr(k, c) for c in COUNTERS if c != "lex_seconds"],
                )
            )
        if rows[0] != rows[1]:
            mismatches.append({"d": d, "seed": seed, "n": n})
    print(json.dumps({"kernel": kernel_name(), "mismatches": mismatches}))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in ("grow", "verify"):
        p = sub.add_parser(mode)
        p.add_argument("--trace", default=None, metavar="SPANS")
        p.add_argument("--op", type=int, default=0)
    grow = sub.choices["grow"]
    grow.add_argument("cli_args", nargs=argparse.REMAINDER)
    verify = sub.choices["verify"]
    verify.add_argument("--seed", type=int, required=True)
    verify.add_argument("--smoke", action="store_true")
    cross = sub.add_parser("crosscheck")
    cross.add_argument("--n", type=int, required=True)
    cross.add_argument("--pairs", required=True)
    args = parser.parse_args(argv)

    if args.mode == "crosscheck":
        pairs = [tuple(int(v) for v in p.split(":")) for p in args.pairs.split(",")]
        return run_crosscheck(args.n, pairs)
    tracer = Tracer(args.trace, args.op)
    try:
        if args.mode == "grow":
            cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
            return run_grow(tracer, cli_args)
        return run_verify(tracer, args.seed, args.smoke)
    finally:
        tracer.dump()


if __name__ == "__main__":
    sys.exit(main())
