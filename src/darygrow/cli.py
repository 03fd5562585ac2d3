"""Command line front end.

Exit codes are a stable contract: 0 success, 1 a verification or growth
check failed, 2 usage or input errors (including underpowered statistics).
Standard output carries data only; seeds and diagnostics go to standard
error.  ``json`` is imported by the commands that write it (``grow
--counters``, ``verify``, ``uniform`` and ``trace``), so a plain ``grow``
run does not pay for its import.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
import time

from .errors import (
    FORCE_HINT,
    DarygrowError,
    SizeGuardError,
    UnderpoweredTestError,
    check_child_slots,
)
from .sampler import COUNTERS, make_kernel
from .tree import DaryTree

SEED_ENV = "DARY_SEED"


def _nonneg(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is negative")
    return value


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not positive")
    return value


def _alpha(text: str) -> float:
    value = float(text)
    if not 0 < value < 1:
        raise argparse.ArgumentTypeError(f"{text} is not inside (0, 1)")
    return value


def _arity(text: str) -> int:
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"arity must be >= 2, got {value}")
    return value


def _effective_seed(args) -> int:
    if args.seed is not None:
        seed = args.seed
    elif os.environ.get(SEED_ENV):
        raw = os.environ[SEED_ENV]
        try:
            seed = int(raw)
        except ValueError:
            raise DarygrowError(f"{SEED_ENV} must be an integer, got {raw!r}")
    else:
        seed = int.from_bytes(os.urandom(8), "little")
    print(f"effective seed: {seed}", file=sys.stderr)
    return seed


# ----------------------------------------------------------------------
# output formats


def _dot_names(d, code):
    """(parent name or None, name, symbol) per node of a code, in preorder;
    a node is named by its word as ``tree.format_word`` renders it (``e``
    for the root).  A name extends its parent's, so each stack entry keeps
    both renderings of its word: letters run together, or dot-joined once
    any letter is above 9."""
    stack = []  # [name, plain, dotted, any letter > 9, children seen]
    for sym in code:
        if stack:
            top = stack[-1]
            top[4] += 1
            letter = str(top[4])
            plain = top[1] + letter
            dotted = f"{top[2]}.{letter}" if top[2] else letter
            big = top[3] or top[4] > 9
            parent, name = top[0], dotted if big else plain
        else:
            parent, name, plain, dotted, big = None, "e", "", "", False
        yield parent, name, sym
        if sym:
            stack.append([name, plain, dotted, big, 0])
        else:
            while stack and stack[-1][4] == d:
                stack.pop()


def _dot_lines(d, code):
    """Graphviz text of a code, line by line: every node, then every edge.
    Two passes over the code, so only the names on one root path are held;
    stdout's buffer writes the lines out in chunks."""
    yield "digraph tree {\n"
    for _, name, sym in _dot_names(d, code):
        yield f'  "{name}";\n' if sym else f'  "{name}" [shape=point];\n'
    for parent, name, _ in _dot_names(d, code):
        if parent is not None:
            yield f'  "{parent}" -> "{name}";\n'
    yield "}\n"


def _emit(kernel, fmt):
    """Write the kernel's tree to stdout; code and paren come from the kernel
    as ASCII bytes and go to the binary stream as they are, dot is streamed
    line by line."""
    if fmt == "dot":
        sys.stdout.writelines(_dot_lines(kernel.d, kernel.preorder_code()))
        return
    if fmt == "code":
        data = kernel.code_text()
    elif fmt == "paren":
        data = kernel.paren_text()
    else:
        head = b'{"d": %d, "n": %d, "code": "' % (kernel.d, kernel.n)
        data = head + kernel.code_text() + b'"}'  # as json.dumps writes it
    sys.stdout.flush()  # text written before goes first
    sys.stdout.buffer.write(data)
    sys.stdout.buffer.write(b"\n")


# ----------------------------------------------------------------------
# commands


def cmd_grow(args) -> int:
    seed = _effective_seed(args)
    kernel = make_kernel(args.d, seed, args.kernel)
    # the final size, before --emit-every grows and prints the way there
    check_child_slots(args.d, args.n)
    every = args.emit_every
    grow_s = emit_s = 0.0
    for size in itertools.chain(range(every, args.n, every) if every else (), [args.n]):
        t0 = time.perf_counter()
        kernel.steps(size - kernel.n)
        t1 = time.perf_counter()
        _emit(kernel, args.format)
        grow_s += t1 - t0
        emit_s += time.perf_counter() - t1
    if args.counters:
        import json

        summary = {"kernel": kernel.name}
        summary.update((c, getattr(kernel, c)) for c in COUNTERS)
        summary.update(lex_seconds=kernel.lex_seconds, grow_s=grow_s, emit_s=emit_s)
        summary["peak_rss_mb"] = _peak_rss_kib() / 1024
        print(json.dumps(summary), file=sys.stderr)
    return 0


def _peak_rss_kib() -> int:
    """This program's peak resident set in KiB.

    ``VmHWM`` starts afresh when a program is exec'd; ``ru_maxrss`` also
    keeps the peak of the process that exec'd it, so it is only the
    fallback where ``/proc`` has no ``VmHWM`` line.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])  # "VmHWM:  1234 kB"
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux


def _print_report(report) -> int:
    import json

    print(json.dumps(report))
    return 0 if report["pass"] else 1


def cmd_verify_sizes(args) -> int:
    """``verify bijection|rotation|variants``: each size's report up to the
    given size, and exit 1 if any failed.  A guard takes its verifier's
    arguments; the largest size costs the most, so it is refused first,
    before any output."""
    from . import oracle

    if args.verifier == "bijection":
        guard, verify = oracle.inputs_guard, oracle.verify_enlarge_bijection
        sizes, at = range(args.max_n + 1), lambda n: (args.d, n)
    elif args.verifier == "rotation":
        guard, verify = oracle.rotation_guard, oracle.verify_rotation_lemma
        sizes, at = range(1, args.m + 1), lambda m: (m, args.max_inc)
    else:
        guard, verify = oracle.variants_guard, oracle.verify_binary_variants
        sizes, at = range(args.max_n + 1), lambda n: (n,)
    guard(*at(sizes[-1]), args.force)
    status = 0
    for size in sizes:
        status |= _print_report(verify(*at(size), args.force))
    return status


def cmd_verify_counts(args) -> int:
    from . import oracle

    # the count prints as an exact decimal, which Python writes up to
    # int_max_str_digits digits; refuse when the identity's left side, the
    # largest number checked, may be longer, so the check also stays quick
    limit = sys.get_int_max_str_digits()
    d, m = args.d, args.n + 1
    digits = 1 + oracle.log10_comb((d - 1) * m + 1, d - 1) + oracle.log10_comb(d * m + 1, m)
    if limit and digits > limit:
        raise SizeGuardError(
            f"the counts at d={d}, n={args.n} have about {digits:.0f} digits,"
            f" above the {limit} that Python prints (PYTHONINTMAXSTRDIGITS)"
        )
    count = oracle.count_trees(args.d, args.n)
    report = {
        "check": "counts",
        "params": {"d": args.d, "n": args.n},
        "count": str(count),
        "identity_ok": oracle.growth_identity_holds(args.d, args.n),
        "pass": False,
    }
    try:
        codes = oracle.enumerate_codes(args.d, args.n, force=args.force)
        report["enumerated"] = sum(1 for _ in codes)
        report["pass"] = report["identity_ok"] and report["enumerated"] == count
    except SizeGuardError:
        report["enumerated"] = None
        report["pass"] = report["identity_ok"]
    return _print_report(report)


def cmd_uniform(args) -> int:
    from . import oracle

    seed = _effective_seed(args)
    report = oracle.chi_square_uniformity(
        args.d, args.n, args.samples, seed, kernel=args.kernel
    )
    obj = report.to_obj()
    obj["alpha"] = args.alpha
    obj["pass"] = report.p_value >= args.alpha
    return _print_report(obj)


def cmd_trace(args) -> int:
    import json

    from .bijections import enlarge_trace
    from .marks import edge_marked_from_obj

    try:
        with open(args.input, "r", encoding="ascii") as fh:
            obj = json.load(fh)
        marked = edge_marked_from_obj(obj)
    except (OSError, ValueError, KeyError, RecursionError) as exc:  # deep nesting
        print(f"cannot read marked tree: {exc}", file=sys.stderr)
        return 2
    if args.d is not None and args.d != marked.d:
        print(f"--d {args.d} does not match input arity {marked.d}", file=sys.stderr)
        return 2
    _, frames = enlarge_trace(marked, args.letter)
    print(json.dumps(frames, indent=2))
    return 0


def cmd_export(args) -> int:
    try:
        with open(args.input, "r", encoding="ascii") as fh:
            code = [int(tok) for tok in fh.read().split()]
    except (OSError, ValueError) as exc:
        print(f"cannot read preorder code: {exc}", file=sys.stderr)
        return 2
    d = args.d if args.d is not None else max(code, default=0)
    if d == 0:
        d = 2  # a single leaf renders the same for every arity
    try:
        DaryTree.from_preorder_code(d, code)  # validation only
    except DarygrowError as exc:
        print(f"invalid code: {exc}", file=sys.stderr)
        return 2
    sys.stdout.writelines(_dot_lines(d, code))
    return 0


# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="darygrow",
        description="Grow, verify and export uniform random d-ary trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    grow = sub.add_parser("grow", help="grow a uniform random tree")
    grow.add_argument("--d", type=_arity, required=True)
    grow.add_argument("--n", type=_nonneg, required=True)
    grow.add_argument("--seed", type=int, default=None)
    grow.add_argument(
        "--format", choices=("code", "paren", "dot", "json"), default="code"
    )
    grow.add_argument("--emit-every", type=_nonneg, default=0, metavar="K")
    grow.add_argument("--counters", action="store_true")
    grow.add_argument("--kernel", choices=("python", "c"), default=None)
    grow.set_defaults(func=cmd_grow)

    verify = sub.add_parser("verify", help="run an exhaustive verifier")
    vsub = verify.add_subparsers(dest="verifier", required=True)

    bij = vsub.add_parser("bijection")
    bij.add_argument("--d", type=_arity, required=True)
    bij.add_argument("--max-n", type=_nonneg, required=True)
    bij.add_argument("--force", action="store_true")
    bij.set_defaults(func=cmd_verify_sizes)

    rot = vsub.add_parser("rotation")
    rot.add_argument("--m", type=_positive, required=True)
    rot.add_argument("--max-inc", type=_nonneg, default=3)
    rot.add_argument("--force", action="store_true")
    rot.set_defaults(func=cmd_verify_sizes)

    var = vsub.add_parser("variants")
    var.add_argument("--max-n", type=_nonneg, required=True)
    var.add_argument("--force", action="store_true")
    var.set_defaults(func=cmd_verify_sizes)

    cnt = vsub.add_parser("counts")
    cnt.add_argument("--d", type=_arity, required=True)
    cnt.add_argument("--n", type=_nonneg, required=True)
    cnt.add_argument("--force", action="store_true")
    cnt.set_defaults(func=cmd_verify_counts)

    uni = sub.add_parser("uniform", help="chi-square uniformity run")
    uni.add_argument("--d", type=_arity, required=True)
    uni.add_argument("--n", type=_nonneg, required=True)
    uni.add_argument("--samples", type=_nonneg, required=True)
    uni.add_argument("--seed", type=int, default=None)
    uni.add_argument("--alpha", type=_alpha, default=0.001)
    uni.add_argument("--kernel", choices=("python", "c"), default=None)
    uni.set_defaults(func=cmd_uniform)

    trace = sub.add_parser("trace", help="frame-by-frame growth of one input")
    trace.add_argument("--d", type=_arity, default=None)
    trace.add_argument("--input", required=True)
    trace.add_argument("--letter", type=int, required=True)
    trace.set_defaults(func=cmd_trace)

    export = sub.add_parser("export", help="render a preorder code file")
    export.add_argument("--input", required=True)
    export.add_argument("--d", type=_arity, default=None)
    export.add_argument("--format", choices=("dot",), default="dot")
    export.set_defaults(func=cmd_export)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UnderpoweredTestError as exc:
        print(f"underpowered: {exc}", file=sys.stderr)
        return 2
    except SizeGuardError as exc:
        # the library's hint names its keyword: a verify command names its
        # flag instead, and uniform, which has none, names nothing
        hint = "; pass --force to override" if hasattr(args, "force") else ""
        print(f"size guard: {str(exc).replace(FORCE_HINT, hint)}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return 1
    except DarygrowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
