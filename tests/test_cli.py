"""End-to-end tests of the command line front end.

Everything runs in-process through cli.main so exit codes and stream
separation are asserted directly; a couple of determinism checks shell out
to fresh interpreters because that is the actual contract.
"""

import hashlib
import json
import os
import re
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from darygrow import _growth_py, cli, oracle
from darygrow.bijections import reduce as reduce_map
from darygrow.marks import edge_marked_to_obj, leaf_marked_from_obj
from darygrow.sampler import COUNTERS, kernel_name
from darygrow.tree import DaryTree


def run_cli(args, capsys):
    """Exit code, stdout and stderr of one in-process run; argparse's
    SystemExit counts as the exit code."""
    try:
        code = cli.main(args)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------------
# grow


# the modules a fresh interpreter holds at the end of a script, printed as
# the last line of its stderr
LIST_MODULES = '\nimport sys\nprint(" ".join(sorted(sys.modules)), file=sys.stderr)\n'


def modules_loaded_by(code):
    """The modules a fresh interpreter loads to run ``code``, beyond those a
    bare one holds (what ``site`` imports does not count)."""
    loaded = []
    for script in ("", code):
        out = subprocess.run(
            [sys.executable, "-c", script + LIST_MODULES],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert out.returncode == 0, out.stderr
        loaded.append(set(out.stderr.splitlines()[-1].split()))
    bare, run = loaded
    return run - bare


GROW_PAREN = """
from darygrow import cli

status = cli.main(["grow", "--d", "3", "--n", "50", "--seed", "1", "--format", "paren"])
assert status == 0
"""


def test_grow_imports_only_what_it_runs():
    loaded = modules_loaded_by(GROW_PAREN)
    assert "darygrow.cli" in loaded and "darygrow.sampler" in loaded
    for name in ("oracle", "bijections", "marks", "walks"):
        assert f"darygrow.{name}" not in loaded
    # grow writes JSON only with --counters, so it loads no json here
    for name in ("dataclasses", "inspect", "json"):
        assert name not in loaded


def test_library_imports_load_no_dataclasses():
    loaded = modules_loaded_by("import darygrow.cli, darygrow.oracle, darygrow.sampler")
    assert "darygrow.oracle" in loaded
    for name in ("dataclasses", "inspect"):
        assert name not in loaded


def test_every_exported_name_resolves():
    # the package imports its names lazily: each must still be there
    import darygrow
    from darygrow import bijections, oracle

    assert darygrow.__all__ == sorted(set(darygrow.__all__))
    for name in darygrow.__all__:
        assert getattr(darygrow, name) is not None, name
        assert name in dir(darygrow)
    assert darygrow.enlarge is bijections.enlarge
    assert darygrow.count_trees is oracle.count_trees
    with pytest.raises(AttributeError):
        darygrow.no_such_name
    namespace = {}
    exec("from darygrow import *", namespace)
    assert set(darygrow.__all__) <= set(namespace)


def test_grow_n0(capsys):
    code, out, err = run_cli(["grow", "--d", "3", "--n", "0", "--seed", "1"], capsys)
    assert code == 0
    assert out == "0\n"
    assert "effective seed: 1" in err


def test_grow_n1_unique_shape(capsys):
    code, out, _ = run_cli(["grow", "--d", "3", "--n", "1", "--seed", "8"], capsys)
    assert code == 0
    assert out == "3 0 0 0\n"


def test_stdout_carries_data_only(capsys):
    argv = ["grow", "--d", "2", "--n", "5", "--seed", "3"]
    _, plain, _ = run_cli(argv, capsys)
    _, out, err = run_cli(argv + ["--counters"], capsys)
    assert out == plain
    DaryTree.from_code_text(2, out)  # parses as a bare code
    counters = json.loads(err.splitlines()[-1])
    assert counters["node_allocations"] == 10
    assert counters["kernel"] in ("python", "c")
    # one run record: the counters first, then the phase times and peak RSS
    assert list(counters) == [
        "kernel", *COUNTERS, "lex_seconds", "grow_s", "emit_s", "peak_rss_mb"
    ]
    assert all(type(counters[c]) is int for c in COUNTERS)
    for key in ("lex_seconds", "grow_s", "emit_s", "peak_rss_mb"):
        assert type(counters[key]) is float and counters[key] >= 0
    assert counters["peak_rss_mb"] > 1


def test_emit_every(capsys):
    code, out, _ = run_cli(
        ["grow", "--d", "2", "--n", "6", "--seed", "9", "--emit-every", "2"], capsys
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    assert [len(line.split()) for line in lines] == [5, 9, 13]


def test_negative_emit_every_is_usage_error(capsys):
    # --emit-every -1 used to print forever
    with pytest.raises(SystemExit) as exc:
        cli.main(["grow", "--d", "2", "--n", "3", "--seed", "1", "--emit-every", "-1"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("fmt", ["code", "paren", "json", "dot"])
def test_formats_agree_across_kernels(fmt, capsys):
    pytest.importorskip(
        "darygrow._growth_c", reason="compiled kernel not built", exc_type=ImportError
    )
    outs = []
    for kernel in ("python", "c"):
        argv = ["grow", "--d", "3", "--n", "40", "--seed", "2", "--format", fmt]
        code, out, _ = run_cli(argv + ["--kernel", kernel], capsys)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_json_format_is_json(capsys):
    _, out, _ = run_cli(["grow", "--d", "2", "--n", "3", "--seed", "4", "--format", "json"], capsys)
    obj = json.loads(out)
    assert obj["d"] == 2 and obj["n"] == 3
    assert len(obj["code"].split()) == 7


def test_seed_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("DARY_SEED", "5")
    _, out_env, err = run_cli(["grow", "--d", "2", "--n", "50"], capsys)
    assert "effective seed: 5" in err
    _, out_flag, _ = run_cli(["grow", "--d", "2", "--n", "50", "--seed", "5"], capsys)
    assert out_env == out_flag


def test_random_seed_is_echoed(capsys, monkeypatch):
    monkeypatch.delenv("DARY_SEED", raising=False)
    _, _, err = run_cli(["grow", "--d", "2", "--n", "1"], capsys)
    assert re.search(r"effective seed: \d+", err)


def test_non_numeric_env_seed_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("DARY_SEED", "banana")
    code, out, err = run_cli(["grow", "--d", "2", "--n", "2"], capsys)
    assert code == 2
    assert out == ""
    assert "DARY_SEED" in err and "banana" in err


def test_kernel_flag_chooses_python(capsys):
    _, out_py, _ = run_cli(
        ["grow", "--d", "3", "--n", "40", "--seed", "4", "--kernel", "python"], capsys
    )
    _, out_any, _ = run_cli(["grow", "--d", "3", "--n", "40", "--seed", "4"], capsys)
    assert out_py == out_any


@pytest.mark.parametrize("kernel", ["python", "c"])
@pytest.mark.parametrize(
    "d,n", [("2", "1000000000000"), ("100000", "3")], ids=["node-ids", "child-slots"]
)
def test_python_kernel_size_guard_exit(kernel, d, n, capsys, deadline):
    # refused at once on both kernels instead of growing until memory runs
    # out: 2*10^12 + 1 node ids, or 3*10^10 child slots for 3*10^5 nodes
    if kernel == "c":
        pytest.importorskip(
            "darygrow._growth_c", reason="compiled kernel not built", exc_type=ImportError
        )
    argv = ["grow", "--d", d, "--n", n, "--seed", "0", "--kernel", kernel]
    with deadline(2):
        code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert "size guard" in err


def test_emit_every_size_guard_up_front(capsys, deadline):
    # refused before the first tree, not after printing every tree on the
    # way to the node-id limit
    argv = ["grow", "--d", "2", "--n", str(10**12), "--seed", "0", "--emit-every", "1"]
    with deadline(2):
        code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert "size guard" in err


def run_limited(argv):
    """One CLI run in a fresh interpreter under a 1 GiB address-space limit."""
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from darygrow.cli import main\n"
        f"sys.exit(main({argv!r}))\n"
    )
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )


def assert_one_line_error(out, prefix):
    """Exit 1, no output, and one error line after the seed line."""
    assert out.returncode == 1, out.stderr
    assert out.stdout == ""
    lines = out.stderr.splitlines()
    assert lines[0] == "effective seed: 0"
    assert len(lines) == 2 and lines[1].startswith(prefix)


@pytest.mark.parametrize("kernel", ["c", "python"])
def test_allocation_failure_is_one_line_error(kernel):
    # a d = 10^9 kernel allocates nothing per unit of d, so its first step
    # reaches the size guard
    argv = ["grow", "--d", "1000000000", "--n", "1", "--seed", "0", "--kernel", kernel]
    assert_one_line_error(run_limited(argv), "size guard: ")


def test_out_of_memory_is_one_line_error():
    # 6*10^8 nodes fit the size guard but not a 1 GiB address space
    argv = ["grow", "--d", "2", "--n", "300000000", "--seed", "0", "--kernel", "c"]
    assert_one_line_error(run_limited(argv), "out of memory: ")


@pytest.mark.parametrize("fmt", ["code", "paren", "dot", "json"])
def test_huge_arity_single_node_tree(fmt):
    # neither kernel allocates per unit of d before its first step, so the
    # single-node tree of a d = 10^9 kernel prints alike on both
    outs = []
    for kernel in ("c", "python"):
        argv = ["grow", "--d", "1000000000", "--n", "0", "--seed", "0",
                "--format", fmt, "--kernel", kernel]
        out = run_limited(argv)
        assert out.returncode == 0, out.stderr
        outs.append(out.stdout)
    assert outs[0] == outs[1] != ""


@pytest.mark.parametrize("kernel,n", [("c", 100), ("python", 10)])
def test_large_arity_arena_is_one_row_per_internal_node(kernel, n):
    # only internal nodes have child rows: a row for every node would take
    # about 400 MB here (c, n = 100) and 100 MB (python, n = 10).  The run
    # starts straight from this process, which holds 96 MB, so the figure
    # must be the program's own peak, not its launcher's.
    argv = [sys.executable, "-m", "darygrow.cli", "grow", "--d", "1000",
            "--n", str(n), "--seed", "0", "--counters", "--kernel", kernel]
    ballast = b"\1" * (96 << 20)
    out = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    del ballast
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stderr.splitlines()[-1])["peak_rss_mb"] < 64


def grow_peak_mb(d, n):
    """``peak_rss_mb`` of one compiled-kernel ``grow --counters`` run in a
    fresh interpreter, its stdout discarded."""
    argv = [sys.executable, "-m", "darygrow.cli", "grow", "--d", str(d), "--n", str(n),
            "--seed", "0", "--counters", "--kernel", "c"]
    out = subprocess.run(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stderr.splitlines()[-1])["peak_rss_mb"]


def test_compiled_arena_is_one_link_and_one_child_entry_per_node():
    # 2*10^6 + 1 nodes at 8 bytes each, allocated by doubling, plus the code
    # text: about 20 MB over the empty run.  An arena that stores a parent
    # and a slot per node reads about 28 MB.
    pytest.importorskip("darygrow._growth_c", reason="compiled kernel not built",
                        exc_type=ImportError)
    assert grow_peak_mb(2, 1_000_000) - grow_peak_mb(2, 0) < 24


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["grow", "--d", "1", "--n", "5"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["grow", "--d", "2", "--n", "-3"])
    assert exc.value.code == 2


def test_json_format(capsys):
    _, out, _ = run_cli(
        ["grow", "--d", "4", "--n", "7", "--seed", "2", "--format", "json"], capsys
    )
    obj = json.loads(out)
    assert obj["d"] == 4 and obj["n"] == 7
    assert len(obj["code"].split()) == 4 * 7 + 1


@st.composite
def grow_argv(draw):
    # mostly valid sizes, plus arities and sizes that argparse (exit 2) or
    # the size guard (exit 1) must refuse
    d = draw(st.integers(0, 1000))
    # d * (d*n + 1), the size guard's count, also bounds the rank draws and
    # edge sorts of n steps at arity d: keep it to a few million
    small = st.integers(-1, min(40, 3_000_000 // max(d * d, 1)))
    n = draw(st.one_of(small, st.integers(10**10, 10**13)))
    argv = ["grow", "--d", str(d), "--n", str(n)]
    argv += ["--seed", str(draw(st.integers(-(2**70), 2**70)))]
    argv += ["--format", draw(st.sampled_from(["code", "paren", "dot", "json"]))]
    if draw(st.booleans()):
        argv += ["--emit-every", str(draw(st.integers(-1, 42)))]
    if draw(st.booleans()):
        argv.append("--counters")
    return argv


@given(argv=grow_argv())
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_grow_fuzz(argv, capsys, deadline):
    pytest.importorskip(
        "darygrow._growth_c", reason="compiled kernel not built", exc_type=ImportError
    )
    # an uncaught exception fails the test as a traceback would
    outs = []
    for kernel in ("python", "c"):
        with deadline(10):
            code, out, err = run_cli(argv + ["--kernel", kernel], capsys)
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        outs.append(out)
    assert outs[0] == outs[1]


# ----------------------------------------------------------------------
# every command: sizes the guards refuse, sizes that run in well under a
# second, and malformed input files, each ends in exit 0, 1 or 2

BIG = 10**12
# one chain per uniform sample: about 0.5 us on the compiled kernel, 50 us
# on the Python one
SAMPLES = 10**5 if kernel_name() == "c" else 10**4
# trace and export inputs: malformed, deeply nested, non-ASCII, a few MB,
# and a few valid ones
FILES = [
    b"[" * 100_000,
    b'{"d": ' * 50_000,
    '{"d": 2, "code": "2 0 0", "marks": [{"bud": 0}], "n\u00e9": 1}'.encode(),
    "2 0 0 \u00e9".encode(),
    b"2 " * 1_500_000,
    b"[" + b"0," * 1_500_000 + b"0]",
    json.dumps({"d": 2, "code": "2 " * 1_000_000, "marks": []}).encode(),
    json.dumps({"d": 3, "code": "0", "marks": [{"bud": 0}, {"bud": 1}]}).encode(),
    *(json.dumps(edge_marked_to_obj(x)).encode() for x in oracle.enumerate_marked_trees(2, 2)),
    b"0",
    b"3 0 2 0 0 0 0",
]


def sizes(admitted, *refused):
    """Integer tuples: ``admitted`` runs at once, each of ``refused`` is
    past a guard."""
    def box(ranges, runs):
        return st.tuples(*(st.integers(lo, hi) for lo, hi in ranges)).map(lambda t: (runs, t))

    return st.one_of(box(admitted, True), *(box(r, False) for r in refused))


@st.composite
def any_argv(draw):
    command = draw(
        st.sampled_from(
            ["grow", "bijection", "rotation", "variants", "counts", "uniform", "trace", "export"]
        )
    )
    if command in ("trace", "export"):
        argv = [command, "--input", "INPUT"]
        if command == "trace":
            argv += ["--letter", str(draw(st.one_of(st.integers(1, 3), st.integers(-3, BIG))))]
        if draw(st.booleans()):
            argv += ["--d", str(draw(st.integers(-1, BIG)))]
        return argv, draw(st.one_of(st.sampled_from(FILES), st.binary(max_size=64)))
    if command == "grow":
        # d (d n + 1) past int32 is refused: n >= 2^29, or d >= 46341
        admitted, (d, n) = draw(
            sizes([(-1, 6), (-1, 10**4)], [(2, BIG), (2**29, BIG)], [(46_341, BIG), (1, BIG)])
        )
        argv = ["grow", "--d", str(d), "--n", str(n)]
        argv += ["--format", draw(st.sampled_from(["code", "paren", "dot", "json"]))]
    elif command == "bijection":
        # past the budget: n >= 12 at every d, or more than 10^7 letters
        admitted, (d, n) = draw(
            sizes([(-1, 3), (-1, 3)], [(2, BIG), (12, BIG)], [(10**7 + 1, BIG), (0, BIG)])
        )
        argv = ["verify", "bijection", "--d", str(d), "--max-n", str(n)]
    elif command == "rotation":
        # past the budget: m >= 24 at every cap, or more than 10^7 increments
        admitted, (m, inc) = draw(
            sizes([(-1, 6), (-1, 3)], [(24, BIG), (0, BIG)], [(1, BIG), (10**7, BIG)])
        )
        argv = ["verify", "rotation", "--m", str(m), "--max-inc", str(inc)]
    elif command == "variants":
        # past the budget from n = 12 on
        admitted, (n,) = draw(sizes([(-1, 5)], [(12, BIG)]))
        argv = ["verify", "variants", "--max-n", str(n)]
    elif command == "counts":
        # n >= 16: more codes than the budget, so the count is not enumerated
        admitted, (d, n) = draw(sizes([(-1, 4), (-1, 6)], [(2, BIG), (16, BIG)]))
        argv = ["verify", "counts", "--d", str(d), "--n", str(n)]
    else:
        # from n = 5 on, at most 10 samples are too few for the classes
        admitted, (d, n, samples) = draw(
            sizes(
                [(-1, 3), (-1, 4), (-1, SAMPLES)],
                [(2, BIG), (16, BIG), (0, BIG)],
                [(2, BIG), (5, 15), (0, 10)],
            )
        )
        argv = ["uniform", "--d", str(d), "--n", str(n), "--samples", str(samples)]
        argv += ["--seed", str(draw(st.integers(-(2**70), 2**70)))]
        if draw(st.booleans()):
            argv += ["--alpha", repr(draw(st.floats()))]
    if admitted and argv[0] == "verify" and draw(st.booleans()):
        argv.append("--force")
    return argv, None


@given(case=any_argv())
@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
def test_every_command_fuzz(case, tmp_path, capsys, deadline):
    argv, content = case
    if content is not None:
        path = tmp_path / "input"
        path.write_bytes(content)
        argv = [str(path) if a == "INPUT" else a for a in argv]
    with deadline(3):
        code, _, err = run_cli(argv, capsys)
    assert code in (0, 1, 2)
    assert "Traceback" not in err


# ----------------------------------------------------------------------
# paren format: parse it back and compare against the code format


def parse_paren(d, text):
    code = []
    for ch in text.strip():
        if ch == "(":
            code.append(d)
        elif ch == "o":
            code.append(0)
        elif ch != ")":
            raise ValueError(f"unexpected {ch!r}")
    return code


def test_paren_round_trip(capsys):
    for d, n, seed in [(2, 20, 1), (3, 15, 2), (5, 10, 3)]:
        args = ["grow", "--d", str(d), "--n", str(n), "--seed", str(seed)]
        _, code_out, _ = run_cli(args + ["--format", "code"], capsys)
        _, paren_out, _ = run_cli(args + ["--format", "paren"], capsys)
        want = [int(tok) for tok in code_out.split()]
        assert parse_paren(d, paren_out) == want
        # balanced parentheses, d children per internal node
        assert paren_out.count("(") == paren_out.count(")") == n


# ----------------------------------------------------------------------
# DOT format


DOT_NODE = re.compile(r'^  "([e1-9][0-9.]*)"( \[shape=point\])?;$')
DOT_EDGE = re.compile(r'^  "([e1-9][0-9.]*)" -> "([1-9][0-9.]*)";$')


def check_dot(text):
    """Minimal DOT grammar check; returns (node lines, edge lines)."""
    lines = text.strip().splitlines()
    assert lines[0] == "digraph tree {"
    assert lines[-1] == "}"
    nodes, edges = [], []
    for line in lines[1:-1]:
        m = DOT_NODE.match(line)
        if m:
            nodes.append(m)
            continue
        m = DOT_EDGE.match(line)
        assert m, f"unparseable DOT line: {line!r}"
        edges.append(m)
    return nodes, edges


def test_dot_output(capsys):
    _, out, _ = run_cli(
        ["grow", "--d", "2", "--n", "6", "--seed", "11", "--format", "dot"], capsys
    )
    nodes, edges = check_dot(out)
    assert len(nodes) == 2 * 6 + 1
    assert len(edges) == 2 * 6
    # exactly the leaves are point-shaped
    assert sum(1 for m in nodes if m.group(2)) == 6 + 1


def test_dot_output_pinned(capsys):
    # byte-identical to the output before the word walk moved to tree.py
    _, out, _ = run_cli(
        ["grow", "--d", "3", "--n", "300", "--seed", "9", "--format", "dot"], capsys
    )
    digest = hashlib.sha256(out.encode("ascii")).hexdigest()
    assert digest == "780b2ca817e02937b560294e5b9aab9a7b261315da13c288d94d3e861ba2e66a"


@pytest.mark.parametrize(
    "d,n,expected",
    [
        (2, 2000, "88f476d6df3a9275c48dc14377127f34dff88c4276f2787184c1bd572be48639"),
        # letters 10..12 switch whole names to the dotted form
        (12, 300, "80bd9c82a145c83fc15436dba8c5107fdc4b7ac720408c025cc4bc6762579047"),
    ],
)
def test_dot_names_pinned(d, n, expected, capsys):
    # byte-identical to the output of naming every node with format_word
    _, out, _ = run_cli(
        ["grow", "--d", str(d), "--n", str(n), "--seed", "9", "--format", "dot"], capsys
    )
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == expected


@pytest.mark.parametrize("kernel", ["python", "c"])
@pytest.mark.parametrize(
    "d,n,fmt,expected",
    [
        (3, 1000, "code", "7a606da4890920a1ed60c80c256adb137e5c95fe8839759c173ed1d7e1fa15aa"),
        # a two-digit symbol
        (12, 200, "json", "8facce48426857e8503350e6a15cbe2c2131bb7f9bf3c57ffc088acc2fcb2b6b"),
    ],
)
def test_code_text_pinned(d, n, fmt, expected, kernel, capsys):
    # byte-identical to the output of joining the decimal symbols
    argv = ["grow", "--d", str(d), "--n", str(n), "--seed", "42", "--format", fmt]
    _, out, _ = run_cli([*argv, "--kernel", kernel], capsys)
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == expected


def test_export_basics(tmp_path, capsys):
    f = tmp_path / "code.txt"
    f.write_text("0\n")
    code, out, _ = run_cli(["export", "--input", str(f)], capsys)
    assert code == 0
    nodes, edges = check_dot(out)
    assert len(nodes) == 1 and not edges

    f.write_text("2 0 0\n")
    _, out, _ = run_cli(["export", "--input", str(f)], capsys)
    assert '"e" -> "1";' in out and '"e" -> "2";' in out


def test_export_rejects_malformed(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    f.write_text("2 0\n")
    code, _, err = run_cli(["export", "--input", str(f)], capsys)
    assert code == 2
    assert err


# ----------------------------------------------------------------------
# verify


def test_verify_bijection(capsys):
    code, out, _ = run_cli(["verify", "bijection", "--d", "3", "--max-n", "2"], capsys)
    assert code == 0
    reports = [json.loads(line) for line in out.splitlines()]
    assert all(r["pass"] for r in reports)
    assert reports[-1]["inputs"] == 252


def test_verify_rotation(capsys):
    code, out, _ = run_cli(["verify", "rotation", "--m", "6", "--max-inc", "3"], capsys)
    assert code == 0
    assert all(json.loads(line)["pass"] for line in out.splitlines())


@pytest.mark.parametrize(
    "argv,digest",
    [
        (
            ["verify", "rotation", "--m", "7", "--max-inc", "3"],
            "380ed50d67fd889d5ff91f794b92e05fd9be8a771af2df2ee0cf76996c9511b9",
        ),
        (
            ["verify", "variants", "--max-n", "5"],
            "b080cd6d74c198defd80da84186da24215666a02c1e241615895e4a0ddbcf5a0",
        ),
        (
            ["verify", "bijection", "--d", "3", "--max-n", "3"],
            "428a03934ea5b995a994807c0d38f1437a17a58740717a2142e8c5185c320f34",
        ),
    ],
    ids=["rotation", "variants", "bijection"],
)
def test_verify_stdout_pinned(argv, digest, capsys):
    # one report line per size, in order, byte for byte
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest


def test_rotation_size_guard():
    # 5^40 increment tuples: refused before any walk is enumerated
    out = subprocess.run(
        [sys.executable, "-m", "darygrow.cli", "verify", "rotation", "--m", "40"],
        capture_output=True,
        text=True,
        timeout=2,
    )
    assert out.returncode == 1
    assert out.stdout == ""
    assert out.stderr.startswith("size guard")


@pytest.mark.parametrize(
    "argv",
    [
        ["uniform", "--d", "2", "--n", "10000", "--samples", "1000", "--seed", "0"],
        ["verify", "rotation", "--m", "1000000", "--max-inc", "3"],
        ["verify", "rotation", "--m", "100000000", "--max-inc", "3"],
        ["uniform", "--d", "2", "--n", "1000000", "--samples", "1", "--seed", "0"],
        ["verify", "bijection", "--d", "2", "--max-n", "1000000000000"],
        ["verify", "variants", "--max-n", "12"],
        ["verify", "counts", "--d", str(10**400), "--n", "1"],
    ],
    ids=[
        "uniform-classes",
        "rotation-10^6",
        "rotation-10^8",
        "uniform-10^6",
        "bijection-10^12",
        "variants-12",
        "counts-d-10^400",
    ],
)
def test_guard_count_too_long_to_write_is_one_line(argv, capsys, deadline):
    # the counts pass 4,300 digits, which str() refuses to write, and the
    # rotation guard's power would take seconds to build, or run on.  A
    # count a decade past the budget is refused from its logarithm, unbuilt,
    # and a verify command refuses its largest size before any output
    with deadline(1):
        code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == "" and "Traceback" not in err
    lines = [line for line in err.splitlines() if not line.startswith("effective seed")]
    assert len(lines) == 1 and lines[0].startswith("size guard: ")


@pytest.mark.parametrize(
    "argv,hint",
    [
        (["verify", "rotation", "--m", "30"], "; pass --force to override"),
        (["verify", "bijection", "--d", "3", "--max-n", "9"], "; pass --force to override"),
        (["verify", "variants", "--max-n", "20"], "; pass --force to override"),
        (["uniform", "--d", "3", "--n", "20", "--samples", "10", "--seed", "0"], " budget"),
    ],
    ids=["rotation", "bijection", "variants", "uniform"],
)
def test_refusal_names_the_command_line_override(argv, hint, capsys):
    # the library's hint is force=True; verify's flag is --force, and
    # uniform has no override at all
    code, _, err = run_cli(argv, capsys)
    assert code == 1
    assert err.splitlines()[-1].endswith(hint)
    assert "force=True" not in err


@pytest.mark.parametrize("args", [["--m", "0"], ["--m", "-2"], ["--m", "4", "--max-inc", "-3"]])
def test_empty_rotation_check_is_usage_error(args, capsys):
    # these certified nothing and used to report a pass
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "rotation", *args])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_verify_variants(capsys):
    code, out, _ = run_cli(["verify", "variants", "--max-n", "3"], capsys)
    assert code == 0
    last = json.loads(out.splitlines()[-1])
    assert last["witness"] is not None


def test_verify_counts_exact_decimal(capsys):
    code, out, _ = run_cli(["verify", "counts", "--d", "3", "--n", "2"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["count"] == "3"
    assert report["enumerated"] == 3
    # big cells print as exact decimal strings, never floats
    code, out, _ = run_cli(["verify", "counts", "--d", "2", "--n", "100"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["count"] == str(oracle.count_trees(2, 100))
    assert report["enumerated"] is None


def test_verify_counts_at_large_arity(capsys):
    # one size-1 tree; listing it must not recurse d deep
    code, out, err = run_cli(["verify", "counts", "--d", "1000", "--n", "1"], capsys)
    assert code == 0, err
    assert "Traceback" not in err
    report = json.loads(out)
    assert report["pass"] is True and report["enumerated"] == 1


def test_verify_counts_streams_in_bounded_memory():
    # 1,430,715 trees, counted one code at a time under a 256 MiB address
    # space; a list of every tree takes about 600 MB
    argv = ["verify", "counts", "--d", "3", "--n", "10"]
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 28, 1 << 28))\n"
        "from darygrow.cli import main\n"
        f"sys.exit(main({argv!r}))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout)
    assert report["enumerated"] == 1430715 and report["pass"] is True


def test_verify_counts_too_long_to_print_is_size_guard(capsys):
    # the count has about 60,000 digits, past what Python turns into text
    code, out, err = run_cli(["verify", "counts", "--d", "2", "--n", "100000"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("size guard") and len(err.splitlines()) == 1


# ----------------------------------------------------------------------
# uniform


def test_uniform_passes(capsys):
    code, out, err = run_cli(
        ["uniform", "--d", "3", "--n", "3", "--samples", "3000", "--seed", "5"], capsys
    )
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["classes"] == 12
    assert "effective seed: 5" in err


def test_uniform_single_class(capsys):
    code, out, _ = run_cli(
        ["uniform", "--d", "3", "--n", "1", "--samples", "100", "--seed", "1"], capsys
    )
    assert code == 0
    assert json.loads(out)["statistic"] == 0.0


@pytest.mark.parametrize("kernel", ["python", "c"])
def test_uniform_wide_arity(kernel, capsys):
    # histogram keys hold one byte per node whatever d is
    if kernel == "c":
        pytest.importorskip(
            "darygrow._growth_c", reason="compiled kernel not built", exc_type=ImportError
        )
    argv = ["uniform", "--d", "256", "--n", "1", "--samples", "10", "--seed", "1"]
    code, out, err = run_cli(argv + ["--kernel", kernel], capsys)
    assert code == 0, err
    assert json.loads(out)["pass"] is True


@pytest.mark.parametrize("alpha", ["nan", "0", "5", "-1", "1"])
def test_uniform_alpha_outside_unit_interval_is_usage_error(alpha, capsys):
    argv = ["uniform", "--d", "2", "--n", "2", "--samples", "100", "--seed", "1"]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--alpha", alpha])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_uniform_underpowered_exits_2(capsys):
    code, _, err = run_cli(
        ["uniform", "--d", "3", "--n", "4", "--samples", "99", "--seed", "1"], capsys
    )
    assert code == 2
    assert "underpowered" in err


class RiggedKernel(_growth_py.GrowthKernel):
    """Ignores its random draws: every step marks the first ranks, letter 1."""

    def _step(self):
        d = self.d
        universe = d * self.n + d - 1
        ranks = []
        while len(ranks) < d - 1:
            r = self.uniform_below(universe)
            if r not in ranks:
                ranks.append(r)
        self.uniform_below(d)
        self.step_with(list(range(d - 1)), 1)


def test_uniform_catches_rigged_sampler(capsys, monkeypatch):
    monkeypatch.setattr(
        oracle, "make_kernel", lambda d, seed, kernel=None: RiggedKernel(d, seed)
    )
    code, out, _ = run_cli(
        ["uniform", "--d", "3", "--n", "3", "--samples", "3000", "--seed", "5"], capsys
    )
    assert code == 1
    assert json.loads(out)["p_value"] < 0.001


# ----------------------------------------------------------------------
# trace


def write_marked(tmp_path, obj):
    f = tmp_path / "marked.json"
    f.write_text(json.dumps(obj))
    return str(f)


def test_trace_seed_input(tmp_path, capsys):
    path = write_marked(
        tmp_path, {"d": 3, "code": "0", "marks": [{"bud": 0}, {"bud": 1}]}
    )
    code, out, _ = run_cli(["trace", "--input", path, "--letter", "3"], capsys)
    assert code == 0
    frames = json.loads(out)
    assert [f["map"] for f in frames] == ["cut", "rotate", "add_root"]
    final = frames[-1]["tree"]
    assert final == {"d": 3, "code": "3 0 0 0", "leaves": ["1", "2"]}


def test_trace_reduce_round_trip(tmp_path, capsys):
    obj = {"d": 2, "code": "2 0 2 0 0", "marks": [{"edge": "21"}]}
    path = write_marked(tmp_path, obj)
    code, out, _ = run_cli(["trace", "--input", path, "--letter", "2"], capsys)
    assert code == 0
    frames = json.loads(out)
    back, back_a = reduce_map(leaf_marked_from_obj(frames[-1]["tree"]))
    assert back_a == 2
    assert edge_marked_to_obj(back) == obj


def test_trace_excursion_sequence_shape(tmp_path, capsys):
    # forest with mark counts (2,0,1,1,0) packed back into a marked tree;
    # its cut frame must show the walk 0,1,0,0,0,-1
    from darygrow.bijections import cut_inv
    from darygrow.marks import LeafMarkedTree, MarkedForest

    def leafy(code_text, leaves):
        t = DaryTree.from_code_text(5, code_text)
        return LeafMarkedTree.from_words(t, leaves)

    root_marked = DaryTree(5)
    f = MarkedForest(
        (
            leafy("5 5 0 0 0 0 0 0 0 0 0", [(1, 1), (3,)]),
            leafy("5 0 0 0 0 0", []),
            leafy("5 0 0 0 0 5 0 0 0 0 0", [(2,)]),
            LeafMarkedTree(root_marked, (root_marked.root,)),
            leafy("5 5 0 0 0 0 0 5 0 0 0 0 0 0 0 0", []),
        )
    )
    x, _ = cut_inv(f, 1)
    assert x.tree.internal_count == 8
    path = write_marked(tmp_path, edge_marked_to_obj(x))
    code, out, _ = run_cli(["trace", "--input", path, "--letter", "1"], capsys)
    assert code == 0
    frames = json.loads(out)
    assert frames[0]["leaf_sequence"] == "0,1,0,0,0,-1"


def test_trace_rejects_garbage(tmp_path, capsys):
    f = tmp_path / "junk.json"
    f.write_text("{not json")
    code, _, err = run_cli(["trace", "--input", str(f), "--letter", "1"], capsys)
    assert code == 2 and err

    path = write_marked(tmp_path, {"d": 2, "code": "2 0 0", "marks": []})
    code, _, err = run_cli(["trace", "--input", path, "--letter", "1"], capsys)
    assert code == 2  # wrong mark count surfaces as an input error


def test_trace_rejects_deep_nesting(tmp_path, capsys):
    # json.load recurses once per level: 100,000 levels raise RecursionError
    f = tmp_path / "deep.json"
    f.write_text("[" * 100_000)
    code, out, err = run_cli(["trace", "--input", str(f), "--letter", "1"], capsys)
    assert code == 2
    assert out == "" and err.startswith("cannot read marked tree: ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "text",
    [
        "[1,2]",
        "null",
        '{"d": 3, "code": 3}',
        '{"d": 2, "code": "0", "marks": "ab"}',
        '{"d": 2, "code": "2 0 0", "marks": [{"edge": 1}]}',
        '{"d": 2, "code": "2 0 0", "marks": [1, {"bud": 0}]}',
        '{"d": 2, "code": "0", "marks": [{"bud": null}]}',
        '{"d": 1e999, "code": "0"}',
    ],
    ids=["list", "null", "int-code", "str-marks", "int-edge", "int-mark",
         "null-bud", "inf-d"],
)
def test_trace_rejects_wrong_shapes(tmp_path, capsys, text):
    # JSON of the wrong shape is an input error, not a traceback
    f = tmp_path / "shape.json"
    f.write_text(text)
    code, out, err = run_cli(["trace", "--input", str(f), "--letter", "1"], capsys)
    assert code == 2
    assert out == "" and "cannot read marked tree" in err


@pytest.mark.parametrize(
    "args,text,message",
    [
        (["export"], "1000000000 0", "invalid code: "),
        (
            ["trace", "--letter", "1"],
            '{"d":1000000000,"code":"1000000000 0","marks":[]}',
            "cannot read marked tree: ",
        ),
    ],
    ids=["export", "trace"],
)
def test_huge_arity_input_is_refused_in_bounded_memory(tmp_path, args, text, message):
    # checking a code must not allocate per unit of d; under a 1 GiB
    # address-space limit a d = 10^9 input is an input error, not a MemoryError
    path = tmp_path / "input"
    path.write_text(text)
    out = run_limited([*args, "--input", str(path)])
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith(message)
    assert out.stdout == ""


def test_trace_d_mismatch(tmp_path, capsys):
    path = write_marked(tmp_path, {"d": 2, "code": "2 0 0", "marks": [{"bud": 0}]})
    code, _, err = run_cli(
        ["trace", "--d", "3", "--input", path, "--letter", "1"], capsys
    )
    assert code == 2 and "does not match" in err


# ----------------------------------------------------------------------
# cross-process determinism


def run_fresh(args, env_extra=None):
    env = dict(os.environ)
    env.pop("DARY_SEED", None)
    env.update(env_extra or {})
    out = subprocess.run(
        [sys.executable, "-m", "darygrow.cli", *args],
        capture_output=True,
        env=env,
    )
    assert out.returncode == 0, out.stderr.decode()
    return out.stdout


def test_byte_identity_across_processes_and_kernels():
    args = ["grow", "--d", "2", "--n", "1000", "--seed", "5", "--format", "code"]
    first = run_fresh(args)
    second = run_fresh(args)
    pure = run_fresh(args, {"DARYGROW_PURE_PYTHON": "1"})
    assert first == second == pure


def test_uniform_report_independent_of_hash_seed():
    # the chi-square statistic sums over a set of shape keys, whose order
    # follows the string hash; the report must not
    args = ["uniform", "--d", "3", "--n", "3", "--samples", "2000", "--seed", "5"]
    outs = [run_fresh(args, {"PYTHONHASHSEED": str(h)}) for h in (0, 2)]
    assert outs[0] == outs[1]
