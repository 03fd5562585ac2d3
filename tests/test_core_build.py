"""The C growth core compiles cleanly with the compiler that builds it,
runs clean under AddressSanitizer and UndefinedBehaviorSanitizer, and its
ctypes wrapper declares exactly the functions it exports; the first import
compiles it once, into the cache, and later imports load it from there;
where the core cannot be had, the package runs on the Python kernel and a
forced compiled kernel is refused with one error."""

import ast
import os
import re
import shlex
import shutil
import subprocess
import sys
import sysconfig
import time

import pytest

import darygrow

PACKAGE = os.path.dirname(darygrow.__file__)
SOURCE = os.path.join(PACKAGE, "_growth_core.c")

# both kernels grown side by side; every C entry point's result must match
AGREEMENT = """
import sys
from darygrow import _growth_c
from darygrow.sampler import make_kernel

assert _growth_c._lib._name == sys.argv[1], _growth_c._lib._name
# (3, 20000) walks paths of several hundred nodes by jumps; (2, 40000) is
# the biggest random tree
for d, n in ((2, 3000), (3, 20000), (5, 2000), (12, 400), (200, 20), (2, 40000)):
    py, c = make_kernel(d, n, kernel="python"), make_kernel(d, n, kernel="c")
    for k in (py, c):
        k.steps(n)
        k.step_with(range(d - 1), 1)
    # the deepest edges on one root path: nested cut subtrees
    words = [c.edge_word(r) for r in range(c.root)]
    deep = max(words, key=len)
    path = sorted((r for r, w in enumerate(words) if deep[: len(w)] == w), key=lambda r: len(words[r]))
    ranks = path[-(d - 1) :]
    ranks += range(c.root, c.root + d - 1 - len(ranks))
    for k in (py, c):
        k.step_with(ranks, d)
    # the jumps the steps keep equal a recompute after every step
    assert _growth_c._lib.dg_check_jumps(c._k) == -1
    for _ in range(50):
        for k in (py, c):
            k.steps(1)
        assert _growth_c._lib.dg_check_jumps(c._k) == -1
    assert py.preorder_code() == c.preorder_code()
    assert py.counters == c.counters
    assert py.code_text() == c.code_text()
    assert py.paren_text() == c.paren_text()
    assert py.height() == c.height()
    assert [py.edge_word(r) for r in range(0, d * n, 7)] == [
        c.edge_word(r) for r in range(0, d * n, 7)
    ]
    assert py.histogram(6, 50) == c.histogram(6, 50)
# combs of about 65k nodes, grown by marking only buds: a left comb's
# internal nodes come first in preorder, so its walk holds every leaf and
# a marker per level pending at once and fills the stack to its last
# entry; a right comb's holds a marker per level
for d in (2, 12):
    for letter in (d - 1, d):
        py, c = make_kernel(d, 0, kernel="python"), make_kernel(d, 0, kernel="c")
        for k in (py, c):
            for _ in range(65536 // d):
                k.step_with(range(k.root, k.root + d - 1), letter)
        assert py.preorder_code() == c.preorder_code()
        assert py.counters == c.counters
        assert py.code_text() == c.code_text()
        assert py.paren_text() == c.paren_text()
        assert py.height() == c.height() == 65536 // d
# the histogram's shape table and store grow past their first 16 shapes:
# d = 2, n = 9 has 4,862 classes, and d = 3, n = 200 gives 20 long keys
for d, n, chains in ((2, 9, 600), (3, 200, 20)):
    py, c = make_kernel(d, 1, kernel="python"), make_kernel(d, 1, kernel="c")
    expected, got = py.histogram(n, chains), c.histogram(n, chains)
    assert got == expected and list(got) == list(expected)
    assert py.counters == c.counters
    assert py.preorder_code() == c.preorder_code()
print("agree")
"""

# run on a package copy with no C core to be had
MISSING_CORE = """
from darygrow.errors import DarygrowError
from darygrow.sampler import kernel_name, make_kernel

assert kernel_name() == "python"
try:
    make_kernel(2, 0, kernel="c")
except ImportError as exc:
    assert isinstance(exc, DarygrowError)
    print("refused")
"""


# run on a package copy whose every compile fails
RETRY = """
from darygrow.sampler import kernel_name, make_kernel

assert kernel_name() == "python"
for _ in range(3):
    try:
        make_kernel(2, 0, kernel="c")
    except ImportError:
        continue
    raise AssertionError("a compiled kernel with no library")
print("refused")
"""


def compiler():
    """The command `_growth_c.compile_library` runs, or a skip."""
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    if shutil.which(cc[0]) is None:
        pytest.skip(f"no C compiler: {cc[0]!r} is not on PATH")
    return cc


def package_copy(tmp_path):
    """The package's Python and C sources, and no library, in tmp_path."""
    copy = tmp_path / "darygrow"
    copy.mkdir()
    for name in os.listdir(PACKAGE):
        if name.endswith(".py") or name == "_growth_core.c":
            shutil.copy(os.path.join(PACKAGE, name), copy)
    return copy


def kernel_in(env):
    """The kernel a fresh interpreter with this environment selects."""
    out = subprocess.run(
        [sys.executable, "-c", "import darygrow.sampler as s; print(s.kernel_name())"],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


def test_core_is_warning_free(tmp_path):
    # compiled at the build's -O3, not only parsed: some warnings, such as a
    # variable used uninitialized, come from the optimizer
    cc = compiler()
    out = subprocess.run(
        [*cc, "-Wall", "-Wextra", "-Werror", "-O3", "-c", SOURCE, "-o", str(tmp_path / "core.o")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr


def test_every_exported_function_has_a_signature():
    # the non-static dg_* functions the C core defines are exactly the ones
    # _growth_c declares to ctypes: read from both sources, so no compiler
    # is needed and a dead entry point or a stale signature fails here
    with open(SOURCE, encoding="ascii") as fh:
        defined = set(re.findall(r"^(?!static\b)\w[\w ]*?\**\b(dg_\w+)\(", fh.read(), re.M))
    wrapper = os.path.join(os.path.dirname(SOURCE), "_growth_c.py")
    with open(wrapper, encoding="utf-8") as fh:
        module = ast.parse(fh.read())
    (table,) = [
        node.value
        for node in module.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["_SIGNATURES"]
    ]
    declared = {key.value for key in table.keys}
    assert defined and defined == declared


def test_core_under_sanitizers(tmp_path):
    # a copy of the package whose C core is built with ASan and UBSan, so
    # any out-of-bounds access or undefined operation aborts the run
    cc = compiler()
    libasan = subprocess.run(
        [*cc, "-print-file-name=libasan.so"], capture_output=True, text=True
    ).stdout.strip()
    if not os.path.isabs(libasan):
        pytest.skip("the C compiler has no libasan")
    _growth_c = pytest.importorskip(
        "darygrow._growth_c", reason="compiled kernel not built", exc_type=ImportError
    )
    copy = package_copy(tmp_path)
    (tmp_path / "cache" / "darygrow").mkdir(parents=True)
    library = str(tmp_path / "cache" / "darygrow" / _growth_c.library_name())
    flags = ["-O1", "-g", "-fsanitize=address,undefined", "-fno-sanitize-recover=all"]
    built = subprocess.run(
        [*cc, "-shared", "-fPIC", *flags, str(copy / "_growth_core.c"), "-o", library],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert built.returncode == 0, built.stderr
    env = dict(
        os.environ,
        PYTHONPATH=str(tmp_path),
        LD_PRELOAD=libasan,
        ASAN_OPTIONS="detect_leaks=0",
        XDG_CACHE_HOME=str(tmp_path / "cache"),
    )
    out = subprocess.run(
        [sys.executable, "-c", AGREEMENT, library],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert out.returncode == 0, out.stderr[-4000:]
    assert out.stdout.split() == ["agree"]


def test_missing_core_is_one_error_line(tmp_path):
    # an empty cache and no compiler on PATH
    package_copy(tmp_path)
    for folder in ("cache", "bin"):
        (tmp_path / folder).mkdir()
    env = dict(
        os.environ,
        PYTHONPATH=str(tmp_path),
        XDG_CACHE_HOME=str(tmp_path / "cache"),
        PATH=str(tmp_path / "bin"),
    )
    env.pop("DARYGROW_PURE_PYTHON", None)

    def run(*argv):
        return subprocess.run(
            [sys.executable, *argv], env=env, capture_output=True, text=True, timeout=120
        )

    out = run("-c", MISSING_CORE)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["refused"]
    grow = ["grow", "--d", "2", "--n", "3", "--seed", "0"]
    out = run("-m", "darygrow.cli", *grow)
    assert out.returncode == 0, out.stderr
    assert len(out.stdout.split()) == 7
    uniform = ["uniform", "--d", "2", "--n", "3", "--samples", "100", "--seed", "0"]
    for argv in (grow, uniform):
        out = run("-m", "darygrow.cli", *argv, "--kernel", "c")
        assert out.returncode == 2, out.stderr
        assert out.stdout == ""
        errors = [line for line in out.stderr.splitlines() if line.startswith("error: ")]
        assert len(errors) == 1 and "Traceback" not in out.stderr, out.stderr


def test_first_import_compiles_once_into_the_cache(tmp_path):
    # a compiler on PATH that logs each run and then runs the real one: the
    # first import compiles one library into the cache, later imports load
    # it, and a file named like it beside the sources is never read
    cc = compiler()[0]
    if os.path.isabs(cc):
        pytest.skip(f"the C compiler {cc!r} is not looked up on PATH")
    _growth_c = pytest.importorskip(
        "darygrow._growth_c", reason="compiled kernel not built", exc_type=ImportError
    )
    copy = package_copy(tmp_path)
    sources = sorted(os.listdir(copy))
    for folder in ("cache", "bin"):
        (tmp_path / folder).mkdir()
    log = tmp_path / "runs.log"
    shim = tmp_path / "bin" / cc
    shim.write_text(f"#!/bin/sh\necho run >> '{log}'\nexec '{shutil.which(cc)}' \"$@\"\n")
    shim.chmod(0o755)
    env = dict(
        os.environ,
        PYTHONPATH=str(tmp_path),
        XDG_CACHE_HOME=str(tmp_path / "cache"),
        PATH=f"{tmp_path / 'bin'}{os.pathsep}{os.environ.get('PATH', '')}",
    )
    env.pop("DARYGROW_PURE_PYTHON", None)
    library = _growth_c.library_name()

    assert kernel_in(env) == "c"
    assert log.read_text().split() == ["run"]
    assert os.listdir(tmp_path / "cache") == ["darygrow"]
    assert os.listdir(tmp_path / "cache" / "darygrow") == [library]
    assert sorted(name for name in os.listdir(copy) if name != "__pycache__") == sources

    assert kernel_in(env) == "c"
    assert log.read_text().split() == ["run"]

    (copy / library).write_bytes(b"not a shared library")
    assert kernel_in(env) == "c"
    assert log.read_text().split() == ["run"]


def test_compile_removes_stale_libraries(tmp_path):
    # a library built from another source twice the stale age ago and a
    # compile's temporary file as old: the first import's compile removes
    # the library and keeps the temporary file, which has no _growth_core-
    # prefix; a library another source built recently survives a compile
    compiler()
    _growth_c = pytest.importorskip(
        "darygrow._growth_c", reason="compiled kernel not built", exc_type=ImportError
    )
    package_copy(tmp_path)
    folder = tmp_path / "cache" / "darygrow"
    folder.mkdir(parents=True)
    stale = folder / "_growth_core-0123456789abcdef.so"
    temp = folder / "tmp3k9x_q1a.so"
    old = time.time() - 2 * _growth_c.STALE_AGE
    for planted in (stale, temp):
        planted.write_bytes(b"not a shared library")
        os.utime(planted, (old, old))
    env = dict(os.environ, PYTHONPATH=str(tmp_path), XDG_CACHE_HOME=str(tmp_path / "cache"))
    env.pop("DARYGROW_PURE_PYTHON", None)
    library = _growth_c.library_name()

    assert kernel_in(env) == "c"
    assert sorted(os.listdir(folder)) == sorted([library, temp.name])

    recent = folder / "_growth_core-fedcba9876543210.so"
    recent.write_bytes(b"not a shared library")
    recently = time.time() - _growth_c.STALE_AGE / 2
    os.utime(recent, (recently, recently))
    (folder / library).unlink()
    assert kernel_in(env) == "c"
    assert sorted(os.listdir(folder)) == sorted([library, recent.name, temp.name])


def test_stale_library_already_gone_is_skipped(tmp_path):
    # a listed library whose file is gone by the time it is read (a dangling
    # link stands for one another process removed first) is passed over,
    # and the others are still removed
    _growth_c = pytest.importorskip(
        "darygrow._growth_c", reason="compiled kernel not built", exc_type=ImportError
    )
    (tmp_path / "_growth_core-00000000deadbeef.so").symlink_to(tmp_path / "gone")
    stale = tmp_path / "_growth_core-0123456789abcdef.so"
    stale.write_bytes(b"")
    os.utime(stale, (0, 0))
    _growth_c.remove_stale_libraries(str(tmp_path), "_growth_core-current.so")
    assert not stale.exists()


def test_failed_core_load_is_not_retried(tmp_path):
    # a compiler on PATH that logs each run and fails: importing the package
    # tries the C core once, and the three forced kernels after it reuse
    # that failure instead of compiling again
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")[0]
    if os.path.isabs(cc):
        pytest.skip(f"the C compiler {cc!r} is not looked up on PATH")
    package_copy(tmp_path)
    for folder in ("cache", "bin"):
        (tmp_path / folder).mkdir()
    log = tmp_path / "runs.log"
    fake = tmp_path / "bin" / cc
    fake.write_text(f"#!/bin/sh\necho run >> '{log}'\nexit 1\n")
    fake.chmod(0o755)
    env = dict(
        os.environ,
        PYTHONPATH=str(tmp_path),
        XDG_CACHE_HOME=str(tmp_path / "cache"),
        PATH=f"{tmp_path / 'bin'}{os.pathsep}{os.environ.get('PATH', '')}",
    )
    env.pop("DARYGROW_PURE_PYTHON", None)
    out = subprocess.run(
        [sys.executable, "-c", RETRY], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["refused"]
    assert log.read_text().split() == ["run"]
