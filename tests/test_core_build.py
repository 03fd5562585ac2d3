"""The C growth core compiles cleanly with the compiler that builds it,
runs clean under AddressSanitizer and UndefinedBehaviorSanitizer, and its
ctypes wrapper declares exactly the functions it exports."""

import ast
import os
import re
import shlex
import shutil
import subprocess
import sys
import sysconfig

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
# (3, 20000) makes the lex phase regrow its path buffer
for d, n in ((2, 3000), (3, 20000), (5, 2000), (200, 20)):
    py, c = make_kernel(d, n, kernel="python"), make_kernel(d, n, kernel="c")
    for k in (py, c):
        k.steps(n)
        k.step_with(range(d - 1), 1)
    assert py.preorder_code() == c.preorder_code()
    assert py.counters == c.counters
    assert py.code_text() == c.code_text()
    assert py.paren_text() == c.paren_text()
    assert py.height() == c.height()
    assert [py.edge_word(r) for r in range(0, d * n, 7)] == [
        c.edge_word(r) for r in range(0, d * n, 7)
    ]
    assert py.histogram(4, 50) == c.histogram(4, 50)
print("agree")
"""


def compiler():
    """The command `_growth_c.compile_library` runs, or a skip."""
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    if shutil.which(cc[0]) is None:
        pytest.skip(f"no C compiler: {cc[0]!r} is not on PATH")
    return cc


def test_core_is_warning_free():
    cc = compiler()
    out = subprocess.run(
        [*cc, "-Wall", "-Wextra", "-Werror", "-fsyntax-only", SOURCE],
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
    copy = tmp_path / "darygrow"
    copy.mkdir()
    for name in os.listdir(PACKAGE):
        if name.endswith(".py") or name == "_growth_core.c":
            shutil.copy(os.path.join(PACKAGE, name), copy)
    library = str(copy / _growth_c.library_name())
    flags = ["-O1", "-g", "-fsanitize=address,undefined", "-fno-sanitize-recover=all"]
    built = subprocess.run(
        [*cc, "-shared", "-fPIC", *flags, str(copy / "_growth_core.c"), "-o", library],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert built.returncode == 0, built.stderr
    (tmp_path / "cache").mkdir()
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
