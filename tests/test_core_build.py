"""The C growth core compiles cleanly with the compiler that builds it,
and its ctypes wrapper declares exactly the functions it exports."""

import ast
import os
import re
import shlex
import shutil
import subprocess
import sysconfig

import pytest

import darygrow

SOURCE = os.path.join(os.path.dirname(darygrow.__file__), "_growth_core.c")


def test_core_is_warning_free():
    # the same compiler `_growth_c.compile_library` runs
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    if shutil.which(cc[0]) is None:
        pytest.skip(f"no C compiler: {cc[0]!r} is not on PATH")
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
