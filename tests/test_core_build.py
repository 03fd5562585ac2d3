"""The C growth core compiles cleanly with the compiler that builds it."""

import os
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
