"""Build script for the compiled growth core.

``setup.py build_ext`` (``--inplace`` too) compiles the plain-C core
``src/darygrow/_growth_core.c`` into ``darygrow/_growth_core-<digest>.so``,
the file name ``darygrow._growth_c`` looks for beside itself: the digest is
the first 16 hex digits of the source's sha256, so a build of another
source is never loaded.  The core includes no Python headers and is loaded
with ctypes.  The package works without it (the pure-Python kernel is the
fallback, and the package compiles the core itself on first import when a
C compiler is present), so a failed compile is tolerated rather than fatal.
"""

import hashlib
import os

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext
from setuptools.errors import CCompilerError, ExecError, PlatformError

SOURCE = "src/darygrow/_growth_core.c"


class BuildCore(build_ext):
    def get_ext_filename(self, ext_name):
        # called with the dotted or the bare name; keep the package part
        with open(SOURCE, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()[:16]
        *package, _ = ext_name.split(".")
        return os.path.join(*package, f"_growth_core-{digest}.so")

    def run(self):
        try:
            super().run()
        except (CCompilerError, ExecError, PlatformError) as exc:
            print(f"warning: compiled growth core not built ({exc})")


setup(
    ext_modules=[Extension("darygrow._growth_core", [SOURCE], extra_compile_args=["-O3"])],
    cmdclass={"build_ext": BuildCore},
)
