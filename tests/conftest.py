"""Shared fixtures, plus the acceptance-criteria summary hook.

Acceptance tests report through the `criterion` fixture so the run ends
with one PASS/FAIL/SKIP line per criterion, whatever order pytest ran them
in, and a line naming the growth kernel the run selected.
"""

import sys
import time
from contextlib import contextmanager

import pytest

_LINES: dict = {}


@pytest.fixture
def criterion():
    @contextmanager
    def run(number: int, title: str):
        started = time.perf_counter()
        try:
            yield
        except pytest.skip.Exception as exc:
            _LINES[number] = f"criterion {number:>2}  SKIP  {title}  ({exc})"
            raise
        except BaseException:
            _LINES[number] = f"criterion {number:>2}  FAIL  {title}"
            raise
        elapsed = time.perf_counter() - started
        _LINES[number] = f"criterion {number:>2}  PASS  {title}  ({elapsed:.2f}s)"

    return run


def _kernel_line() -> str:
    from darygrow.sampler import kernel_name

    compiled = sys.modules.get("darygrow._growth_c")
    where = (
        "compiled kernel not available"
        if compiled is None
        else f"C core loaded from {compiled._lib._name}"
    )
    return f"kernel      {kernel_name()}  ({where})"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _LINES:
        return
    terminalreporter.section("acceptance criteria")
    terminalreporter.write_line(_kernel_line())
    for number in sorted(_LINES):
        terminalreporter.write_line(_LINES[number])
