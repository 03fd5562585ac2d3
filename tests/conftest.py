"""Shared fixtures, plus the acceptance-criteria summary hook.

Acceptance tests report through the `criterion` fixture so the run ends
with one PASS/FAIL/SKIP line per criterion, whatever order pytest ran them
in, each with its elapsed time against the criterion's time budget, and a
line naming the growth kernel the run selected.
"""

import sys
import time
from contextlib import contextmanager
from typing import Optional

import pytest

_LINES: dict = {}


@pytest.fixture
def criterion():
    @contextmanager
    def run(number: int, title: str, budget: Optional[float] = None):
        """Yields ``budget``, the seconds the criterion asserts it stays under."""
        started = time.perf_counter()

        def line(status, note=None):
            if note is None:
                elapsed = time.perf_counter() - started
                note = f"{elapsed:.2f} s"
                if budget is not None:
                    note += f" of {budget:g} s, {elapsed / budget:.0%}"
            _LINES[number] = f"criterion {number:>2}  {status}  {title}  ({note})"

        try:
            yield budget
        except pytest.skip.Exception as exc:
            line("SKIP", exc)
            raise
        except BaseException:
            line("FAIL")
            raise
        line("PASS")

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
