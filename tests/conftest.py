"""Shared fixtures, plus the acceptance-criteria summary hook.

Acceptance tests report through the `criterion` fixture so the run ends
with one PASS/FAIL/SKIP line per criterion, whatever order pytest ran them
in, each with its elapsed time against the criterion's time budget and any
details the test reports (criterion 10's doubling ratios), a line
naming the growth kernel the run selected, and a line per test module
skipped at collection (a missing compiled kernel skips `test_kernels.py`),
with its reason.
"""

import os
import signal
import sys
import time
from contextlib import contextmanager
from typing import Optional

import pytest

_LINES: dict = {}
_SKIPPED_MODULES: dict = {}


@pytest.fixture
def criterion():
    @contextmanager
    def run(number: int, title: str, budget: Optional[float] = None, details=()):
        """Yields ``budget``, the seconds the criterion asserts it stays under.
        What the test has appended to the list ``details`` by its end is
        printed after the time."""
        started = time.perf_counter()

        def line(status, note=None):
            if note is None:
                elapsed = time.perf_counter() - started
                note = f"{elapsed:.2f} s"
                if budget is not None:
                    note += f" of {budget:g} s, {elapsed / budget:.0%}"
                note += "".join(f"; {detail}" for detail in details)
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


@pytest.fixture
def deadline():
    """``deadline(seconds)``: a context manager that raises TimeoutError in
    its block once ``seconds`` have passed (SIGALRM)."""

    @contextmanager
    def run(seconds: float):
        def expire(signum, frame):
            raise TimeoutError(f"still running after {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return run


def _kernel_line() -> str:
    # names the C library only when the run selected it: a test module may
    # import the compiled kernel in a run whose default is the Python one
    from darygrow.sampler import kernel_name

    name = kernel_name()
    if name == "c":
        where = f"C core loaded from {sys.modules['darygrow._growth_c']._lib._name}"
    elif os.environ.get("DARYGROW_PURE_PYTHON"):
        where = "forced by DARYGROW_PURE_PYTHON"
    else:
        where = "compiled kernel not available"
    return f"kernel      {name}  ({where})"


def pytest_collectreport(report):
    if report.skipped:
        _, _, reason = report.longrepr  # (path, line, "Skipped: why")
        _SKIPPED_MODULES[report.nodeid] = reason.removeprefix("Skipped: ")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _LINES and not _SKIPPED_MODULES:
        return
    terminalreporter.section("acceptance criteria")
    terminalreporter.write_line(_kernel_line())
    for module, reason in sorted(_SKIPPED_MODULES.items()):
        terminalreporter.write_line(f"skipped     {module}  ({reason})")
    if not _SKIPPED_MODULES:
        terminalreporter.write_line("skipped     no test module")
    for number in sorted(_LINES):
        terminalreporter.write_line(_LINES[number])
