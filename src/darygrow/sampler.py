"""Uniform growth chains.

Starting from the single-node tree, each step draws a uniform (d-1)-subset
of the edge-plus-bud universe and a uniform letter, applies the growth
bijection, and forgets the marks.  Every tree in the resulting chain is
exactly uniform over the d-ary trees of its size.

The heavy lifting happens in a kernel: the compiled one from
``darygrow._growth_c`` (a small C core loaded with ctypes, compiled on
first import into a cache keyed by its source's sha256) when available,
otherwise the pure-Python twin in
``darygrow._growth_py``.  Both kernels implement the same observable
contract, documented in ``_growth_py``, for every arity, and share the
PRNG, the rank draw, the counter list (``OpCounters``), the argument
checks and the code-derived views of ``darygrow._kernel.Kernel``; both
refuse growth past 2^31 - 1 node ids or child slots with SizeGuardError.
Set the environment variable DARYGROW_PURE_PYTHON to any non-empty value
to force the fallback.

A kernel is the whole chain state: ``grow_to`` and ``chain`` read its
``tree`` and ``counters``.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Iterator, List, Tuple

from ._kernel import COUNTERS, OpCounters, SplitMix64, draw_ranks  # COUNTERS: re-exported
from .errors import KernelUnavailableError
from .tree import DaryTree

if TYPE_CHECKING:
    from .marks import MarkTarget


def sample_mark_set(rng: SplitMix64, tree: DaryTree) -> List[MarkTarget]:
    """Uniform (d-1)-subset of the edges and buds of ``tree``.

    Rank r below the edge count names the edge above the non-root node
    at preorder position r + 1; the top d-1 ranks name the buds.  Duplicate
    ranks are rejected and redrawn, so the subset is exactly uniform.
    """
    from .marks import Bud, EdgeMark

    d = tree.d
    marks: List[MarkTarget] = []
    for r in draw_ranks(rng, tree.edge_count + d - 1, d - 1):
        if r < tree.edge_count:
            marks.append(EdgeMark(tree.nonroot_node_at(r)))
        else:
            marks.append(Bud(r - tree.edge_count))
    return marks


# ----------------------------------------------------------------------
# kernel selection


_c_module = None  # the C kernel's module, or the ImportError of its one load


def _load_c():
    """The C kernel's module or its ImportError, tried once per process: a
    failed import is not cached by Python, and trying again would run the
    compiler again."""
    global _c_module
    if _c_module is None:
        try:
            from . import _growth_c as _c_module
        except ImportError as exc:
            _c_module = exc
    return _c_module


def _select_kernel_module():
    if not os.environ.get("DARYGROW_PURE_PYTHON"):
        mod = _load_c()
        if not isinstance(mod, ImportError):
            return mod
    from . import _growth_py

    return _growth_py


_kernel_module = _select_kernel_module()


def kernel_name() -> str:
    """Which kernel implementation this process selected at import."""
    return _kernel_module.KERNEL_NAME


def make_kernel(d: int, seed: int, kernel: str | None = None):
    """A fresh growth kernel; ``kernel`` forces "python" or "c".

    The default is the kernel selected at import.  Forcing "c" where the C
    core cannot be loaded raises KernelUnavailableError, an ImportError.
    """
    if kernel is None:
        mod = _kernel_module
    elif kernel == "python":
        from . import _growth_py as mod
    elif kernel == "c":
        mod = _load_c()
        if isinstance(mod, ImportError):
            raise KernelUnavailableError(f"kernel 'c' is not available: {mod}") from mod
    else:
        raise ValueError(f"unknown kernel {kernel!r}")
    return mod.GrowthKernel(d, seed)


def grow_to(
    d: int, n: int, seed: int, kernel: str | None = None
) -> Tuple[DaryTree, OpCounters]:
    """Grow a uniform tree with ``n`` internal nodes from the given seed."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    k = make_kernel(d, seed, kernel)
    k.steps(n)
    return k.tree, k.counters


def chain(d: int, seed: int, kernel: str | None = None) -> Iterator[DaryTree]:
    """Lazy stream of snapshots t_0, t_1, ...; each yield is a fresh copy."""
    k = make_kernel(d, seed, kernel)
    while True:
        yield k.tree
        k.step()
