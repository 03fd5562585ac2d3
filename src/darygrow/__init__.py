"""Uniform random d-ary trees, grown one internal node at a time.

The growth bijection pairs an edge-marked tree of size n with a letter and
produces a leaf-marked tree of size n+1; iterating it with uniform marks
keeps every tree along the chain exactly uniform for its size.  The package
ships the bijection and its inverse, exact counting and enumeration
oracles, exhaustive and statistical verification, and an instrumented
growth kernel (compiled when available, pure Python otherwise).
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name is imported from its module on first use (PEP 562), so
# that a run imports only the modules it needs: `darygrow grow` loads none
# of bijections, marks, oracle and walks.
_EXPORTS = {
    "bijections": (
        "LEFT",
        "RIGHT",
        "add_root",
        "add_root_inv",
        "cut",
        "cut_inv",
        "enlarge",
        "enlarge_trace",
        "reduce",
        "remy_enlarge",
        "rotate",
        "rotate_inv",
        "third_enlarge",
    ),
    "errors": (
        "ArityError",
        "CorruptForestError",
        "DarygrowError",
        "MalformedCodeError",
        "MalformedObjectError",
        "MarkCountError",
        "NotExcursionError",
        "RootSurgeryError",
        "SizeGuardError",
        "StaleNodeError",
        "UnderpoweredTestError",
    ),
    "marks": (
        "Bud",
        "EdgeMark",
        "EdgeMarkedTree",
        "LeafMarkedTree",
        "MarkedForest",
        "is_excursion_forest",
        "leaf_sequence",
        "validate",
    ),
    "oracle": (
        "ChiSquareReport",
        "chi_square_uniformity",
        "count_trees",
        "enumerate_inputs",
        "enumerate_trees",
        "height_stats",
        "verify_binary_variants",
        "verify_enlarge_bijection",
        "verify_rotation_lemma",
    ),
    "sampler": (
        "OpCounters",
        "SplitMix64",
        "chain",
        "grow_to",
        "kernel_name",
        "make_kernel",
        "sample_mark_set",
    ),
    "tree": ("DaryTree",),
    "walks": ("LukWalk", "enumerate_walks"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
