"""Uniform random d-ary trees, grown one internal node at a time.

The growth bijection pairs an edge-marked tree of size n with a letter and
produces a leaf-marked tree of size n+1; iterating it with uniform marks
keeps every tree along the chain exactly uniform for its size.  The package
ships the bijection and its inverse, exact counting and enumeration
oracles, exhaustive and statistical verification, and an instrumented
growth kernel (compiled when available, pure Python otherwise).
"""

from .bijections import (
    LEFT,
    RIGHT,
    add_root,
    add_root_inv,
    cut,
    cut_inv,
    enlarge,
    enlarge_trace,
    reduce,
    remy_enlarge,
    rotate,
    rotate_inv,
    third_enlarge,
)
from .errors import (
    ArityError,
    CorruptForestError,
    DarygrowError,
    MalformedCodeError,
    MalformedObjectError,
    MarkCountError,
    NotExcursionError,
    RootSurgeryError,
    SizeGuardError,
    StaleNodeError,
    UnderpoweredTestError,
)
from .marks import (
    Bud,
    EdgeMark,
    EdgeMarkedTree,
    LeafMarkedTree,
    MarkedForest,
    is_excursion_forest,
    leaf_sequence,
    validate,
)
from .oracle import (
    ChiSquareReport,
    chi_square_uniformity,
    count_trees,
    enumerate_inputs,
    enumerate_trees,
    height_stats,
    verify_binary_variants,
    verify_enlarge_bijection,
    verify_rotation_lemma,
)
from .sampler import (
    OpCounters,
    SplitMix64,
    chain,
    grow_to,
    kernel_name,
    make_kernel,
    sample_mark_set,
)
from .tree import DaryTree, from_preorder_code, lex_compare, new_root_tree
from .walks import LukWalk, enumerate_walks

__version__ = "0.1.0"

__all__ = [
    "ArityError",
    "Bud",
    "ChiSquareReport",
    "CorruptForestError",
    "DaryTree",
    "DarygrowError",
    "EdgeMark",
    "EdgeMarkedTree",
    "LEFT",
    "LeafMarkedTree",
    "LukWalk",
    "MalformedCodeError",
    "MalformedObjectError",
    "MarkCountError",
    "MarkedForest",
    "NotExcursionError",
    "OpCounters",
    "RIGHT",
    "RootSurgeryError",
    "SizeGuardError",
    "SplitMix64",
    "StaleNodeError",
    "UnderpoweredTestError",
    "add_root",
    "add_root_inv",
    "chain",
    "chi_square_uniformity",
    "count_trees",
    "cut",
    "cut_inv",
    "enlarge",
    "enlarge_trace",
    "enumerate_inputs",
    "enumerate_trees",
    "enumerate_walks",
    "from_preorder_code",
    "grow_to",
    "height_stats",
    "is_excursion_forest",
    "kernel_name",
    "leaf_sequence",
    "lex_compare",
    "make_kernel",
    "new_root_tree",
    "reduce",
    "remy_enlarge",
    "rotate",
    "rotate_inv",
    "sample_mark_set",
    "third_enlarge",
    "validate",
    "verify_binary_variants",
    "verify_enlarge_bijection",
    "verify_rotation_lemma",
]
