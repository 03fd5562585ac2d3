"""Ground truth: exact counting, exhaustive enumeration, verification.

Everything else in the package is checked against this module.  Counting
is exact integer arithmetic; enumeration is exhaustive and canonically
ordered; the verifiers return JSON-ready report dictionaries of the form
{check, params, pass, counterexample?, ...} and never raise on a failed
property, only on misuse (size guard, underpowered statistics).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import combinations, product
from typing import Dict, Iterator, List, NoReturn, Optional, Tuple

from . import bijections
from ._value import Record
from .errors import FORCE_HINT, DarygrowError, SizeGuardError, UnderpoweredTestError
from .marks import EdgeMarkedTree, LeafMarkedTree, MarkedForest, edge_marked_to_obj, leaf_sequence
from .sampler import make_kernel
from .tree import DaryTree, shape_key
from .walks import enumerate_walks, leaf_shift

# each exhaustive run multiplies trees, mark sets and letters; refuse
# beyond this many combined objects unless the caller forces it
MAX_OBJECTS = 10_000_000


def _guard(
    d: int, n: int, force: bool, choose: Tuple[int, int] = (0, 0), times: int = 1
) -> None:
    """Refuse count_trees(d, n) * C(*choose) * times objects beyond the budget.

    A count more than a decade past the budget by its logarithm is refused
    unbuilt: count_trees(2, 10**6) alone has 600,000 digits.  The
    logarithm's rounding is far below a decade, so every count it does not
    refuse is built and compared exactly, and the sizes admitted are those
    of the exact comparison.
    """
    _check_size(d, n)
    if force:
        return
    top = d * n + 1
    log10 = log10_comb(top, n) - math.log10(top) + log10_comb(*choose) + math.log10(times)
    if log10 > math.log10(MAX_OBJECTS) + 1:
        _refuse(f"~10^{log10:.0f}")
    objects = count_trees(d, n) * math.comb(*choose) * times
    if objects > MAX_OBJECTS:
        _refuse(objects)


def _refuse(count) -> NoReturn:
    raise SizeGuardError(
        f"enumeration of {count} objects exceeds the {MAX_OBJECTS} budget{FORCE_HINT}"
    )


def log10_comb(a: int, b: int) -> float:
    """log10 of the binomial C(a, b), from lgamma; inf past the float range.

    Where b is under a 10^-8 share of a, lgamma(a + 1) - lgamma(a - b + 1)
    would cancel into rounding noise; b ln a is that difference to within
    b^2 / a, a 10^-9 share of the result.
    """
    b = min(b, a - b)
    if b <= 0:
        return 0.0
    lg = math.lgamma
    try:
        falling = lg(a + 1) - lg(a - b + 1) if b * 10**8 > a else b * math.log(a)
        return (falling - lg(b + 1)) / math.log(10)
    except OverflowError:
        return math.inf


def _check_size(d: int, n: int) -> None:
    if d < 2 or n < 0:
        raise ValueError(f"need d >= 2 and n >= 0, got d={d}, n={n}")


def count_trees(d: int, n: int) -> int:
    """Number of d-ary trees with n internal nodes: C(dn+1, n) / (dn+1)."""
    _check_size(d, n)
    top = d * n + 1
    return math.comb(top, n) // top


def mark_set_count(d: int, n: int) -> int:
    """Number of (d-1)-subsets of the size-(dn+d-1) edge and bud universe."""
    return math.comb(*_marks(d, n))


def _marks(d: int, n: int) -> Tuple[int, int]:
    """The universe size and the marks: their binomial is mark_set_count."""
    return d * n + d - 1, d - 1


def growth_identity_holds(d: int, n: int) -> bool:
    """The exact-count identity behind the bijection, checked as integers.

    Marking d-1 leaves of every size-(n+1) tree counts the same set as
    pairing every edge-marked size-n tree with a letter.
    """
    lhs = math.comb((d - 1) * (n + 1) + 1, d - 1) * count_trees(d, n + 1)
    rhs = d * math.comb(d * n + d - 1, d - 1) * count_trees(d, n)
    return lhs == rhs


def enumerate_codes(d: int, n: int, force: bool = False) -> Iterator[Tuple[int, ...]]:
    """Every preorder code of a d-ary tree with n internal nodes, as a tuple,
    in lexicographic order (0 before d).

    One working list steps from each code to the next (Ruskey 1978, Zaks
    1980): the last leaf with an internal node after it turns internal, and
    the tail after it becomes its smallest completion, a leaf wherever
    another slot stays open, else an internal node.  A completion always
    exists, so nothing backtracks.
    """
    _guard(d, n, force)
    size = d * n + 1
    block = [d] + [0] * (d - 1)
    code = block * n + [0]
    last = size - 1 - d if n else -1  # the last internal node
    while True:
        yield tuple(code)
        i = last - 1
        while i >= 0 and code[i]:
            i -= 1
        if i < 0:
            return
        # positions i+1 .. last are internal; once i is, the tail after it
        # owes one fewer and fills size - 1 - i positions: d per internal
        # node owed, then one leaf per slot open before the tail
        due = last - i - 1
        code[i:] = [d] + [0] * (size - i - 2 - d * due) + block * due + [0]
        last = size - 1 - d if due else i


def enumerate_trees(d: int, n: int, force: bool = False) -> List[DaryTree]:
    """All d-ary trees with n internal nodes, in preorder-code order."""
    _guard(d, n, force, times=d * n + 1)  # the list's code symbols
    return [DaryTree.from_preorder_code(d, c) for c in enumerate_codes(d, n, force)]


def enumerate_marked_trees(
    d: int, n: int, force: bool = False
) -> Iterator[EdgeMarkedTree]:
    """All edge-marked trees of size n, grouped by underlying tree.

    Within a tree, mark sets come in lexicographic order over the universe
    b_0 .. b_{d-2}, then the edges in preorder.
    """
    _guard(d, n, force, _marks(d, n))
    of_code = EdgeMarkedTree.from_code
    for code in enumerate_codes(d, n, force):
        # bud b is the number b - (d - 1) < 0, an edge its position > 0
        universe = [*range(1 - d, 0), *range(1, len(code))]
        for chosen in combinations(universe, d - 1):
            k = bisect_left(chosen, 0)
            buds = tuple(b + d - 1 for b in chosen[:k])
            yield of_code(d, code, buds, chosen[k:])


def enumerate_inputs(
    d: int, n: int, force: bool = False
) -> List[Tuple[EdgeMarkedTree, int]]:
    """Every (edge-marked tree, letter) pair of size n, exactly once."""
    inputs_guard(d, n, force)
    marked = enumerate_marked_trees(d, n, force=force)
    return [(x, a) for x in marked for a in range(1, d + 1)]


def inputs_guard(d: int, n: int, force: bool = False) -> None:
    """Refuse the (edge-marked tree, letter) inputs of size n beyond the
    budget: what :func:`enumerate_inputs` lists and
    :func:`verify_enlarge_bijection` certifies."""
    _guard(d, n, force, _marks(d, n), d)


def enumerate_leaf_marked(
    d: int, n: int, m: int, force: bool = False
) -> Iterator[LeafMarkedTree]:
    """All size-n trees with m marked leaves."""
    leaves = (d - 1) * n + 1
    _guard(d, n, force, (leaves, m))
    for code in enumerate_codes(d, n, force):
        for chosen in combinations([p for p, sym in enumerate(code) if not sym], m):
            yield LeafMarkedTree.from_code(d, code, chosen)


def enumerate_forests(d: int, n: int, force: bool = False) -> Iterator[MarkedForest]:
    """All d-tuples of trees with n internal nodes and d-1 marks in total:
    the root splits of the size-(n+1) trees with d-1 marked leaves, in the
    order of :func:`enumerate_leaf_marked`."""
    return map(bijections.add_root_inv, enumerate_leaf_marked(d, n + 1, d - 1, force))


# ----------------------------------------------------------------------
# verifiers


def verify_enlarge_bijection(d: int, n: int, force: bool = False) -> dict:
    """Exhaustively certify the growth bijection at one size.

    Checks, over every (edge-marked tree, letter) input of size n:

    * the intermediate forest out of the cut stage is excursion type,
    * reducing the image returns the exact input,
    * the image count and the per-tree image multiplicity match the counts
      the marking argument predicts.

    The images are pairwise distinct because ``reduce`` is a left inverse,
    so none is kept: only a count per tree of size n+1.  Where a round trip
    fails and the input ``reduce`` returned enlarges to the same image, the
    failure is reported as a collision of the two inputs; where ``reduce``
    refuses the image, as a round trip failure with the error's text.

    ``cut`` does not read the letter, so each marked tree is cut to parts
    once and each image hung from them turned by its letter, with no forest
    built.  ``inputs`` counts the inputs checked, the failing one included.
    """
    inputs_guard(d, n, force)
    params = {"d": d, "n": n}
    expected_mult = math.comb((d - 1) * (n + 1) + 1, d - 1)
    report = {
        "check": "enlarge_bijection",
        "params": params,
        "pass": False,
        "inputs": 0,
        "expected_multiplicity": expected_mult,
        "counterexample": None,
    }
    per_tree: Dict[Tuple[int, ...], List[int]] = {}  # one hash finds a [count]
    # read through the module, once per call, so a patched stage is seen
    cut, turn, hang, reduce = bijections._cut, bijections._turn, bijections._hang, bijections.reduce
    for x in enumerate_marked_trees(d, n, force=force):
        parts, counts = cut(x)
        if leaf_shift(counts):
            report["inputs"] += 1
            report["counterexample"] = {
                "kind": "cut_not_excursion",
                "input": _input_obj(x, 1),
                "leaf_sequence": leaf_sequence(bijections._forest(d, parts)).format(),
            }
            return report
        code, buds, edges = x.code, x.buds, x.edges
        for a in range(1, d + 1):
            report["inputs"] += 1
            image = hang(d, turn(parts, a))
            per_tree.setdefault(image.code, [0])[0] += 1
            try:
                back, back_a = reduce(image)
            except DarygrowError as exc:  # an image reduce refuses
                report["counterexample"] = {
                    "kind": "round_trip",
                    "input": _input_obj(x, a),
                    "error": str(exc),
                }
                return report
            if back_a != a or back.code != code or back.edges != edges or back.buds != buds:
                try:
                    collision = bijections.enlarge(back, back_a) == image
                except DarygrowError:  # reduce returned no input at all
                    collision = False
                report["counterexample"] = {
                    "kind": "collision" if collision else "round_trip",
                    "input": _input_obj(x, a),
                    "other_input" if collision else "returned": _input_obj(back, back_a),
                }
                return report
    expected_images = expected_mult * count_trees(d, n + 1)
    report["images"] = report["inputs"]
    report["expected_images"] = expected_images
    if report["inputs"] != expected_images:
        report["counterexample"] = {"kind": "image_count"}
        return report
    bad = {c: m for c, [m] in per_tree.items() if m != expected_mult}
    if len(per_tree) != count_trees(d, n + 1) or bad:
        report["counterexample"] = {
            "kind": "multiplicity",
            "trees_hit": len(per_tree),
            "off_codes": {str(c): m for c, m in list(bad.items())[:3]},
        }
        return report
    report["pass"] = True
    return report


def _input_obj(x: EdgeMarkedTree, a) -> dict:
    obj = edge_marked_to_obj(x)
    obj["letter"] = a
    return obj


def rotation_guard(m: int, max_increment: int, force: bool = False) -> None:
    """Refuse :func:`verify_rotation_lemma` beyond the budget: it enumerates
    (max_increment + 2)^m increment tuples to find the walks of length m."""
    base = max(max_increment + 2, 0)  # the increments -1 .. max_increment
    # 2^24 passes the budget already: past m = 23 the power is not built
    if not force and base >= 2 and (m >= 24 or base**m > MAX_OBJECTS):
        _refuse(f"{base}^{m}")


def verify_rotation_lemma(m: int, max_increment: int, force: bool = False) -> dict:
    """Certify the rotation principle over all capped walks of length m.

    Every rotation class has m pairwise distinct members with exactly one
    excursion among them, for an excursion the first argmin of the r-th
    rotation sits at m - r, and ``excursion_shift``, which is the
    ``walks.leaf_shift`` the bijections run, turns each walk to it.
    """
    rotation_guard(m, max_increment, force)
    report = {
        "check": "rotation_lemma",
        "params": {"m": m, "max_increment": max_increment},
        "pass": False,
        "walks": 0,
        "counterexample": None,
    }
    for s in enumerate_walks(m, max_increment):
        report["walks"] += 1
        rots = [s.rot(r) for r in range(m)]
        distinct = {w.values for w in rots}
        if len(distinct) != m:
            report["counterexample"] = {
                "kind": "class_size",
                "walk": s.format(),
                "distinct": len(distinct),
            }
            return report
        excursions = [w for w in rots if w.is_excursion()]
        if len(excursions) != 1:
            report["counterexample"] = {
                "kind": "excursion_count",
                "walk": s.format(),
                "count": len(excursions),
            }
            return report
        if s.is_excursion():
            for r in range(m):
                if rots[r].first_argmin() != m - r:
                    report["counterexample"] = {
                        "kind": "argmin",
                        "walk": s.format(),
                        "r": r,
                    }
                    return report
        if s.rot(s.excursion_shift()) not in excursions:
            report["counterexample"] = {"kind": "shift", "walk": s.format()}
            return report
    report["pass"] = True
    return report


def variants_guard(n: int, force: bool = False) -> None:
    """Refuse :func:`verify_binary_variants` beyond the budget: it hits the
    single-leaf-marked binary trees of size n + 1, one per input of a map."""
    _guard(2, n + 1, force, times=n + 2)


def verify_binary_variants(n: int, force: bool = False) -> dict:
    """Certify both binary growth maps at one size and hunt for a witness.

    Each map must be injective over all (tree, mark, side) inputs of size
    n and hit every single-leaf-marked tree of size n+1 exactly once.  One
    byte per such target counts its hits: the rank of its code among the
    size-(n+1) codes times the code length, plus the marked position.  The
    inputs are enumerated again only to name the earlier input of a
    collision.  The witness records an input where the three growth maps
    (the general one and the two variants) give three pairwise different
    outputs.
    """
    variants_guard(n, force)
    # as many inputs as targets: 2 (2n+1) C_n = (n+2) C_{n+1}
    targets = count_trees(2, n + 1) * (n + 2)
    report = {
        "check": "binary_variants",
        "params": {"n": n},
        "pass": False,
        "counterexample": None,
        "witness": None,
        "inputs_per_map": targets,
    }
    width, sides = 2 * n + 3, (bijections.RIGHT, bijections.LEFT)
    rank = {code: i for i, code in enumerate(enumerate_codes(2, n + 1, force))}

    def inputs():
        return ((x, s) for x in enumerate_marked_trees(2, n, force=force) for s in sides)

    def fail(kind: str, name: str, **fields) -> dict:
        report["counterexample"] = {"kind": kind, "map": name, **fields}
        return report

    for name, fn in (("remy", bijections.remy_enlarge), ("third", bijections.third_enlarge)):
        hits = bytearray(len(rank) * width)
        for x, side in inputs():
            out = fn(x, side)
            i, marks = rank.get(out.code), out.leaves
            if i is None or len(marks) != 1 or not 0 <= marks[0] < width or out.code[marks[0]]:
                return fail("image_mismatch", name, input=_input_obj(x, side))
            if hits[i * width + marks[0]]:
                other = next(y for y in inputs() if fn(*y) == out)
                return fail(
                    "collision", name, input=_input_obj(x, side), other_input=_input_obj(*other)
                )
            hits[i * width + marks[0]] = 1
        if sum(hits) != targets:  # fewer inputs than targets
            return fail("image_mismatch", name, images=sum(hits), expected=targets)
    report["pass"] = True
    for x in enumerate_marked_trees(2, n, force=force):
        for a, side in product((1, 2), sides):
            big = bijections.enlarge(x, a).key()
            remy = bijections.remy_enlarge(x, side).key()
            third = bijections.third_enlarge(x, side).key()
            if big != remy and big != third and remy != third:
                report["witness"] = dict(_input_obj(x, a), side=side)
                return report
    return report


# ----------------------------------------------------------------------
# statistics


def regularized_gamma_q(s: float, x: float) -> float:
    """Upper regularized incomplete gamma Q(s, x) to about 1e-14 relative.

    Series for the lower function when x < s + 1, Lentz's continued
    fraction otherwise; the standard split point keeps both sides fast.
    """
    if s <= 0 or x < 0:
        raise ValueError(f"need s > 0 and x >= 0, got s={s}, x={x}")
    if x == 0:
        return 1.0
    if x < s + 1:
        return 1.0 - _lower_series(s, x)
    return _upper_cf(s, x)


def _lower_series(s: float, x: float) -> float:
    ap = s
    term = 1.0 / s
    total = term
    for _ in range(10000):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * 1e-16:
            break
    return total * math.exp(-x + s * math.log(x) - math.lgamma(s))


def _upper_cf(s: float, x: float) -> float:
    tiny = 1e-300
    b = x + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 10000):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return math.exp(-x + s * math.log(x) - math.lgamma(s)) * h


def chi_square_p_value(statistic: float, dof: int) -> float:
    if dof == 0:
        return 1.0
    return regularized_gamma_q(dof / 2.0, statistic / 2.0)


class ChiSquareReport(Record):
    """One chi-square run: the class count, the statistic, its degrees of
    freedom and p value, the sample count and the seed."""

    __slots__ = ("classes", "statistic", "dof", "p_value", "samples", "seed")

    def to_obj(self) -> dict:
        return dict(zip(self.__slots__, self.key()))


def chi_square_uniformity(
    d: int,
    n: int,
    samples: int,
    seed: int,
    kernel: Optional[str] = None,
    force: bool = False,
) -> ChiSquareReport:
    """Goodness of fit of the growth chain against the uniform law.

    Grows ``samples`` independent chains to size n with one PRNG stream,
    bins the final shapes by ``tree.shape_key``, and compares against equal
    class masses.  Needs at least 10 samples per class.
    """
    _guard(d, n, force)
    classes = count_trees(d, n)
    if samples < 10 * classes:
        raise UnderpoweredTestError(
            f"{samples} samples for {classes} classes; need at least {10 * classes}"
        )
    observed = make_kernel(d, seed, kernel).histogram(n, samples)
    class_keys = {shape_key(code) for code in enumerate_codes(d, n, force)}
    unknown = sum(c for key, c in observed.items() if key not in class_keys)
    if unknown:
        # shapes outside the enumerated class set mean the sampler is broken
        return ChiSquareReport(classes, math.inf, classes - 1, 0.0, samples, seed)
    expected = samples / classes
    # fsum: the same bits whatever order the set of keys iterates in
    statistic = math.fsum(
        (observed.get(key, 0) - expected) ** 2 / expected for key in class_keys
    )
    dof = classes - 1
    return ChiSquareReport(
        classes, statistic, dof, chi_square_p_value(statistic, dof), samples, seed
    )


def height_stats(d: int, n: int, reps: int, seed: int, kernel: Optional[str] = None) -> dict:
    """Mean, stddev, min and max height over ``reps`` independent chains.

    Descriptive output for eyeballing; no distributional claim is made or
    verified here.
    """
    k = make_kernel(d, seed, kernel)
    heights = []
    for _ in range(reps):
        k.reset()
        k.steps(n)
        heights.append(k.height())
    mean = sum(heights) / len(heights)
    var = sum((h - mean) ** 2 for h in heights) / len(heights)
    return {
        "d": d,
        "n": n,
        "reps": reps,
        "seed": seed,
        "mean": mean,
        "stddev": math.sqrt(var),
        "min": min(heights),
        "max": max(heights),
    }
