"""Exception hierarchy shared by the whole package, and the size limit of a
grown tree that both growth kernels enforce."""

INT32_MAX = 2**31 - 1


class DarygrowError(Exception):
    """Base class for every error raised by this package."""


class ArityError(DarygrowError, ValueError):
    """Arity is out of range (d must be at least 2) or two objects disagree on d."""


class RootSurgeryError(DarygrowError, ValueError):
    """Attempt to strip the root of the single-node tree, which has none to remove."""


class StaleNodeError(DarygrowError, KeyError):
    """A node id does not name a node of the tree: ids are the preorder
    positions 0 .. node_count - 1."""


class MalformedCodeError(DarygrowError, ValueError):
    """A preorder code has wrong degrees, ends early, or has trailing symbols."""


class MalformedObjectError(DarygrowError, ValueError):
    """The JSON form of a marked object has a value of the wrong type."""


class MarkCountError(DarygrowError, ValueError):
    """A marked object carries the wrong number of marks for the operation."""


class NotExcursionError(DarygrowError, ValueError):
    """A forest outside the excursion-type domain was passed to cut_inv."""


class CorruptForestError(DarygrowError, ValueError):
    """Forest reassembly could not find a marked leaf to plug into."""


class SizeGuardError(DarygrowError, ValueError):
    """An exhaustive enumeration would exceed the configured object budget."""


# the end of a refusal that the caller lifts with force=True
FORCE_HINT = "; pass force=True to override"


class UnderpoweredTestError(DarygrowError, ValueError):
    """A statistical test was requested with too few samples per class."""


class KernelUnavailableError(DarygrowError, ImportError):
    """The compiled kernel was asked for, but its C core cannot be loaded."""


def check_child_slots(d: int, n: int) -> None:
    """Refuse a tree of n internal nodes when d*(d*n + 1), d times its node
    count, passes INT32_MAX: every id and slot then fits int32, and a step's
    d - 1 rank draws and edge sort stay bounded.  Both kernels call this first."""
    slots = d * (d * n + 1)
    if slots > INT32_MAX:
        raise SizeGuardError(
            f"{n} internal nodes at d={d} need {slots} child slots,"
            f" above the int32 limit {INT32_MAX}"
        )
