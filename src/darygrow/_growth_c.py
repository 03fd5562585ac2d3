"""Compiled growth kernel: the C core ``_growth_core.c`` driven through ctypes.

Behaviour contract (PRNG, draw order, arena layout, allocation order,
counters) is documented in ``_growth_py``; the two kernels must stay
observably identical.  The argument checks, the size guard and the views
read off the shape are the shared ones of ``_kernel.Kernel``.  The step
loop, the lex phase, the shape walk and whole histogram runs execute in C,
so one Python call does bulk work; the paren text and the height are the
only views the C core renders itself.  Its one walk does all three: a
preorder loop over a stack of node ids, on the calling thread.  A
histogram is binned in C as well: ``dg_histogram`` grows every chain and
counts its shape in a hash table of the distinct shapes,
and ``dg_histogram_read`` copies them out, in the order first seen, with
their counts, so Python makes no key per chain and the memory held is that
of the distinct shapes, not of the chains.  Histogram chains are
not timed, so ``lex_seconds`` reads 0 after ``histogram``.

The library is named after the first 16 hex digits of the C source's
sha256, ``_growth_core-<digest>.so``, and kept in one place,
``$XDG_CACHE_HOME/darygrow`` (default ``~/.cache/darygrow``), so a library
built from another source is never loaded.  The first import compiles the
source there with ``compile_library`` (``cc -shared -fPIC -O3``):
to a temporary file, moved into place with ``os.replace``; later imports
hash the source and load the library.  After a compile, the libraries
built from other sources that are more than a day old are removed, so the
cache holds the current library and at most a day's worth of others: two
checkouts of different sources that share the cache (a benchmark's parent
and change) keep both libraries instead of taking turns recompiling.  A
compile's temporary file is never removed there, since its name has no
``_growth_core-`` prefix.  Importing this module raises
ImportError when the library cannot be had (no C compiler, an unwritable
cache, a compile error), and the package then runs on the Python kernel.

Node ids and child slots are int32, and only internal nodes have child
slots: growth past ``errors.check_child_slots`` is refused with
SizeGuardError before anything is allocated, a failed allocation raises
MemoryError, and nothing proportional to d is allocated before a step.
"""

import ctypes
import os
import time
from ctypes import c_char_p, c_double, c_int, c_int32, c_int64, c_uint64, c_void_p
from operator import attrgetter

from ._kernel import COUNTERS, MASK, Kernel

try:  # the builtin module loads in a tenth of hashlib's import time
    from _sha256 import sha256
except ImportError:
    from hashlib import sha256

KERNEL_NAME = "c"

SOURCE = os.path.join(os.path.dirname(__file__), "_growth_core.c")

_SIGNATURES = {
    "dg_new": (c_void_p, [c_int64, c_uint64]),
    "dg_free": (None, [c_void_p]),
    "dg_reset": (None, [c_void_p]),
    "dg_uniform_below": (c_uint64, [c_void_p, c_uint64]),
    "dg_steps": (c_int, [c_void_p, c_int64]),
    "dg_step_with": (c_int, [c_void_p, ctypes.POINTER(c_int64), c_int64]),
    "dg_edge_word": (c_int64, [c_void_p, c_int64, ctypes.POINTER(c_int32), c_int64]),
    "dg_height": (c_int64, [c_void_p]),
    "dg_check_jumps": (c_int64, [c_void_p]),
    "dg_code": (c_int64, [c_void_p, c_char_p]),
    "dg_paren_text": (c_int64, [c_void_p, c_char_p]),
    "dg_histogram": (c_int64, [c_void_p, c_int64, c_int64]),
    "dg_histogram_read": (None, [c_void_p, c_char_p, ctypes.POINTER(c_int64)]),
}


def library_name() -> str:
    with open(SOURCE, "rb") as fh:
        digest = sha256(fh.read()).hexdigest()[:16]
    return f"_growth_core-{digest}.so"


def compile_library(target: str) -> None:
    """Compile the C core to ``target``; OSError when that fails.

    The core is plain single-threaded C, so ``-shared -fPIC -O3`` is the
    whole build: no Python headers and no thread library.

    The library is written to a temporary file beside ``target`` and moved
    into place, so readers never see a partial build.
    """
    import shlex
    import subprocess
    import sysconfig
    import tempfile

    folder = os.path.dirname(target)
    os.makedirs(folder, exist_ok=True)
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=folder)
    os.close(fd)
    try:
        subprocess.run(
            [*cc, "-shared", "-fPIC", "-O3", SOURCE, "-o", tmp],
            check=True,
            capture_output=True,
            timeout=300,
        )
        os.replace(tmp, target)
    except subprocess.SubprocessError as exc:
        raise OSError(f"compiling {SOURCE} failed: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


# seconds after its last write that a library built from another source
# may be removed
STALE_AGE = 86400


def remove_stale_libraries(folder: str, keep: str) -> None:
    """Remove the ``_growth_core-*.so`` in ``folder`` other than ``keep``
    last written more than ``STALE_AGE`` ago.  A file another process
    removed first, or one that cannot be removed, is left as it is."""
    cutoff = time.time() - STALE_AGE
    for name in os.listdir(folder):
        if name == keep or not (name.startswith("_growth_core-") and name.endswith(".so")):
            continue
        path = os.path.join(folder, name)
        try:
            if os.stat(path).st_mtime < cutoff:
                os.remove(path)
        except OSError:
            pass


def _load():
    cache = os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache")
    name = library_name()
    path = os.path.join(cache, "darygrow", name)
    if not os.path.exists(path):
        compile_library(path)
        remove_stale_libraries(os.path.dirname(path), name)
    # PyDLL: calls keep the interpreter lock, so two threads sharing a
    # kernel cannot race on its arena
    lib = ctypes.PyDLL(path)
    for name, (restype, argtypes) in _SIGNATURES.items():
        fn = getattr(lib, name)
        fn.restype, fn.argtypes = restype, argtypes
    return lib


try:
    _lib = _load()
except (OSError, AttributeError) as exc:
    raise ImportError(f"C growth core unavailable: {exc}") from exc


class _Head(ctypes.Structure):
    """The public head of the C kernel struct; same fields, same order.  The
    C struct fixes that order, and it lists the counters as COUNTERS does."""

    _fields_ = [
        ("d", c_int64),
        ("n", c_int64),
        *((name, c_int64) for name in COUNTERS),
        ("lex_seconds", c_double),
        ("state", c_uint64),
    ]


def _checked(status):
    """A C core result, or MemoryError for its -1 (an allocation failed)."""
    if status < 0:
        raise MemoryError("the C growth core could not allocate memory")
    return status


class GrowthKernel(Kernel):
    name = KERNEL_NAME

    def __init__(self, d, seed):
        super().__init__(d)
        self._k = _lib.dg_new(d, seed & MASK)
        if not self._k:
            raise MemoryError("the C growth core could not allocate a kernel")
        self._head = _Head.from_address(self._k)
        self._word = (c_int32 * 1)()  # edge_word's buffer, grown by doubling

    def __del__(self, _free=_lib.dg_free):
        if getattr(self, "_k", None):
            _free(self._k)
            self._k = None

    # ------------------------------------------------------------------
    # PRNG (splitmix64)

    def _uniform_below(self, k):
        return _lib.dg_uniform_below(self._k, k)

    # ------------------------------------------------------------------
    # state

    def reset(self):
        """Back to the single-node tree; counters cleared, PRNG untouched."""
        _lib.dg_reset(self._k)

    # ------------------------------------------------------------------
    # growth

    def _steps(self, k):
        _checked(_lib.dg_steps(self._k, k))

    def _step_with(self, ranks, letter):
        ranks = (c_int64 * (self.d - 1))(*ranks)
        _checked(_lib.dg_step_with(self._k, ranks, letter))

    # ------------------------------------------------------------------
    # inspection

    def _edge_word(self, rank):
        # a node is at most n deep: each letter of its word needs an
        # internal ancestor.  The C core writes only the word's letters, at
        # the buffer's end, so a call costs O(depth) once the buffer is big
        # enough; it doubles when n outgrows it.
        word = self._word
        if len(word) < self.n:
            word = self._word = (c_int32 * max(self.n, 2 * len(word)))()
        cap = len(word)
        depth = _lib.dg_edge_word(self._k, rank, word, cap)
        assert depth >= 0, "a node deeper than the internal node count"
        return tuple(word[cap - depth :])

    def _shape(self):
        shape = bytearray(self.node_count)
        _checked(_lib.dg_code(self._k, (ctypes.c_char * len(shape)).from_buffer(shape)))
        return shape

    def paren_text(self):
        """``(`` + children + ``)`` per internal node, ``o`` per leaf, as ASCII."""
        buf = ctypes.create_string_buffer(self.node_count + self.n)
        _checked(_lib.dg_paren_text(self._k, buf))
        return buf.raw

    def height(self):
        return _checked(_lib.dg_height(self._k))

    def _histogram(self, n, chains):
        # the C core grows and bins every chain; one more call copies out the
        # distinct shapes, in the order first seen, and their counts
        if chains <= 0:
            return {}
        n = max(n, 0)
        length = self.d * n + 1
        distinct = _checked(_lib.dg_histogram(self._k, n, chains))
        shapes = ctypes.create_string_buffer(distinct * length)
        counts = (c_int64 * distinct)()
        _lib.dg_histogram_read(self._k, shapes, counts)
        raw = shapes.raw
        keys = [raw[i : i + length] for i in range(0, distinct * length, length)]
        return dict(zip(keys, counts))


# n and the counters read straight from the C struct
for _name, _ in _Head._fields_[1:-1]:
    setattr(GrowthKernel, _name, property(attrgetter(f"_head.{_name}")))
