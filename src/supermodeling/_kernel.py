"""The compiled library: the tumor tendency, the Euler pass, the serial phase.

``_tendency.c`` holds the tumor tendency, whose one entry runs its four
stages in turn (``tumor.tumor_tendency`` calls it; ``tumor.py`` also wraps
each stage alone), the forward-Euler pass that ends every member step
(``dynamics.explicit_step`` calls it), and the caller's elementwise passes
of a training step: the coupling update's rows (``engine.mismatch_inner``)
and the member average (``engine.supermodel_output``).  The first import
builds it with the interpreter's C compiler into the package's
``__pycache__``, which must be writable then; later imports load it from
there.  A build or load that fails raises ImportError at import, with the
compiler's or the loader's message.  The build allows no reordering or
fused operations, so the loops give the bits of the NumPy formulas the
tests hold them to (the sign and payload of a NaN aside).

Before a foreign call the wrappers check every array it is given
(``pointer``: C-contiguous float64 of the expected shape, outputs apart
from inputs) and raise ValueError otherwise, so the C code reads and
writes only memory it was meant to.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import zlib
from pathlib import Path

import numpy as np

_SOURCE = Path(__file__).with_name("_tendency.c")
# nothing that may reorder, fuse or re-round an operation: never
# -ffast-math, -Ofast or -march=native, and no fused multiply-adds (the
# Euler pass, tend * dt then state + t, is the pattern a compiler fuses)
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
_LONG, _DOUBLE, _ARRAY = ctypes.c_long, ctypes.c_double, ctypes.c_void_p
# name -> (argument types, result type); ``k`` is the tendency's
# coefficients, one array (see tumor._coefficients)
_SIGNATURES = {
    "flux": ((_LONG,) * 3 + (_ARRAY,) * 4, None),
    "divergence": ((_LONG,) * 3 + (_ARRAY,) * 2 + (_DOUBLE, ctypes.c_int) * 2, None),
    "laplacian": ((_LONG,) * 4 + (_ARRAY,) * 2 + (_DOUBLE, ctypes.c_int), None),
    "tendency": ((_LONG,) * 3 + (_ARRAY,) * 4, None),
    "euler": ((_LONG,) * 2 + (_ARRAY,) * 3 + (_DOUBLE,), ctypes.c_int),
    "mismatch": ((_LONG,) * 3 + (_ARRAY,) * 3, None),
    "average": ((_LONG,) * 4 + (_ARRAY,) * 2, None),
}


def load(cache: Path):
    """The compiled library; raises ImportError with why it cannot be used.

    The library is built from ``_SOURCE`` into ``cache`` on first use, named
    by a checksum of the source and the flags, so a later import only reads
    the source and loads the library.  A build removes the libraries that
    earlier versions of the source or flags left in ``cache``.
    """
    try:
        key = zlib.crc32(" ".join(FLAGS).encode(), zlib.crc32(_SOURCE.read_bytes()))
        library = cache / f"_tendency-{key:08x}.so"
        if not library.exists():
            _build(library)
            for stale in cache.glob("_tendency-*.so"):
                if stale != library:
                    # a process that loaded it keeps its mapping
                    with contextlib.suppress(OSError):
                        stale.unlink()
        lib = ctypes.CDLL(str(library))
    except OSError as exc:
        raise ImportError(f"cannot build or load the tendency kernel: {' '.join(str(exc).split())}"
                          ) from exc
    for name, (argtypes, restype) in _SIGNATURES.items():
        function = getattr(lib, name)
        function.argtypes, function.restype = argtypes, restype
    return lib


def _build(library: Path) -> None:
    """Compile ``_SOURCE`` into ``library`` with the interpreter's C compiler,
    or raise ImportError with the compiler's message.  The library is written
    under a temporary name and renamed, so no process loads one that another
    is still writing."""
    # imported here: a run that finds the library built needs none of them,
    # and they take a few milliseconds of every run's set-up
    import shlex
    import subprocess
    import sysconfig

    command = [*shlex.split(sysconfig.get_config_var("CC") or "cc"), *FLAGS]
    library.parent.mkdir(parents=True, exist_ok=True)
    partial = library.with_name(f"{library.name}.{os.getpid()}.tmp")
    try:
        result = subprocess.run([*command, "-o", str(partial), str(_SOURCE)],
                                capture_output=True, text=True, timeout=300)
        if result.returncode != 0:
            raise ImportError(f"cannot build the tendency kernel: {command[0]} failed:\n"
                              f"{result.stderr.strip()}")
        os.replace(partial, library)
    except subprocess.SubprocessError as exc:  # a timeout; load reports an OSError
        raise ImportError(f"cannot build the tendency kernel: {exc}") from exc
    finally:
        partial.unlink(missing_ok=True)


LIB = load(_SOURCE.parent / "__pycache__")
_byref, _char_at = ctypes.byref, ctypes.c_char.from_buffer


def pointer(array, shape, *apart, output=False):
    """``array`` as a pointer argument of a foreign call, which must be a
    C-contiguous float64 array of ``shape`` sharing no memory with the
    ``apart`` ones, and writeable if it is the call's ``output``."""
    if not (isinstance(array, np.ndarray) and array.dtype == np.float64
            and array.shape == shape):
        raise ValueError(f"the kernel needs float64 arrays of shape {shape}, got "
                         f"{getattr(array, 'dtype', type(array))} of shape "
                         f"{getattr(array, 'shape', None)}")
    flags = array.flags
    if not flags.c_contiguous:
        raise ValueError("the kernel needs C-contiguous arrays")
    for other in apart:
        if np.may_share_memory(array, other):
            raise ValueError("the kernel's output may not overlap its inputs")
    if not flags.writeable:  # which from_buffer requires
        if output:
            raise ValueError("the kernel's output must be writeable")
        return array.ctypes.data
    # a quarter of the time of array.ctypes.data, which is most of a call's
    # overhead on a small grid
    return _byref(_char_at(array))


def euler(state: np.ndarray, tend: np.ndarray, dt: float,
          correction: np.ndarray | None = None) -> bool:
    """``state`` advances in place to state + tend * dt, plus ``correction``
    on the first field, in one compiled pass; returns whether every value it
    stored is finite.

    Each value gets NumPy's roundings: tend * dt, then state + that, then
    + correction, so the result is the bits of ``np.add(state, tend * dt)``
    followed by ``state[0] += correction``.  ``tend`` is shaped like
    ``state`` and ``correction`` like ``state[0]``; neither may overlap
    ``state``.
    """
    shape = getattr(state, "shape", None)
    state_ptr = pointer(state, shape, output=True)
    tend_ptr = pointer(tend, shape, state)
    if correction is None:
        corrected, correction_ptr = 0, None
    else:
        corrected, correction_ptr = correction.size, pointer(correction, shape[1:], state)
    return LIB.euler(state.size, corrected, state_ptr, tend_ptr, correction_ptr, dt) != 0
