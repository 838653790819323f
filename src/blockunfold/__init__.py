"""Block-sparse / MMV recovery with unfolded iterative thresholding.

Submodules:

* ``blockcore``  block dictionaries, coherence measures, Kronecker lift of
  an MMV channel matrix to block-sparse form, matrix files
* ``operators``  block soft-thresholding and its derivatives
* ``solvers``    classical baselines (block ISTA, momentum variant, AMP)
* ``weights``    analytical weight matrices (KKT oracle, closed form,
  Kronecker reduction, circulant FFT)
* ``unfolding``  the learned network variants, gradients, kernel form
* ``training``   layer-wise training with Adam and NMSE metrics
* ``datagen``    synthetic scenarios and signal sampling
* ``verify``     recovery-guarantee diagnostics
* ``cli``        command-line pipeline (``blockunfold`` entry point)

Importing the package pins glibc's malloc thresholds for the process (see
:data:`ALLOCATOR_POLICY`).
"""

import ctypes
import os

# glibc's mallopt parameters and the values the package pins.  Left
# dynamic, the mmap threshold is set by whichever large block is freed
# first, so arrays below it are mapped and page-faulted afresh on every
# call.  Pinned at 32 MiB (glibc's largest), the arrays of a pass come
# from the heap and are reused; the trim threshold keeps up to 64 MiB of
# freed heap for the next call.  Both are set: setting the trim threshold
# alone also switches the dynamic mmap threshold off where it stands (128
# KiB at start).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 64 << 20


def _malloc_override(environ) -> str | None:
    """Why the allocator is the user's to set under ``environ`` (a
    ``MALLOC_*_`` variable, or a ``glibc.malloc.*`` tunable in
    ``GLIBC_TUNABLES``), or None when nothing in it sets malloc."""
    names = sorted(name for name in environ if name.startswith("MALLOC_") and name.endswith("_"))
    if names:
        return f"{names[0]} is set"
    if "glibc.malloc." in environ.get("GLIBC_TUNABLES", ""):
        return "GLIBC_TUNABLES sets a glibc.malloc tunable"
    return None


def _pin_malloc_thresholds() -> tuple[str, str]:
    """Pin glibc's mmap and trim thresholds with ``mallopt``, unless the
    environment sets malloc; ``(outcome, detail)`` with outcome
    ``applied``, ``skipped`` or ``unavailable``."""
    reason = _malloc_override(os.environ)
    if reason is not None:
        return "skipped", reason
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (ValueError, OSError):
        libc = ""
    if not libc.startswith("glibc"):
        return "unavailable", "the C library is not glibc"
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError) as exc:
        return "unavailable", f"mallopt not found: {exc}"
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mmap = mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    trim = mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)
    return "applied", (
        f"{libc}: mallopt(M_MMAP_THRESHOLD, {_MMAP_THRESHOLD}) = {mmap}, "
        f"mallopt(M_TRIM_THRESHOLD, {_TRIM_THRESHOLD}) = {trim}"
    )


# What the package did to the allocator at import; ``cli.main`` logs it.
ALLOCATOR_POLICY = _pin_malloc_thresholds()

from . import blockcore, datagen, operators, solvers, training, unfolding, verify, weights  # noqa: E402

__all__ = [
    "blockcore",
    "operators",
    "solvers",
    "weights",
    "unfolding",
    "training",
    "datagen",
    "verify",
]

__version__ = "0.1.0"
