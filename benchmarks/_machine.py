"""The allocator pin and the machine block that the ladder scripts share.

Under glibc's adaptive malloc thresholds a fresh process hands large freed
NumPy temporaries back to the kernel and faults them in again, until the
thresholds adapt after a number of calls that depends on what ran before.
A rung's time would then depend on the rungs before it.  ``pin_allocator``
starts the process in the adapted state, with the trim and mmap thresholds
that ``perfbench/run.py`` sets, and ``machine`` records whether it could.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import platform

# glibc mallopt parameters
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3


def pin_allocator() -> str:
    """Keep freed memory in the heap: pin glibc's trim threshold at 256 MB
    and its mmap threshold at 32 MB.  Returns the allocator as recorded."""
    try:
        mallopt = ctypes.CDLL(ctypes.util.find_library("c")).mallopt
    except (OSError, AttributeError):
        return "default"
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    if mallopt(M_TRIM_THRESHOLD, 256 << 20) and mallopt(M_MMAP_THRESHOLD, 32 << 20):
        return "glibc, trim and mmap thresholds pinned"
    return "default"


def machine(numpy_version: str, allocator: str) -> dict:
    """The machine block of a ladder run."""
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": platform.machine(),
        "processor": platform.processor(),
        "allocator": allocator,
    }
