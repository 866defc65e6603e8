"""Print the OpenBLAS library behind numpy: its build configuration, the
core it picked at run time and its thread count.

    python tools/blas_info.py

An OpenBLAS built with DYNAMIC_ARCH picks its kernels for the CPU it runs
on, and the outputs that the README calls byte-identical are so only for
one such core. This tool reads the three values from the library numpy
loaded, through ctypes, and exits 1 when it finds no OpenBLAS there.
"""

from __future__ import annotations

import ctypes
import sys
from pathlib import Path

import numpy as np

# The wheels' bundled-library folders: numpy.libs beside the package on
# Linux and Windows, numpy/.dylibs on macOS.
_LIBRARY_DIRS = ("../numpy.libs", ".dylibs")

# scipy-openblas prefixes its names with scipy_ and, in its 64-bit integer
# build, suffixes them with 64_; a plain OpenBLAS does neither.
_NAME_FORMS = (("scipy_", "64_"), ("scipy_", ""), ("", ""))


def _libraries():
    root = Path(np.__file__).parent
    for folder in _LIBRARY_DIRS:
        for path in sorted((root / folder).glob("*openblas*")):
            yield path


def _function(lib, stem, restype):
    for prefix, suffix in _NAME_FORMS:
        try:
            func = getattr(lib, f"{prefix}{stem}{suffix}")
        except AttributeError:
            continue
        func.restype, func.argtypes = restype, []
        return func
    return None


def main():
    for path in _libraries():
        lib = ctypes.CDLL(str(path))
        calls = {name: _function(lib, f"openblas_get_{name}", restype) for name, restype in
                 (("config", ctypes.c_char_p), ("corename", ctypes.c_char_p),
                  ("num_threads", ctypes.c_int))}
        if None in calls.values():
            continue
        print(f"library: {path.name}")
        print(f"numpy: {np.__version__}")
        print(f"config: {calls['config']().decode().strip()}")
        print(f"core: {calls['corename']().decode().strip()}")
        print(f"threads: {calls['num_threads']()}")
        return 0
    print(f"no OpenBLAS library found beside numpy {np.__version__}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
