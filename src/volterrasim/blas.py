"""The OpenBLAS thread count, held at one while values are computed.

OpenBLAS picks a GEMM's reduction order by shape and thread count, so a
product's last bits can depend on OPENBLAS_NUM_THREADS.  Code that must
give the same bytes for every thread count runs under one_blas_thread.
"""

import contextlib
import ctypes

# (get, set) thread-count functions of the OpenBLAS builds bundled in
# numpy's wheels (64-bit integers) and scipy's
OPENBLAS_THREADS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
)


@contextlib.contextmanager
def one_blas_thread():
    """Every OpenBLAS mapped into this process at one thread, then back.

    Workers forked inside inherit the setting, so n workers run n threads
    and not n BLAS pools each.  The libraries are found in /proc/self/maps;
    where that cannot be read, and for any other BLAS build, nothing
    changes.
    """
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        libs = set()
    restore = []
    for lib in map(ctypes.CDLL, libs):
        for get, set_ in OPENBLAS_THREADS:
            if hasattr(lib, set_):
                restore.append((getattr(lib, set_), getattr(lib, get)()))
                break
    for set_, _ in restore:
        set_(1)
    try:
        yield
    finally:
        for set_, n in restore:
            set_(n)
