"""What a benchmark result was measured on.  Recorded, never gated."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess

# Symbol names of the OpenBLAS builds that numpy and scipy wheels ship.
_CONFIG_SYMBOLS = ("scipy_openblas_get_config64_", "scipy_openblas_get_config",
                   "openblas_get_config64_", "openblas_get_config")
_THREADS_SYMBOLS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads")


def _symbol(lib, names, restype):
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.restype = restype
            fn.argtypes = []
            return fn()
    return None


def openblas_libraries() -> list[dict]:
    """Version string and thread count of every OpenBLAS loaded in this process."""
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if "openblas" in line and line.split()[-1].startswith("/")})
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        config = _symbol(lib, _CONFIG_SYMBOLS, ctypes.c_char_p)
        found.append({
            "library": os.path.basename(path),
            "config": config.decode() if config else None,
            "threads": _symbol(lib, _THREADS_SYMBOLS, ctypes.c_int),
        })
    return found


def git_commit(root: str) -> str | None:
    """HEAD of the checkout, or None when the checkout is not a git repository."""
    git_dir = os.path.join(root, ".git")
    if not os.path.exists(git_dir):
        return None
    try:
        out = subprocess.run(["git", f"--git-dir={git_dir}", "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_sha256(src: str) -> str:
    """One hash over every Python file under src, by relative path and content."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def collect(root: str, loadavg_start: tuple[float, float, float],
            blas_threads: int) -> dict:
    import numpy
    import scipy

    return {
        "commit": git_commit(root),
        "source_sha256": source_sha256(os.path.join(root, "src")),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas_libraries(),
        "blas_threads": blas_threads,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": list(loadavg_start),
        "machine": platform.machine(),
    }
