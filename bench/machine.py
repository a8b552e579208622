"""Locate the library in this checkout and describe the machine a result came from."""
from __future__ import annotations

import glob
import os
import platform
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


class MissingLibrary(RuntimeError):
    """The checkout holds no `src/gauss_deficit` to measure."""


def load_library():
    """Import `gauss_deficit` from this checkout's `src/`, never from elsewhere."""
    init = os.path.join(SRC, "gauss_deficit", "__init__.py")
    if not os.path.isfile(init):
        raise MissingLibrary(f"no library at {init}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import gauss_deficit
    if os.path.abspath(gauss_deficit.__file__) != init:
        raise MissingLibrary(
            f"gauss_deficit imported from {gauss_deficit.__file__}, not {init}")
    return gauss_deficit


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return ""


def _cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _caches() -> dict:
    """Sizes of the unified L2/L3 caches seen by cpu0, as the kernel reports them."""
    out = {}
    for d in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level = _read(os.path.join(d, "level"))
        kind = _read(os.path.join(d, "type"))
        if level in ("2", "3") and kind == "Unified":
            out[f"L{level}"] = _read(os.path.join(d, "size"))
    return out


def _git_commit() -> str:
    """HEAD of the checkout, read from `.git` directly; 'unknown' outside git."""
    git = os.path.join(ROOT, ".git")
    head = _read(os.path.join(git, "HEAD"))
    if not head.startswith("ref: "):
        return head or "unknown"
    ref = head[5:]
    sha = _read(os.path.join(git, ref))
    if sha:
        return sha
    for line in _read(os.path.join(git, "packed-refs")).splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def machine_facts(pool_size: int) -> dict:
    import numpy
    import scipy
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": usable,
        "pool_size": pool_size,
        "GAUSS_DEFICIT_THREADS": os.environ.get("GAUSS_DEFICIT_THREADS"),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
    }
