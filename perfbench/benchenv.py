"""Thread pinning and the environment fingerprint written into every
result file.

pin_threads() must run before numpy is imported: BLAS and OpenMP read
their thread counts once, when the library loads. It overwrites the
variables instead of defaulting them, because tbdkit.cli only fills in
the ones that are unset (os.environ.setdefault), so an inherited
OMP_NUM_THREADS would otherwise win silently.
"""

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

THREADS = "1"
THREAD_VARS = (
    "TBDKIT_THREADS",
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def pin_threads():
    if "numpy" in sys.modules:
        raise RuntimeError("thread variables must be pinned before numpy is imported")
    for var in THREAD_VARS:
        os.environ[var] = THREADS


def _git_sha(root: Path):
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _source_sha256(root: Path):
    """Digest of every file under src/, so a checkout without .git still
    names the code it measured."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _cache_sizes():
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        out[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return out


def _blas():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        return None
    return f"{blas.get('name')} {blas.get('version')}"


def fingerprint(root: Path) -> dict:
    import numpy as np
    import scipy

    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "git_sha": _git_sha(root),
        "source_sha256": _source_sha256(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": affinity,
        "caches": _cache_sizes(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }
