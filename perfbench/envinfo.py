"""The environment block recorded with every result."""

import hashlib
import os
import platform
import subprocess
from pathlib import Path

import speed

CALIBRATION_REPEATS = 5


def source_digest(root):
    """sha256 over the package sources, so results name the code they measured."""
    h = hashlib.sha256()
    for path in sorted((Path(root) / "src" / "axial").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit(root):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(Path(root).resolve().parent))
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(root):
    from axial.fields import rational

    kind = type(rational(1, 2))
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "rational_backend": f"{kind.__module__}.{kind.__qualname__}",
        "nproc": os.cpu_count(),
        "commit": commit(root),
        "source_sha256": source_digest(root),
        "calibration_ms": speed.kernel_ms(CALIBRATION_REPEATS),
    }
