"""Run one workload of the fleet benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cold_fleet --seed 1 --seconds 10 --trace 0

The program is imported from ``src/`` of the same checkout (pure Python,
nothing to build).  Scratch files live in ``perfbench/_work/`` and are
removed before exit; nothing outside the checkout is read or written.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Exit code 0
means the run completed (``correct`` says whether every check passed);
2 means it could not start, e.g. because ``src/repro`` is missing.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from typing import List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_PARENT = os.path.join(HERE, "_work")
WORKLOAD_NAMES = ("cold_fleet", "reanalyze", "serve_mixed", "campaign")


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the measured window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: record spans and report per-layer metrics")
    return parser.parse_args(argv)


def git_revision() -> str:
    """HEAD of the checkout, when the checkout itself is a git work tree."""
    try:
        done = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    lines = done.stdout.split()
    if (done.returncode != 0 or len(lines) != 2
            or os.path.realpath(lines[0]) != os.path.realpath(ROOT)):
        return "unavailable"
    return lines[1]


def source_digest() -> str:
    """SHA-256 over the program's ``.py`` files (path and content)."""
    digest = hashlib.sha256()
    for directory, subdirs, files in os.walk(os.path.join(SRC, "repro")):
        subdirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def host_lines() -> List[str]:
    import numpy

    schedulable = (len(os.sched_getaffinity(0))
                   if hasattr(os, "sched_getaffinity") else os.cpu_count())
    return [
        f"host: nproc {schedulable} (cpu_count {os.cpu_count()}), "
        f"Python {platform.python_version()}, numpy {numpy.__version__}, "
        f"{platform.machine()}",
        f"program: git revision {git_revision()}, "
        f"src digest {source_digest()[:16]}",
    ]


#: glibc's ``mallopt`` parameter number of ``M_ARENA_MAX``.
M_ARENA_MAX = -8


def single_malloc_arena() -> None:
    """Serve every thread's ``malloc`` from one arena.

    By default glibc gives threads arenas of their own.  Which thread
    lands in which arena, and so how much freed memory stays resident,
    then changes from run to run: ``serve_mixed`` peaked anywhere between
    180 and 256 MB, against a steady 139-151 MB with one arena.  This is the ``MALLOC_ARENA_MAX=1`` setting long-running
    Python services often deploy with.  Other C libraries are left as
    they are.
    """
    try:
        libc = ctypes.CDLL(None)
        libc.mallopt(M_ARENA_MAX, 1)
    except (OSError, AttributeError):
        pass


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    single_malloc_arena()
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program sources at {SRC}/repro",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(WORK_PARENT, exist_ok=True)
    work_root = tempfile.mkdtemp(prefix=f"{args.workload}-",
                                 dir=WORK_PARENT)
    # Campaign trials and the store keep their scratch files under the
    # run's own directory, inside the checkout.
    tempfile.tempdir = work_root
    os.environ["AUTOCHECK_CACHE_DIR"] = os.path.join(work_root, "store")
    try:
        import workloads

        lines = host_lines()
        result = workloads.run(args.workload, args.seed, args.seconds,
                               bool(args.trace), work_root)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            os.rmdir(WORK_PARENT)
        except OSError:
            pass
    for line in lines + result.lines:
        print(line)
    print(result.to_json(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
