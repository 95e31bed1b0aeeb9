"""Fresh-interpreter helpers of the benchmark: the build step and one
set-up sample.

``python3 perfbench/probe.py build``
    Byte-compiles ``src`` and resolves the kernel backend, which compiles
    the C kernels' ``.so`` when it is not built yet.  Prints one JSON
    object: the backend and whether the ``.so`` was compiled now.  The
    benchmark runs this before it times anything, so no timed set-up pays
    for a compile.

``python3 perfbench/probe.py setup --workload W --seed N``
    With ``REPRO_CACHE_DIR`` pointing at an empty directory, times
    ``import repro`` plus the workload's first call and prints one JSON
    object with that time, the figure rows and the failed cells.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import spec  # noqa: E402  (stdlib-only at import time)

SO_DIR = SRC / "repro" / "perf" / "kernels" / "_build"


def build() -> dict:
    import compileall
    compileall.compile_dir(str(SRC), quiet=1)
    before = set(SO_DIR.glob("*.so")) if SO_DIR.is_dir() else set()
    from repro.perf.kernels import backend_info
    info = backend_info()
    after = set(SO_DIR.glob("*.so")) if SO_DIR.is_dir() else set()
    return {"backend": info, "so_compiled": bool(after - before)}


def cold_call(wl: spec.Workload, seed: int):
    """``import repro`` plus the first workload call; the caller's
    process must not have imported numpy or repro yet and
    ``REPRO_CACHE_DIR`` must name an empty directory.

    Returns ``(seconds, SweepResult)``.
    """
    t0 = time.perf_counter()
    import repro  # noqa: F401  (the import is part of what set-up times)
    res, _, _ = spec.call_figure(wl, seed)
    return time.perf_counter() - t0, res


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("step", choices=("build", "setup"))
    ap.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    if args.step == "build":
        print(json.dumps(build()))
        return 0
    if args.workload is None:
        ap.error("setup needs --workload")
    wl = spec.WORKLOADS[args.workload]
    seconds, res = cold_call(wl, args.seed)
    print(json.dumps({"setup_s": seconds, "rows": spec.rows_of(res),
                      "failed": spec.check_cells(wl, res)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
