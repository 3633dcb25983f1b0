"""Set-up probe: times ``import geomseries`` plus the first operation.

``run.py`` starts this in a fresh interpreter several times per run and
takes the median as ``setup_s``.  numpy is imported before the clock
starts: it is a dependency this repository does not change, and its
import time (which starts the BLAS threads) swings with the machine's
load far more than the package's own.  Input loading sits between the
two timed parts, so it is excluded.  The first operation runs on the
workload's reference input, the one its peak-memory pass uses.  After
it, the workload's calibration kernel runs in the same process, and its
median time lets ``run.py`` convert the first operation to the reference
kernel speed.  Prints one JSON line.

Usage: python3 perfbench/probe.py <workload> <seed> [input files...]
"""

import json
import statistics
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
KERNEL_RUNS = 5


def main(argv: list[str]) -> int:
    name, seed, extra = argv[0], int(argv[1]), argv[2:]
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401

    start = time.perf_counter()
    import geomseries

    import_s = time.perf_counter() - start
    if not Path(geomseries.__file__).resolve().is_relative_to(SRC):
        print(f"geomseries imported from {geomseries.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from tracer import Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[name](seed, Tracer(False))
    wl.load_probe(extra)
    start = time.perf_counter()
    out = wl.peak_op()
    op_s = time.perf_counter() - start
    errors = wl.check(0, out)
    wl.calibrate()
    kernel_s = []
    for _ in range(KERNEL_RUNS):
        start = time.perf_counter()
        wl.calibrate()
        kernel_s.append(time.perf_counter() - start)
    doc = {
        "import_s": import_s,
        "first_op_s": op_s,
        "kernel_s": statistics.median(kernel_s),
        "errors": errors,
    }
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
