"""Run one workload of the crossaec benchmark and print its metrics.

    python3 perfbench/run.py --workload train --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout: the program is imported from that
checkout's ``src/``, and the evaluate workload writes its corpus shards
under ``.perfbench_work/`` there, removed at exit. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer ones with ``--trace 1``. With ``--setup-only`` it sets the
workload up once, prints the seconds since process start and exits; an
untraced run times its extra set-ups this way, in fresh processes.
"""

from time import perf_counter

STARTED = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("train", "decode", "evaluate")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--setup-only", action="store_true",
                        help="set the workload up, print the seconds since "
                             "process start and exit")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    package = ROOT / "src" / "crossaec"
    if not (package / "__init__.py").is_file():
        print(f"error: no crossaec package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # One BLAS thread: the shapes are small, and the box is shared.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import crossaec

    if Path(crossaec.__file__).resolve().parent != package.resolve():
        print(f"error: crossaec imported from {crossaec.__file__}", file=sys.stderr)
        return 2
    import bench
    from workloads import WORKLOADS

    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    try:
        if args.setup_only:
            WORKLOADS[args.workload](args.seed, None, workdir)
            print(perf_counter() - STARTED)
            return 0
        result = bench.benchmark(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir, STARTED
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(bench.report(args.workload, result, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
