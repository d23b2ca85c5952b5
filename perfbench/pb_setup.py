"""Time one benchmark set-up in a fresh interpreter.

Usage: python3 pb_setup.py <workload> <work_dir>

Set-up is the package import, config building and one tiny warm-up job;
the last line printed is its duration in seconds.
"""

import time

T0 = time.perf_counter()

import shutil  # noqa: E402
import sys  # noqa: E402

import pb_workloads  # noqa: E402


def main(argv: list[str]) -> int:
    name, work_dir = argv
    sys.path.insert(0, pb_workloads.SRC)
    try:
        pb_workloads.setup(pb_workloads.WORKLOADS[name], work_dir)
        print(time.perf_counter() - T0)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
