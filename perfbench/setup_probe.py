"""Time one workload set-up in a fresh interpreter.

Usage: ``python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR``

Prints the seconds from before ``import repro`` until the workload's
state is ready: inputs generated, runner or engine constructed, pool
warm, campaign split.  Tears the state down afterwards (untimed).
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main(argv: list[str]) -> int:
    name, seed, workdir = argv
    import repro  # noqa: F401
    from workloads import WORKLOADS

    workload = WORKLOADS[name](int(seed), Path(workdir))
    state = workload.setup()
    elapsed = time.perf_counter() - T0
    workload.teardown(state)
    print(repr(elapsed))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
