"""Evaluate one serial reference task in a fresh interpreter.

Usage: ``python3 perfbench/reference_worker.py TASK_JSON OUT``

``TASK_JSON`` is a JSON list ``[kind, seed, arg]`` as built by
``workloads.run_reference``; the task's ``(records, totals)`` pair is
pickled to ``OUT``.
"""

import json
import pickle
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main(argv: list[str]) -> int:
    task, out = argv
    from workloads import reference_task

    Path(out).write_bytes(pickle.dumps(reference_task(tuple(json.loads(task)))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
