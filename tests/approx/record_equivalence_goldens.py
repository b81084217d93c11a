"""Record the digests of the equivalence matrix.

Runs every supported (app, technique, level) cell, plus the
sanitizer-attached cells, and writes the digests to
``tests/approx/goldens/equivalence.json``.
``tests/approx/test_equivalence_matrix.py`` then asserts that every run
still reproduces these bytes exactly.

The committed goldens were recorded from the original formulation (kept as
the ``tests/reference`` oracle) and pin the simulator's behaviour.  Re-record
only for an *intentional* behaviour change, never to make a failing matrix
pass:

    PYTHONPATH=src python tests/approx/record_equivalence_goldens.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from tests.approx.equivalence_util import (  # noqa: E402
    GOLDEN_PATH,
    SANITIZED_CELLS,
    SKIP_ERRORS,
    iter_matrix,
    run_combo,
)


def main() -> int:
    goldens: dict[str, str] = {}
    for name, tech, level in iter_matrix():
        try:
            d = run_combo(name, tech, level)
        except SKIP_ERRORS as e:
            print(f"{name:12s} {tech:5s} {level:6s} skip ({type(e).__name__})")
            continue
        goldens[f"{name}/{tech}/{level}"] = d
        print(f"{name:12s} {tech:5s} {level:6s} {d[:16]}")
    # One sanitizer-attached cell per technique: the sanitizer must observe
    # without perturbing a single byte, and its report must be stable too.
    for name, tech, level in SANITIZED_CELLS:
        d = run_combo(name, tech, level, sanitize=True)
        goldens[f"{name}/{tech}/{level}+san"] = d
        print(f"{name:12s} {tech:5s} {level:6s} +san {d[:16]}")
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(goldens, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(goldens)} goldens to {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
