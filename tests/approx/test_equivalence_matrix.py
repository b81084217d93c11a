"""Golden equivalence matrix: 7 apps × {taf, iact, perfo} × levels.

The simulator must stay **byte-identical** to the original implementation
on every full application run — same QoI bytes, same kernel timings, same
counters, same region stats, same ApproxSan report.  Each supported cell
runs once and its digest must match the committed golden in
``tests/approx/goldens/equivalence.json``, which was recorded from the
original (now ``tests/reference``) formulation.  The primitive-level
differential test (``tests/gpusim/test_differential.py``) compares against
that formulation directly.
"""

from __future__ import annotations

import pytest

from tests.approx.equivalence_util import (
    SANITIZED_CELLS,
    SKIP_ERRORS,
    iter_matrix,
    load_goldens,
    run_combo,
)

GOLDENS = load_goldens()

MATRIX = list(iter_matrix())


# The name predates the single simulator path; it is kept so test ids stay
# stable across the golden history.
@pytest.mark.parametrize("name,tech,level", MATRIX, ids=lambda v: str(v))
def test_fast_and_slow_match_golden(name, tech, level):
    key = f"{name}/{tech}/{level}"
    try:
        digest = run_combo(name, tech, level)
    except SKIP_ERRORS:
        assert key not in GOLDENS, f"{key} was recorded but now raises"
        pytest.skip(f"{key} unsupported")
    assert key in GOLDENS, (
        f"{key} runs but has no golden — re-record with "
        f"record_equivalence_goldens.py"
    )
    assert digest == GOLDENS[key], f"{key} is not byte-identical to its golden"


@pytest.mark.parametrize("name,tech,level", SANITIZED_CELLS)
def test_sanitizer_attached_is_still_identical(name, tech, level):
    """ApproxSan only observes: attaching it must not change a byte, and
    its own report must match the golden too."""
    key = f"{name}/{tech}/{level}+san"
    digest = run_combo(name, tech, level, sanitize=True)
    assert digest == GOLDENS[key], f"{key} is not byte-identical to its golden"


def test_matrix_coverage_has_not_silently_shrunk():
    """At least 20 cells must actually execute — if a refactor starts
    raising skip-class errors everywhere, the matrix would silently pass
    while testing nothing."""
    assert len(GOLDENS) >= 20
