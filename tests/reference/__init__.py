"""Frozen reference formulation of the simulator and technique runtimes.

Production (``src/repro``) has one implementation of every charging
primitive and technique runtime.  This package keeps the original
formulation as a test oracle: the differential test, the arena and memory
tests, and ``benchmarks/perf_micro.py`` import it directly, and production
has no hook that reaches it.  The full-application equivalence matrix checks
production against goldens recorded from this formulation.
"""

from tests.reference.context import ReferenceGridContext, reference_launch
from tests.reference.hierarchy import decide
from tests.reference.iact import iact_invoke
from tests.reference.taf import taf_invoke

__all__ = [
    "ReferenceGridContext",
    "decide",
    "iact_invoke",
    "reference_launch",
    "taf_invoke",
]
