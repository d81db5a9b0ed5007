"""Shared configuration for the wall-clock benchmark gates.

Every test here asserts on a clock reading: a speedup of a batched path
over its scalar reference loop, an overhead fraction, or a time budget.
They run outside the default pytest suite (``testpaths`` names
``tests`` and ``perfbench`` only), as ``python -m pytest benchmarks -q
-s``, so a busy machine can fail a gate here without failing the
correctness suite.  Each gate has a work-count twin under ``tests/``
that pins the passes, calls or copies the speedup comes from.  The
shared timing helpers live in :mod:`bench_utils`.
"""

import os
import sys

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
