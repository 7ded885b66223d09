"""The column label kernels mirror the §4.2 label rules of
:mod:`~repro.contraction.labels` exactly.

No library code calls them; the repository benchmark's tracer wraps
the class :func:`~repro.perf.kernels.select_kernels` returns, so these
tests pin both the arithmetic and that lookup.
"""

from __future__ import annotations

from repro.algebra.rings import BOOLEAN, INTEGER
from repro.perf.kernels import PythonKernels, select_kernels


def test_python_kernels_match_label_rules():
    k = PythonKernels(INTEGER)
    assert k.rake_add([2], [3], [4]) == ([3], [3 * 2 + 4])
    assert k.rake_add([2], [3], [4], [5]) == ([3], [3 * (2 + 5) + 4])
    assert k.rake_mul([2], [3], [4]) == ([3 * 2], [4])
    assert k.compress([2], [3], [5], [7]) == ([2 * 5], [2 * 7 + 3])
    assert type(select_kernels(BOOLEAN)) is PythonKernels
