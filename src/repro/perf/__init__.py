"""Performance backends: flat array-backed cores for the hot paths.

The reference implementations under :mod:`repro.splitting` are
pointer-chasing object graphs — ideal for auditing against the paper,
but the batch-dynamic-trees experimental literature (Ikram et al.,
Tseng et al.) shows that layout loses heavily to flat struct-of-arrays
cores.  This package holds those cores:

* :mod:`~repro.perf.flat_rbsts` — ``FlatRBSTS``, the RBSTS of §2 over
  parallel int arrays with a slab allocator + free-list; selected via
  ``RBSTS(items, backend="flat")``.
* :mod:`~repro.perf.flat_activation` — Theorem 2.1 processor activation
  over the flat arrays.
* :mod:`~repro.perf.flat_prefix` — extended parse-tree flattening
  (``P̂T(U)``, §3) over the flat arrays, feeding
  :class:`~repro.listprefix.structure.IncrementalListPrefix`.
* :mod:`~repro.perf.flat_contraction` — ``FlatContraction``, the rake
  tree of §4.2 over parallel label/topology columns with memoised
  replay; heal and replay evaluate labels in one pass in creation
  order with :func:`~repro.contraction.labels.relabel_rows`.  Selected
  via ``DynamicTreeContraction(tree, backend="flat")``.
* :mod:`~repro.perf.kernels` — column forms of the §4.2 label rules
  over the scalar rules, called by no library code; kept only for the
  benchmark tracer, which wraps them by name.

Every flat core is pinned op-for-op against its reference twin by the
differential harness in ``tests/perf/`` — same seeds, same shapes, same
shortcut lists, same summaries, same activation round counts.
"""

from .flat_activation import FlatActivationResult, flat_activate, flat_deactivate
from .flat_contraction import FlatContraction
from .flat_prefix import (
    FlatSummaryRef,
    flat_extended_parse_tree,
    flat_prefix_fold,
)
from .flat_rbsts import FlatLeaf, FlatRBSTS
from .kernels import PythonKernels, select_kernels

__all__ = [
    "FlatActivationResult",
    "FlatContraction",
    "FlatLeaf",
    "FlatRBSTS",
    "FlatSummaryRef",
    "PythonKernels",
    "flat_activate",
    "flat_deactivate",
    "flat_extended_parse_tree",
    "flat_prefix_fold",
    "select_kernels",
]
