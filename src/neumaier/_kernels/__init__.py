"""Kernel selection: compiled extension when available, pure Python
otherwise.  Set NEUMAIER_PURE_PYTHON=1 to force the fallback.

Both kernels expose the same surface and give the same outputs
(eigenvalues up to rounding):
  charpoly_adj(adj, n)          exact integer characteristic polynomial
  jacobi_eigenvalues(flat, n)   ascending eigenvalues of a symmetric matrix
  cluster_count(sorted, tol)    gap clustering used by spectra
  pack_charpoly / unpack_charpoly  stable dict keys for sweeps
  sweep_masks(n, start, stop, tol) labeled-graph range scan
  KERNEL_KIND                   "cython" or "python"
"""

from __future__ import annotations

import os

from . import _slow


def load_kernel(kind: str):
    """Return a kernel module by name ("cython" or "python")."""
    if kind == "python":
        return _slow
    if kind == "cython":
        from . import _fast

        return _fast
    raise ValueError(f"unknown kernel kind {kind!r}")


if os.environ.get("NEUMAIER_PURE_PYTHON"):
    impl = _slow
else:
    try:
        from . import _fast as impl  # type: ignore[no-redef]
    except ImportError:
        impl = _slow

KERNEL_KIND = impl.KERNEL_KIND
FAST_CHARPOLY_MAX_N = _slow.FAST_CHARPOLY_MAX_N

charpoly_adj = impl.charpoly_adj
jacobi_eigenvalues = impl.jacobi_eigenvalues
cluster_count = impl.cluster_count
pack_charpoly = impl.pack_charpoly
unpack_charpoly = impl.unpack_charpoly
sweep_masks = impl.sweep_masks
