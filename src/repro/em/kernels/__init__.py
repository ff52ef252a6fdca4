"""Kernel backends for the simulator's data-movement paths.

A backend separates *what the model charges* (accounting — owned by
:class:`~repro.em.disk.Disk` / :class:`~repro.em.machine.Machine`,
guarded by emlint and the sanitizer) from *how record bytes move*
(movement — a :class:`~repro.em.kernels.base.KernelBackend`).

Production code gets exactly one backend from :func:`get_kernel`:
:class:`~repro.em.kernels.vectorized_v2.VectorizedV2Kernel`, with
arena-run coalescing, one-arena-per-run scatters, one-call raw
concatenation, fused distribute grouping, and sorts that do not pay
for stability where the order is already unique.
:class:`~repro.em.kernels.numpy_v1.NumpyV1Kernel` is the per-block
reference it is proven byte-identical and counter/phase/trace-identical
to: the differential tests hand an instance to
``Machine(kernel=NumpyV1Kernel())``, and
``benchmarks/test_kernel_backend.py`` measures the wall-clock gap.
"""

from __future__ import annotations

from .base import KernelBackend
from .numpy_v1 import NumpyV1Kernel
from .vectorized_v2 import VectorizedV2Kernel

__all__ = ["KernelBackend", "NumpyV1Kernel", "VectorizedV2Kernel", "get_kernel"]

#: The production backend.  Backends are stateless, so one instance
#: serves every machine.
_PRODUCTION = VectorizedV2Kernel()


def get_kernel(kernel: KernelBackend | None = None) -> KernelBackend:
    """``kernel`` itself, or the production backend when it is ``None``."""
    if kernel is None:
        return _PRODUCTION
    if not isinstance(kernel, KernelBackend):
        raise TypeError(f"kernel must be a KernelBackend instance, not {kernel!r}")
    return kernel
