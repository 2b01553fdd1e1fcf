"""Host-speed reference: every timing is reported at one nominal host speed.

The same code runs up to half as fast again from one second to the next on
a shared virtual machine, with process CPU time moving with wall time: the
core itself runs faster or slower, the process is not descheduled.  A run
therefore times a fixed reference kernel between its timed calls, at most
every ``REF_INTERVAL_S`` seconds, and reports each timed span at the
nominal host speed:

    value = integral over the span of NOMINAL_REF_S / ref_s(t) dt

where ``ref_s(t)`` is the mean time of the two kernel runs on either side
of ``t``, and the kernel runs inside the span are left out.  A value is
thus the span's wall time on a host on which the kernel takes
``NOMINAL_REF_S``.

The kernel mixes the kinds of work the workloads do: a SuperLU
factorization whose 0.7M-entry fill spills out of the core's caches, as the
workloads' larger ones do, and in-cache dense BLAS, a small ``einsum`` and
interpreted Python.  It works on fixed inputs made here and never calls
flowrom, so a change to flowrom cannot change the reference.
"""

import bisect
import contextlib
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

NOMINAL_REF_S = 0.060      # kernel time at the nominal host speed
REF_INTERVAL_S = 1.0       # ``tick`` runs the kernel at most this often


def _reference_inputs():
    n = 100
    line = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    laplacian = (sp.kron(line, sp.identity(n)) + sp.kron(sp.identity(n), line)).tocsc()
    rng = np.random.default_rng(0)
    return laplacian, rng.random((150, 150)), rng.random((20, 20, 20)), rng.random(20)


def reference_kernel(inputs):
    laplacian, dense, tensor, vec = inputs
    spla.splu(laplacian)
    for _ in range(20):
        dense @ dense
    for _ in range(400):
        np.einsum("ijk,j,k->i", tensor, vec, vec)
    total = 0
    for i in range(100_000):
        total += i
    return total


class Stopwatch:
    """Timed samples as ``(start, end)`` spans, with reference-kernel runs between them."""

    def __init__(self):
        self.refs = []            # (start, end) of every kernel run, in time order
        self._inputs = _reference_inputs()

    def reference(self):
        """Run the reference kernel once."""
        start = time.perf_counter()
        reference_kernel(self._inputs)
        self.refs.append((start, time.perf_counter()))

    def tick(self):
        """Run the reference kernel if ``REF_INTERVAL_S`` passed since the last run."""
        if not self.refs or time.perf_counter() - self.refs[-1][1] >= REF_INTERVAL_S:
            self.reference()

    @contextlib.contextmanager
    def timed(self, spans):
        """Append the ``(start, end)`` span of the block to ``spans``."""
        start = time.perf_counter()
        yield
        spans.append((start, time.perf_counter()))

    def raw(self, span):
        """Wall time of ``span`` less the kernel runs inside it."""
        return sum(hi - lo for lo, hi, _ in self._pieces(span))

    def scaled(self, span):
        """Time of ``span`` at the nominal host speed."""
        return sum((hi - lo) * NOMINAL_REF_S / ref for lo, hi, ref in self._pieces(span))

    def _pieces(self, span):
        """The parts of ``span`` between kernel runs, with the mean time of the runs around each."""
        start, end = span
        refs = self.refs
        first = max(bisect.bisect_left(refs, (start,)) - 1, 0)
        for k in range(first, len(refs) + 1):
            lo = refs[k - 1][1] if k > 0 else start
            hi = refs[k][0] if k < len(refs) else end
            lo, hi = max(lo, start), min(hi, end)
            if hi > lo:
                around = [e - s for s, e in refs[max(k - 1, 0):k + 1]]
                yield lo, hi, sum(around) / len(around)
            if k < len(refs) and refs[k][0] >= end:
                break
