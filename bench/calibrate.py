"""A fixed reference kernel that tracks how fast the host runs right now.

The reference host runs the same code at two speeds that alternate over
tens of seconds: in its slow phase an op takes about 1.5 times as long, and
CPU time grows with wall time, so no scheduling gap explains it. A run of
30 s can fall wholly in either phase, so raw op times spread more between
runs than any useful regression bound.

The benchmark therefore times this kernel right before and right after each
op and each set-up, and scales the op's time by REFERENCE_MS over the mean
of the two readings. The scaled time is what the op would take at the
speed the reference host has in its fast phase. The kernel does not import
`gframes`, so a change to the package moves the scaled time by the same
factor as the wall time, while a phase of the host moves both the kernel
and the op.

The kernel mixes the kinds of work the package does: fancy-indexed row and
column updates of a small complex matrix (the Jacobi solver), a Python loop
over small vectors (the per-operator loops) and JSON text (the `io` layer
and the reports). Its inputs are fixed, so it does the same work every time.
"""

from __future__ import annotations

import json
import time

import numpy as np

# Time of one kernel pass, in ms, on the reference host in its fast phase (2 vCPUs,
# Intel Xeon at 2.1 GHz, Python 3.11, numpy 2.4, OpenBLAS 0.3.31).
REFERENCE_MS = 1.2
# Passes per reading.
PASSES = 5

_RNG = np.random.default_rng(20150424)
_G = _RNG.standard_normal((16, 16)) + 1j * _RNG.standard_normal((16, 16))
_MATRIX = _G @ _G.conj().T
_P = np.arange(0, 16, 2)
_Q = np.arange(1, 16, 2)
_VECTORS = [_RNG.standard_normal(4) + 1j * _RNG.standard_normal(4) for _ in range(64)]
_DOC = {"dim_h": 4, "operators": [{"rows": 1, "re": [v.real.tolist()], "im": [v.imag.tolist()]}
                                  for v in _VECTORS]}


def _kernel() -> float:
    a = _MATRIX.copy()
    for _ in range(30):
        apq = a[_P, _Q]
        mag = np.abs(apq) + 1e-300
        c = 1.0 / np.sqrt(1.0 + mag)
        s = (1.0 - c) * apq / mag
        rp = a[_P, :]
        rq = a[_Q, :]
        a[_P, :] = c[:, None] * rp - s[:, None] * rq
        a[_Q, :] = np.conj(s)[:, None] * rp + c[:, None] * rq
    acc = float(np.abs(a).sum())
    for v in _VECTORS:
        acc += float(np.vdot(v, v).real)
    doc = json.loads(json.dumps(_DOC))
    return acc + len(doc["operators"])


def reference_ms() -> float:
    """Wall time of the fastest of PASSES passes of the kernel, in ms.

    The fastest pass ignores an interrupt that hits one pass, while a slow
    phase of the host slows every pass.
    """
    best = float("inf")
    for _ in range(PASSES):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best * 1e3
