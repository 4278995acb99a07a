"""Machine-speed reference for speed-normalized timings.

On a shared 2-vCPU x86_64 virtual machine, where the recorded baseline
was taken, each vCPU flips between full speed and roughly half speed, in
spells of a fraction of a second to a minute (the guest sees no steal
time, so CPU time slows down with wall time). To keep run-to-run spread
small, the runner times this fixed kernel just before and just after
every timed call and scales the call's time by NOMINAL_S over their
mean. Reported seconds are therefore "seconds at the speed where the
kernel takes NOMINAL_S"; raw seconds are printed beside them.

The kernel mixes the two styles of work lrsketch's hot loops do: Jacobi
column rotations (slices, dot products, scalar math) and power-iteration
steps with closure bookkeeping (small mat-vecs, norms, outer products).
It is fixed code independent of the package, so a change to lrsketch
moves the scaled times and never the reference. (Sampling a smaller
kernel from a thread during the call was tried and rejected: its time
depends on how much cache the workload step leaves it, not on the
machine.)
"""

from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_S = 0.0042  # kernel time at full speed on that virtual machine
_REPS = 3

_RNG = np.random.default_rng(20261017)
_W = _RNG.standard_normal((64, 48))
_S = _RNG.standard_normal((8, 48))
_V = _RNG.standard_normal(48)


def _jacobi() -> float:
    w = _W.copy()
    acc = 0.0
    for p in range(47):
        for q in range(p + 1, min(p + 9, 48)):
            apq = float(w[:, p] @ w[:, q])
            app = float(w[:, p] @ w[:, p])
            c = 1.0 / np.sqrt(1.0 + (apq / (app + 1.0)) ** 2)
            wp = w[:, p].copy()
            w[:, p] = c * wp - 0.1 * w[:, q]
            w[:, q] = 0.1 * wp + c * w[:, q]
            acc += apq
    return acc


def _tape() -> float:
    acc = 0.0
    v = _V
    vjps = []
    for _ in range(120):
        u = _S @ v
        z = _S.T @ u
        v = z / max(float(np.linalg.norm(z)), 1e-12)
        vjps.append(lambda g, u=u: g * u)
        acc += float(np.multiply.outer(u, v)[0, 0])
    for f in reversed(vjps):
        acc += float(f(1.0)[0])
    return acc


def reference_seconds() -> float:
    """Summed median times of the kernels: the machine's current speed."""
    total = 0.0
    for fn in (_jacobi, _tape):
        times = []
        for _ in range(_REPS):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        total += statistics.median(times)
    return total
