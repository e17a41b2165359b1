"""A fixed reference kernel that measures how fast the host runs right now.

The host under the benchmark is a shared virtual machine whose speed drifts:
the same `kurapart search` run took from 1.67 s to 2.89 s within four
minutes, and a plain Python loop drifts with it.  Each timed CLI run is
therefore bracketed by two runs of this kernel, and the end-to-end timings
are reported in units of the kernel's time (see run.py).  The kernel does a
fixed amount of the three kinds of work the CLI does: exact `Fraction`
arithmetic in pure Python (search), many small numpy calls in a Python loop
(per-step overhead of simulate), and dense n x n sine sums (the O(n^2)
right-hand side).  It imports nothing from `kurapart`, so a change to the
program cannot change the reference.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

FRACTION_ROUNDS = 8
FRACTION_TERMS = 900
SMALL_CALLS = 5600
DENSE_N = 200
DENSE_CALLS = 150


def _fractions() -> Fraction:
    total = Fraction(0)
    for _ in range(FRACTION_ROUNDS):
        total = Fraction(0)
        for i in range(1, FRACTION_TERMS):
            total += Fraction(i % 7 - 3, i) * Fraction(2 * i + 1, 3 * i + 2)
    return total


def _small_numpy() -> float:
    y = np.linspace(0.0, 1.0, 48)
    for _ in range(SMALL_CALLS):
        k = np.sin(y) - 0.5 * np.cos(y)
        y = y + 1e-3 * k
        np.max(np.abs(k))
    return float(y.sum())


def _dense() -> float:
    theta = np.linspace(0.0, 6.0, DENSE_N)
    a = (np.add.outer(np.arange(DENSE_N), np.arange(DENSE_N)) % 3 == 0).astype(float)
    acc = 0.0
    for _ in range(DENSE_CALLS):
        acc += float(np.sum(a * np.sin(theta[None, :] - theta[:, None] - 0.7), axis=1).sum())
    return acc


def kernel() -> None:
    _fractions()
    _small_numpy()
    _dense()


def reference_s() -> float:
    """Seconds one run of the kernel takes now."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
