"""Fixed reference kernel that tracks how fast the machine runs right now.

On a shared 2-vCPU VM the same single-threaded work was measured taking
20-30 % longer for tens of seconds at a time, with no steal time showing
(so CPU time drifts as much as wall time): 20-s window medians of a fixed
numpy loop spread by 18 % (interquartile range over median).  The
benchmark therefore runs this kernel before the first and after every
timed phase of an iteration and reports each phase as
``raw_s * NOMINAL_S / mean(kernel_s)`` over that iteration's kernel runs:
seconds at the speed the machine had when the kernel took NOMINAL_S.  The same loop measured that way
spread by 1.3 %.  The kernel mixes the costs spadkit's chain is made of,
so both drift together:

* a ``struct.unpack_from`` loop over a byte buffer (the cycle-header scan),
* a three-key ``np.lexsort`` (simulate, apply_delays, apply_lut),
* 16 MB of freshly faulted pages and a random gather across them (every
  stage allocates and indexes arrays larger than the caches, and a
  neighbour contending for memory slows those more than the rest),
* many tiny ``np.linalg.solve`` calls on small arrays (the peak fits).

Raw seconds are reported next to the scaled ones in the provenance line.
The kernel is part of the benchmark and never changes in a change that
claims a gain, so the scaling cancels between a parent and a change.
"""

from __future__ import annotations

import struct
import time

import numpy as np

# About the kernel's median time on the machine the benchmark was defined
# on (2-vCPU Intel Xeon VM, Python 3.11, numpy 2.4, one BLAS thread).
NOMINAL_S = 0.09

_CYCLE = struct.Struct("<QI")


class Kernel:
    def __init__(self):
        rng = np.random.default_rng(20250101)
        self._buf = rng.integers(0, 256, _CYCLE.size * 40_000,
                                 dtype=np.uint8).tobytes()
        self._keys = rng.integers(0, 1 << 30, (3, 150_000))
        self._a = rng.random((4, 4)) + 4.0 * np.eye(4)
        self._b = rng.random(4)
        self._x = rng.random(800)
        self._gather = rng.integers(0, 2_000_000, 400_000)

    def __call__(self) -> float:
        """Run the kernel once; returns its wall time in seconds."""
        t0 = time.perf_counter()
        unpack = _CYCLE.unpack_from
        buf = self._buf
        acc = 0
        for pos in range(0, len(buf), _CYCLE.size):
            acc += unpack(buf, pos)[1]
        np.lexsort(self._keys)
        fresh = np.ones(2_000_000)
        acc += float(fresh[self._gather].sum())
        x = self._x
        for _ in range(200):
            np.linalg.solve(self._a, self._b)
            acc += float(np.exp(-x * x).sum())
        return time.perf_counter() - t0
