"""Machine-speed calibration of the benchmark's times.

On a shared 2-vCPU 2 GHz Xeon host, speed swings by a third or more
over minutes, and every op of every workload slows together (ten 20 s
runs of one workload spread by up to 0.44 of their median).  So the worker also times a fixed kernel that does not touch
``wps``: the benchmark's own exact arithmetic from :mod:`reference`
(big-integer HNF and transverses, a counting table), on fixed inputs.
It runs before the first block and after every block; the mean of
the two samples around a block, each divided by ``REFERENCE_MS``, is
that block's slowness factor.  Time metrics are reported at reference
speed: each block's op times divided by its factor, its rate multiplied
by it.  The raw throughput and the run's median factor go to standard
error.
"""

from __future__ import annotations

import math
import random
import statistics
import time

import reference as R

REFERENCE_MS = 20.0     # the kernel's time on the reference host (one 2 GHz Xeon vCPU)


class Calibration:
    """The fixed kernel and the samples taken of it in one process."""

    def __init__(self):
        rng = random.Random(0)
        self.weights = []
        for n, bits in ((3, 1024), (8, 64)):
            while True:
                q = tuple(rng.getrandbits(bits) | (1 << (bits - 1)) for _ in range(n + 1))
                if math.gcd(*q) == 1:
                    self.weights.append(R.reduce_weights(q))
                    break
        self.samples: list[float] = []

    def sample(self) -> float:
        """Time the kernel once; returns this sample's slowness factor."""
        start = time.perf_counter_ns()
        for q in self.weights:
            R.polytope_matrix(q)
        R.face_counts((6, 10, 15, 7), [10_000])
        self.samples.append((time.perf_counter_ns() - start) / 1e6)
        return self.samples[-1] / REFERENCE_MS

    def median_ms(self) -> float:
        return statistics.median(self.samples)

    def factor(self) -> float:
        """How much slower than the reference host this run was."""
        return self.median_ms() / REFERENCE_MS
