"""Machine-speed calibration for the timed runs.

On a shared virtual machine the speed of one thread moves by up to half
within minutes, as the host's other tenants come and go, and it moves the
kinds of work differently. A fixed kernel timed next to each op measures
that speed; dividing the op's time by it gives the op's time on a machine
of fixed speed, which is what two runs of the benchmark can compare.

The kernel has five parts, one for each kind of work the library's ops are
made of: a pure-Python loop, small numpy matmuls, Gaussian fills from a
numpy Generator, fresh allocations summed, and float formatting into
strings kept in a dict. Its time is the geometric mean of the five parts'
times. It uses no code of the library, so no change to the library can move
it, and no array of it exceeds 512 KB: larger ones stay in the allocator's
heap after they are freed and raised the runs' peak memory by 3-4 MB.
``REFERENCE_S`` fixes the unit: a scaled time is the time the op would take
on a machine where one calibration takes ``REFERENCE_S``, about what it
takes on the 2-vCPU machine the benchmark was built on.
"""
from __future__ import annotations

import math
import time

import numpy as np

REFERENCE_S = 0.0035
PARTS = ("python", "matmul", "gaussian", "alloc", "format")


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((200, 8))
        self.p = rng.standard_normal((8, 8)) / 8.0

    def __call__(self) -> dict:
        """Seconds each part of one calibration takes now."""
        t = [time.perf_counter()]
        s = 0
        for i in range(40_000):
            s += i * i % 7
        t.append(time.perf_counter())
        x = self.x
        for _ in range(800):
            x = x @ self.p + self.x
        t.append(time.perf_counter())
        rng = np.random.default_rng(1)
        for _ in range(8):
            rng.standard_normal(64_000).sum()
        t.append(time.perf_counter())
        for _ in range(8):
            np.ones(64_000).sum()
        t.append(time.perf_counter())
        rows = {}
        for i in range(1_500):
            v = i * 0.7071067811865476
            rows[f"k{i}"] = ",".join((repr(v), repr(v * v), str(i)))
        "\n".join(sorted(rows.values()))
        t.append(time.perf_counter())
        return dict(zip(PARTS, (b - a for a, b in zip(t, t[1:]))))


def combined(parts: dict) -> float:
    """One calibration's time: the geometric mean of its parts' times."""
    return math.prod(parts.values()) ** (1.0 / len(parts))


def scaled(seconds: float, calibration_s: float) -> float:
    """`seconds` measured next to a calibration of `calibration_s`, at the
    reference speed."""
    return seconds * REFERENCE_S / calibration_s
