"""Machine-speed calibration of the timings.

Small shared machines switch between fast and slow periods lasting
seconds to minutes. On a shared 2-CPU x86-64 machine (OpenBLAS 0.3.31,
numpy 2.4.6) the same frame took about 1.5x longer in the slow ones. A
median over one run cannot average that out, so each timed operation is
paired with a fixed numpy kernel run just before it. The reported time
is the measured time times REFERENCE_MS / kernel time: the operation's
time on a machine as fast as the reference. The kernel is independent
of the program, so a change to the program moves the operation and not
the kernel.

Each kernel stresses what the timed work stresses: many numpy calls on
small arrays (toy-model frames); calls on tiny arrays and a Python loop
(toy-model set-up, which is mostly interpreter and call overhead); the
matrix products of one paper-size denoiser layer (a paper-size frame,
which is 99% `predict`); uniform random draws cast to float32
(paper-size set-up, which is mostly `init_denoiser`); elementwise passes
over a 16 MB array (paper-size training steps, which are mostly
memory-bound `tensor.py` work). The shapes are fixed here and do not
follow the program.

Set-up and training steps (0.2-0.4 s and 6-9 s at paper size) are long
next to a kernel run, so each is calibrated by the kernel runs on both
sides of it (`measure_after`).

On that machine, over seven minutes of alternating runs, paper-size
predict varied 0.88-1.09x between 20 s windows, and predict / layer
kernel 0.98-1.03x. Paper-size set-up varied 0.75-1.15x, and set-up /
draws kernel 0.91-1.05x. Over five minutes, toy set-up varied
0.53-1.07x between 10 s windows, set-up / small-array kernel
0.78-1.10x and set-up / dispatch kernel 0.95-1.04x. Over 70 training
steps, the medians of six consecutive steps varied 0.87-1.16x, and
calibrated 0.96-1.08x.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

REPEATS = 3  # kernel runs per calibration; their median is used
CALIBRATE_EVERY_S = 0.05  # measure_if_due runs the kernel at most this often

# (batch, m, k, n) of the matrix products of one FastDenoiser.predict
# layer at paper size: 63 tokens, width 512, 8 heads of 64, feedforward
# 2048. Fixed, so that a change to predict does not move the kernel.
_PAPER_LAYER_GEMMS = [(1, 63, 512, 1536), (8, 63, 64, 63), (8, 63, 63, 64), (1, 63, 512, 512),
                      (1, 63, 512, 512), (8, 63, 64, 2), (8, 63, 2, 64), (1, 63, 512, 512),
                      (1, 63, 512, 2048), (1, 63, 2048, 512)]

# Each factory allocates its kernel's operands and returns the kernel.
# Only the kernels a run uses are built, so the others add nothing to
# its peak memory.


def _small():
    rng = np.random.default_rng(0)
    x, w = rng.standard_normal((63, 64), dtype=np.float32), rng.standard_normal((64, 192), dtype=np.float32)

    def kernel() -> None:
        for _ in range(20):
            y = np.tanh((x @ w) * 0.1)
            y -= y.mean(-1, keepdims=True)
    return kernel


def _dispatch():
    def kernel() -> None:
        for _ in range(300):
            a = np.zeros(16)
            a += 1.0
            a.sum()
        d = {}
        for i in range(3000):
            d[i] = [i, i * 2.0]
        sum(v[1] for v in d.values())
    return kernel


def _paper_gemms():
    rng = np.random.default_rng(0)
    operands = [(rng.standard_normal((b, m, k), dtype=np.float32), rng.standard_normal((b, k, n), dtype=np.float32),
                 np.empty((b, m, n), dtype=np.float32)) for b, m, k, n in _PAPER_LAYER_GEMMS]

    def kernel() -> None:
        for a, w, out in operands:
            np.matmul(a, w, out=out)
    return kernel


def _draws():
    rng = np.random.default_rng(0)

    def kernel() -> None:
        rng.uniform(-1.0, 1.0, size=(512, 2048)).astype(np.float32)
    return kernel


def _elementwise():
    x = np.random.default_rng(0).standard_normal(4_000_000, dtype=np.float32)

    def kernel() -> None:
        y = x * 0.5
        np.tanh(y, out=y)
        y += x
    return kernel


# name -> (kernel factory, REFERENCE_MS). The reference times are what
# the kernels took in that machine's fast periods, so the reported times
# read close to the times measured there.
KERNELS = {
    "small": (_small, 0.85),
    "dispatch": (_dispatch, 1.5),
    "paper-gemms": (_paper_gemms, 10.4),
    "draws": (_draws, 6.5),
    "elementwise": (_elementwise, 7.5),
}


class Calibration:
    """The current speed factor: reference time / kernel time."""

    def __init__(self, kernel: str):
        factory, self.reference_ms = KERNELS[kernel]
        self.kernel = factory()
        self.factor = 1.0
        self.kernel_ms: list[float] = []
        self._last = -np.inf

    def measure(self) -> float:
        """Runs the kernel now and returns the new factor."""
        times = []
        for _ in range(REPEATS):
            t0 = perf_counter()
            self.kernel()
            times.append(perf_counter() - t0)
        self.kernel_ms.append(1e3 * statistics.median(times))
        self.factor = self.reference_ms / self.kernel_ms[-1]
        self._last = perf_counter()
        return self.factor

    def measure_after(self) -> float:
        """Runs the kernel now and returns the factor of the work done
        since its previous run: reference time / mean of the two kernel
        times."""
        self.measure()
        return self.reference_ms / statistics.mean(self.kernel_ms[-2:])

    def measure_if_due(self) -> float:
        """Runs the kernel when CALIBRATE_EVERY_S has passed since the last run."""
        if perf_counter() - self._last >= CALIBRATE_EVERY_S:
            self.measure()
        return self.factor
