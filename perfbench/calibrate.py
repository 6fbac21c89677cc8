"""Calibration kernel: fixed numpy work that measures how fast the machine runs now.

On a shared VM the speed of this process drifts by 10-35 % over seconds
to minutes, and the drift reaches its CPU time as much as its wall time,
so it is contention on the host, not time taken from the VM.  ``measure.py``
runs this kernel before and after every harness call and divides the call's
time by the mean of the two kernel times; the drift cancels in the ratio.

The kernel is shaped like a small decode (convolution matrices of a 31-chip
code with 3 taps, ridge solves, a search over a 16-word codebook, scalar
Python in between) but does not import radartag, so no change to the
program changes it.
"""

from time import perf_counter

import numpy as np

REPS = 480  # 60-75 ms on one core of a shared 2.1 GHz Xeon VM
N, TAPS, WORDS = 31, 3, 16

_rng = np.random.default_rng(20240601)
_CODES = np.sign(_rng.standard_normal((WORDS, N)))
_FRAMES = _rng.standard_normal((REPS, N + TAPS - 1))
_WORD = _rng.integers(0, WORDS, REPS)
_RIDGE = 0.1 * np.eye(TAPS)


def kernel() -> float:
    """One pass of the fixed work; returns a checksum so nothing is skipped."""
    total = 0.0
    for frame, word in zip(_FRAMES, _WORD):
        conv = np.zeros((N + TAPS - 1, TAPS))
        for k in range(TAPS):
            conv[k:k + N, k] = _CODES[word]
        taps = np.linalg.solve(conv.T @ conv + _RIDGE, conv.T @ frame)
        best, best_err = -1, float("inf")
        for w in range(WORDS):
            err = float(np.sum((frame[:N] - taps[0] * _CODES[w]) ** 2))
            if err < best_err:
                best, best_err = w, err
        total += best + float(taps @ taps)
    return total


def timed() -> float:
    """Wall time of one kernel pass, in seconds."""
    start = perf_counter()
    kernel()
    return perf_counter() - start
