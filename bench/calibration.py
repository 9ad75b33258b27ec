"""Fixed pieces of reference work that measure the machine's current speed.

The benchmark runs on shared machines whose speed swings by tens of percent,
in spells that last seconds, as neighbours load the cores and caches. The
harness times a kernel between every two timed steps of the library and
scales each step's time by a reference time over the mean of the kernel
times around it, which cancels most of that swing: a slow spell slows both
alike. The kernel does not touch the library, so a change to the library
moves only the library's side of the ratio.

Different kinds of work slow down by different amounts (on the tuning box a
fast spell sped numpy-call-heavy Python loops up by about 40% and dense
600x600 array work by about 17%), so each workload names the parts that
resemble its own dominant cost:

- ``small``: many numpy calls on 8x8 matrices (copy, finiteness check,
  asymmetry, product), the per-call overhead the multi-block solves pay;
- ``dense``: copies, finiteness and asymmetry checks and matvecs on a
  600x600 matrix, the size of consensus-l1's correction-space H and M;
- ``cholesky``: a Python-loop Cholesky factorization of a 120x120 matrix,
  like the library's pivot-reporting check.
"""
from __future__ import annotations

import numpy as np

PARTS = ("small", "dense", "cholesky")


def _data(*shape, phase=0.0):
    return np.sin(np.arange(np.prod(shape)) * 0.7 + phase).reshape(shape)


class Kernel:
    """Callable reference work made of the named parts.

    The data is built once, in the constructor; each call returns a number
    computed from all of it so that no part can be skipped.
    """

    def __init__(self, parts):
        unknown = set(parts) - set(PARTS)
        if unknown or not parts:
            raise ValueError(f"calibration parts must be a non-empty subset of {PARTS}")
        self._steps = [getattr(self, f"_{part}") for part in parts]
        self.dense = _data(600, 600)
        self.vec = _data(600)
        root = _data(120, 120, phase=1.0)
        self.spd = root @ root.T + 120.0 * np.eye(120)
        self.small = [_data(8, 8, phase=float(i)) for i in range(400)]

    def __call__(self) -> float:
        return sum(step() for step in self._steps)

    def _small(self):
        total = 0.0
        for m in self.small:
            a = np.array(m, dtype=float)
            if np.all(np.isfinite(a)):
                total += float(np.abs(a - a.T).max() + (a @ a.T)[0, 0])
        return total

    def _dense(self):
        total = 0.0
        for _ in range(3):
            a = np.array(self.dense)
            if np.all(np.isfinite(a)):
                total += float(np.abs(a).max() + np.abs(a - a.T).max()
                               + self.vec @ (a @ self.vec))
        return total

    def _cholesky(self):
        S = self.spd
        total = 0.0
        for _ in range(4):
            L = np.zeros_like(S)
            for j in range(S.shape[0]):
                L[j, j] = np.sqrt(S[j, j] - L[j, :j] @ L[j, :j])
                L[j + 1:, j] = (S[j + 1:, j] - L[j + 1:, :j] @ L[j, :j]) / L[j, j]
            total += float(L[-1, -1])
        return total
