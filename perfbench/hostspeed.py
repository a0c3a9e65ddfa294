"""How fast the host runs right now, measured by fixed reference work.

On a shared host the same op can take up to 1.7x longer for seconds to
minutes at a time: other tenants load the physical cores, and the guest
sees this neither as steal time nor as load.  CPU time does not leave it
out.  So the benchmark runs a fixed piece of reference work before and
after every op and divides the op's CPU time by the reference's slowdown
factor (its CPU time now over its nominal time), the mean of the two
around the op.  What is left is the op's CPU time on the reference box
with the host at full speed.  The reference work never calls indoorqkd,
so a faster library shows in full.

The slow phases slow interpreter-bound code more than array-bound code
(about 1.7x against 1.3x), so the reference work is of the workload's
own kind: Python bytecode for ambient maps, whole-array numpy passes for
the Monte-Carlo oracle, both for lamp maps.
"""

from __future__ import annotations

import time

import numpy as np

INTERPRETER_STEPS = 150_000
ARRAY_SIZE = 1 << 20
ARRAY_PASSES = 4
# CPU seconds of each part with the host at full speed: the 5th percentile
# over a minute of repeats on a 2-core x86 VM.
NOMINAL_S = {"interpreter": 0.0121, "array": 0.0130}


def _interpreter() -> float:
    total = 0.0
    for step in range(INTERPRETER_STEPS):
        total += (step * 0.5) ** 0.5
    return total


class Reference:
    """Reference work made of ``parts`` (names in NOMINAL_S)."""

    def __init__(self, parts: tuple[str, ...]):
        unknown = set(parts) - set(NOMINAL_S)
        if not parts or unknown:
            raise ValueError(f"reference parts must be among {sorted(NOMINAL_S)}, got {parts}")
        self.parts = parts
        self.nominal_s = sum(NOMINAL_S[p] for p in parts)
        # Preallocated (16 MB, only for the array part), so the array part
        # never faults in fresh pages.
        if "array" in parts:
            self._x = np.linspace(0.1, 1.0, ARRAY_SIZE)
            self._y = np.empty_like(self._x)

    def _array(self) -> float:
        total = 0.0
        for _ in range(ARRAY_PASSES):
            np.sqrt(self._x, out=self._y)
            np.exp(self._y, out=self._y)
            self._y *= self._x
            total += float(self._y.sum())
        return total

    def slowdown(self) -> float:
        """CPU time of the reference work now over its nominal time."""
        start = time.process_time()
        for part in self.parts:
            _interpreter() if part == "interpreter" else self._array()
        return (time.process_time() - start) / self.nominal_s
