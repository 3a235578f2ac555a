"""A fixed reference kernel that measures how fast the machine runs now.

On a shared virtual machine the same work can run 1.7 times faster or
slower for seconds to minutes at a time, in CPU time as well as wall time.
The benchmark runs this kernel right before and right after every
``simulate_run`` call and reports each time at a nominal machine speed: a
time t measured while the kernel took r ms per pass is reported as
t * NOMINAL_MS / r.  The raw figures go to the run record as well.

The kernel does the kinds of work the program does per decision, written
here so that no change to the program can change it: small matrix-vector
products, a lexsort, elementwise selects and reductions on small NumPy
arrays, and token-set similarity in plain Python.  Its inputs are fixed.
"""

from __future__ import annotations

import math
import time

import numpy as np

# the kernel's mean pass time on the reference machine (2 vCPU Xeon,
# Python 3.11, NumPy 2.4, one BLAS thread), in milliseconds
NOMINAL_MS = 4.5


class ReferenceKernel:
    def __init__(self):
        rng = np.random.default_rng(20200812)
        self.a = rng.random((90, 40))
        self.q = rng.random(40)
        self.x = rng.random((200, 5))
        vocab = [f"tok{i}" for i in range(40)]
        self.docs = [
            {vocab[(7 * i + 3 * j) % 40]: 1 + (i + j) % 3 for j in range(12)} for i in range(90)
        ]

    def _numpy_part(self) -> float:
        acc = 0.0
        for i in range(40):
            s = self.a @ self.q
            order = np.lexsort((self.x[:, 0], -self.x[:, 1]))
            y = np.where(self.x[:, 2] <= s[i % 90] / 10.0, self.x[:, 3], self.x[:, 4])
            acc += float(s.sum() + y.mean()) + int(order[0])
        return acc

    def _python_part(self) -> float:
        acc = 0.0
        for q in self.docs[:6]:
            q_norm = math.sqrt(sum(c * c for c in q.values()))
            for d in self.docs:
                inter = sum(1 for t in q if t in d)
                union = len(q) + len(d) - inter
                dot = sum(c * d[t] for t, c in q.items() if t in d)
                norm = math.sqrt(sum(c * c for c in d.values()))
                acc += inter / union + dot / (norm * q_norm)
        return acc

    def measure_ms(self, budget_ms: float = 40.0) -> float:
        """Mean time of one kernel pass over about ``budget_ms``, in ms."""
        passes = 0
        started = time.perf_counter()
        while not passes or (time.perf_counter() - started) * 1000.0 < budget_ms:
            self._numpy_part()
            self._python_part()
            passes += 1
        return (time.perf_counter() - started) * 1000.0 / passes
