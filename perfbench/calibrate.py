"""Machine-speed calibration.

On a shared host the speed of one process can drift by tens of percent
for tens of seconds at a time, for identical work, in CPU time as well as
in wall time. Each measurement is therefore paired with a fixed kernel,
timed in the same process right before and after it. The end-to-end
metrics are scaled to the speed at which that kernel takes REFERENCE_S
seconds (time * REFERENCE_S / kernel time); the unscaled wall-time figures
and the kernel time are reported beside them. The kernel mixes what the
workloads spend their time on (sparse row slicing, small numpy
operations, interpreted Python loops) and does not use targetopt, so a
change to the package does not move it. A change that alters that mix in
the program can make the two drift apart; compare the unscaled figures to
see whether it did.
"""

from __future__ import annotations

import time

REFERENCE_S = 0.02
# Kernel timings averaged per probe (the mean is steadier than the
# fastest); REFERENCE_S holds for this count only.
REPEATS = 5


class Kernel:
    def __init__(self):
        import numpy as np
        import scipy.sparse as sp

        rng = np.random.default_rng(1)
        self.np = np
        self.X = sp.random(500, 50, density=0.2, format="csr", random_state=1)
        self.theta = rng.normal(size=50)
        self.batches = rng.integers(0, 500, size=(200, 64))

    def _once(self) -> float:
        np, X, theta = self.np, self.X, self.theta
        t0 = time.perf_counter()
        acc = 0.0
        for idx in self.batches:
            z = X[idx] @ theta
            acc += float(np.logaddexp(0.0, -z).sum())
            s = 0
            for j in range(200):
                s += j * j
        return time.perf_counter() - t0

    def seconds(self) -> float:
        """Mean of REPEATS timings of the kernel."""
        return sum(self._once() for _ in range(REPEATS)) / REPEATS
