"""Fixed reference work that gauges how fast the machine runs right now.

On a shared host the speed of the same single-threaded code drifts by up to
+-20% within a minute (a fixed loop of 100 x 100 eigensolves ran 1178 to
1767 times per second over 90 s on the 2-core box this benchmark was built
on). The drift is machine-wide, so the benchmark times this calibration work
between passes and rescales every time it reports to the speed at which the
calibration takes ``REFERENCE_S`` seconds:

    reported = measured * REFERENCE_S / calibration

The work mixes what the workloads do (small and medium dense linear algebra
and interpreted Python), allocates no large arrays, so its time does not
depend on what the process did before, and uses no oscent code, so a change
to the library moves the reported times in full.
"""

import time

import numpy as np

REFERENCE_S = 0.25
REPEATS = 60


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(100, 100))
        self._sym = a + a.T
        self._mat = rng.normal(size=(300, 300))
        self._out = np.empty_like(self._mat)
        self._work()                             # first touch, untimed

    def _work(self):
        for _ in range(REPEATS):
            np.linalg.eigh(self._sym)
            np.matmul(self._mat, self._mat, out=self._out)
            sum(i * i for i in range(3000))

    def run(self):
        """(wall, cpu) seconds of one round of the calibration work."""
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        self._work()
        return time.perf_counter() - wall0, time.process_time() - cpu0
