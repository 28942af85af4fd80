"""A fixed reference program that gauges the host's speed.

The benchmark runs it between CLI invocations, in a fresh process with the
same environment, and scales each invocation's times by how long the two
runs around it took (see ``run.py``).  It does the kinds of work a tubewalk
invocation does -- start the interpreter, import numpy and scipy, run numpy
FFTs and an interpreted loop -- in a fixed amount and without any code of
the package, so a change to the package does not change it.
"""

import numpy as np
import scipy.special  # noqa: F401
import scipy.stats  # noqa: F401

x = np.random.default_rng(0).standard_normal(1 << 14)
for _ in range(100):
    x = np.fft.irfft(np.fft.rfft(x) * 0.5)
total = 0
for i in range(300_000):
    total += i * i
