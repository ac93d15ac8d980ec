"""Host-speed calibration for the kk6 benchmark.

The benchmark host is a small shared VM whose speed drifts by itself: a
fixed pure-Python loop takes anywhere from 0.23 s to 0.43 s within two
minutes while nothing else runs in the VM, in steps lasting 10-60 s.
Process CPU time equals wall time there, so the vCPU is not descheduled;
it runs slower.  Timing the same fixed loop just before and just after an
operation measures how fast the host was while it ran.

``host_factor()`` is ``REFERENCE_S`` divided by the loop's current time
(the best of ``ROUNDS``), so ``seconds * host_factor()`` is the time at the
reference speed: "reference seconds".  The loop uses no kk6 code, so a
change to kk6 moves reference seconds exactly as it moves seconds.
"""
from __future__ import annotations

import time
from fractions import Fraction

REFERENCE_S = 0.012     # the loop's time on the baseline host, fast phase
ROUNDS = 3


def _loop() -> float:
    # dict and tuple traffic, Fraction arithmetic and a sort: the mix of
    # work kk6's expression kernel does, without calling kk6
    t0 = time.perf_counter()
    table: dict = {}
    acc = Fraction(0)
    keys = []
    for i in range(12000):
        key = (i % 61, i % 59, i % 7)
        table[key] = table.get(key, 0) + 1
        keys.append(key)
        if i % 8 == 0:
            acc += Fraction(i % 13 + 1, i % 11 + 1)
    keys.sort()
    return time.perf_counter() - t0


def host_factor() -> float:
    """Reference-seconds per second at the host's current speed."""
    return REFERENCE_S / min(_loop() for _ in range(ROUNDS))
