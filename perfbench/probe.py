"""Fixed machine-speed probe, sampled while an op runs.

The probe does a fixed amount of the two kinds of work polyball spends its
time on: interpreter-bound Python (tuple building, hashing, dict lookups, as
in word arithmetic) and a dense complex LU solve, as in the resolvent.  It
imports nothing from polyball.  It runs in polyball's interpreter, so it keeps
the cyclic garbage collector off while it runs: a collection started by the
probe's own allocations would scan polyball's heap and make the probe's time
depend on the size of that heap.

The machine's speed changes within a second, as other tenants load the host,
so a probe taken next to an op says little about the speed during it.
``Sampler`` therefore runs the probe inside the op: a ``SIGALRM`` handler
interrupts the op's main thread every ``INTERVAL`` seconds, between two
bytecodes, and times one probe.  The op's own time is its wall time minus the
time spent in the handler, and op time divided by the mean probe time is op
work in probe units.
"""

from __future__ import annotations

import gc
import signal
import time

import numpy as np

PY_ROUNDS = 2_400
LU_DIM = 64
LU_REPEATS = 4
INTERVAL = 0.1          # seconds of wall time between samples inside an op
# Set-up time is reported in seconds at the machine speed at which one probe
# takes this long; quiet runs of the measuring machine take 1.5 to 2 ms.
REFERENCE_PROBE_S = 0.002

_rng = np.random.default_rng(20151127)
_A = (_rng.standard_normal((LU_DIM, LU_DIM)) + 1j * _rng.standard_normal((LU_DIM, LU_DIM))
      + LU_DIM * np.eye(LU_DIM))
_B = np.eye(LU_DIM, dtype=complex)


def _python_work() -> int:
    table: dict[tuple[int, ...], int] = {}
    acc = 0
    for i in range(PY_ROUNDS):
        key = (i % 3, (i // 3) % 5, (i // 15) % 7)
        word = key + (i & 1,)
        table[key] = table.get(key, 0) + len(word)
        acc += word[-1]
    return acc + len(table)


def _lu_work() -> float:
    out = 0.0
    for _ in range(LU_REPEATS):
        out += float(np.linalg.solve(_A, _B)[0, 0].real)
    return out


def probe() -> float:
    """Seconds taken by one fixed probe (about 1.5 ms on a quiet machine),
    with no garbage collection inside it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _python_work()
        _lu_work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Context manager that times ``unit`` (the probe) every ``INTERVAL`` seconds.

    Only for the main thread of a process that uses ``SIGALRM`` for nothing
    else.  A native call that holds the thread (a long LAPACK routine, say)
    delays the next sample until it returns; missed ticks are not queued.
    """

    def __init__(self, unit=probe):
        self.unit = unit
        self.samples: list[float] = []
        self.spent = 0.0          # wall seconds spent in the handler
        self._previous = None

    def __enter__(self) -> "Sampler":
        self.samples = []
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(self.unit())
        self.spent += time.perf_counter() - t0
