"""A fixed reference computation that measures how fast the machine runs right now.

The CPU speed of a shared sandbox drifts by up to 2x in phases lasting
seconds, for the same work in the same process, and the phases of its two
CPUs differ.  The benchmark times this kernel right before an operation,
every ``PERIOD_S`` while it runs (from a SIGALRM handler, whose time is
taken out of the operation's; untraced runs only) and right after it, and
reports the operation's time rescaled to a machine on which one kernel run
takes ``NOMINAL_S``:

    reported = (measured - time in the handler) * NOMINAL_S / median(kernel times)

The kernel is interpreter work of the kind the package does (small objects,
hashing, dicts, sorting, big integers, string building), with the cyclic
garbage collector paused so that the program's heap cannot slow it down.
"""

import gc
import signal
import statistics
import time
from typing import Any, Callable

# One kernel run on the 2-core reference sandbox in its fast phase.
NOMINAL_S = 0.0004
PERIOD_S = 0.05


class _Key:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def __eq__(self, other):
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.a, self.b))


def _kernel() -> int:
    table = {}
    for i in range(200):
        key = _Key(i % 53, (i % 7, i % 11))
        table[key] = table.get(key, 0) + (i**3) * 1234567891011
    keys = sorted(table, key=lambda k: (k.a, k.b))
    size = len(",".join(str(table[k]) for k in keys))
    # a product of two Laurent polynomials stored as {exponent: coefficient}
    left = {e: (e + 3) ** 9 for e in range(24)}
    right = {e: (2 * e + 1) ** 7 for e in range(0, 48, 2)}
    product: dict = {}
    for e1, c1 in left.items():
        for e2, c2 in right.items():
            product[e1 + e2] = product.get(e1 + e2, 0) + c1 * c2
    return size + len(product)


def sample() -> float:
    """Seconds one kernel run takes now."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _kernel()
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def _samples(count: int) -> list[float]:
    return [sample() for _ in range(count)]


def timed(fn: Callable, *args, probe_inside: bool = True) -> tuple[Any, float, float]:
    """Run ``fn(*args)``; return its result, its rescaled time and the speed factor.

    The speed comes from the median of three kernel times before, one every
    ``PERIOD_S`` inside (with ``probe_inside``) and three after: the median
    drops a kernel run that the scheduler happened to interrupt.  A traced run
    passes ``probe_inside=False``, because a handler that ran inside the
    tracer's bookkeeping would see its span arrays half updated.
    """
    samples = _samples(3)
    spent = 0.0

    def on_alarm(_signum, _frame):
        nonlocal spent
        t0 = time.perf_counter()
        samples.append(sample())
        spent += time.perf_counter() - t0

    if probe_inside:
        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
    start = time.perf_counter()
    try:
        result = fn(*args)
    finally:
        elapsed = time.perf_counter() - start
        if probe_inside:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    samples += _samples(3)
    speed = NOMINAL_S / statistics.median(samples)
    return result, (elapsed - spent) * speed, speed
