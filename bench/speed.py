"""Machine speed, sampled inside a timed pass.

The benchmark runs on a few cores of a shared host, whose speed changes by a
third or more from second to second and from minute to minute as other
tenants load it. CPU time alone then measures the host as much as the
program. So every timed pass runs a fixed reference slice on a CPU-time timer
(SIGPROF), in its own process, between the program's bytecodes: the slices
see the same core, caches and clock as the program around them. The pass's
CPU time at reference speed is

    (CPU time - time in slices) * NOMINAL_S / (mean time of one slice)

that is, the program's own CPU time on a machine where one slice takes
NOMINAL_S. The slice is written here, without the package, so that no change
to the program changes it.
"""

from __future__ import annotations

import gc
import signal
import time

# Nominal CPU time of one slice: about its time on an unloaded 2-vCPU VM.
NOMINAL_S = 0.001
# CPU time of the process between two slices.
INTERVAL_S = 0.02
DEGREE = 243
ROUNDS = 14
SMALL_ROUNDS = 2500


# State of the slice, made once: a slice allocates nothing that outlives a
# statement, so that sampling moves neither the pass's peak memory nor its
# garbage collections. Points stay below 256, whose ints are shared.
_P = [(7 * i + 3) % DEGREE for i in range(DEGREE)]
_Q = list(range(DEGREE))
_INVERSE = [0] * DEGREE
_INDEX = {i: DEGREE - 1 - i for i in range(DEGREE)}


class _Small:
    """A degree-3 permutation, multiplied into a preallocated result."""

    __slots__ = ("images",)

    def __init__(self, images: list[int]) -> None:
        self.images = images

    def mul_into(self, other: "_Small", out: "_Small") -> None:
        a, b, o = self.images, other.images, out.images
        o[0], o[1], o[2] = b[a[0]], b[a[1]], b[a[2]]


_GENERATORS = (_Small([1, 2, 0]), _Small([1, 0, 2]), _Small([0, 2, 1]))
_PRODUCTS = [_Small([0, 1, 2]), _Small([0, 1, 2])]


def reference_slice() -> float:
    """CPU time of a fixed piece of interpreter work of the kinds the
    verifier does: permutations of degree 243 composed, inverted and looked
    up, and many small degree-3 objects multiplied through method calls.
    Thread CPU time, because a process-wide CPU timer makes the process
    clock tick-granular. The collector is off, so that no collection of the
    program's heap is charged to the slice."""
    collecting = gc.isenabled()
    gc.disable()
    t0 = time.thread_time()
    p, q, inverse, index = _P, _Q, _INVERSE, _INDEX
    for _ in range(ROUNDS):
        for j in range(DEGREE):
            q[j] = p[q[j]]
        for j in range(DEGREE):
            inverse[q[j]] = j
        for j in range(DEGREE):
            q[j] = index[inverse[j]]
    x, y = _PRODUCTS
    for i in range(SMALL_ROUNDS):
        x.mul_into(_GENERATORS[i % 3], y)
        x, y = y, x
    elapsed = time.thread_time() - t0
    if collecting:
        gc.enable()
    return elapsed


class Sampler:
    """Runs one reference slice every INTERVAL_S of process CPU time."""

    def __init__(self) -> None:
        self.ref_s = 0.0
        self.slices = 0

    def _tick(self, signum, frame) -> None:
        self.ref_s += reference_slice()
        self.slices += 1

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)

    def report(self) -> dict:
        return {"ref_s": self.ref_s, "slices": self.slices}


def at_reference_speed(program_cpu_s: float, ref_s: float, slices: int) -> float:
    """The program's CPU seconds (slices excluded), scaled to NOMINAL_S per
    slice from `slices` slices that took `ref_s` in all."""
    if slices == 0:
        raise ValueError("no reference slice ran in the pass")
    return program_cpu_s * NOMINAL_S * slices / ref_s
