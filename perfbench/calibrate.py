"""Machine-speed calibration for the timed metrics.

The shared 2-core virtual machine this benchmark was defined on changes
speed by tens of percent over minutes, in both wall and CPU time.  A
fixed kernel that does not touch sbgam is timed between the units of a
run; every timed metric is scaled by REF_S / (that time), so a run on a
slow minute and a run on a fast minute report nearly the same numbers,
while a change to sbgam moves them as it moves wall time.

The kernel mixes the kinds of work the workloads do: an interpreter
loop, many small numpy calls, a medium einsum and passes over a 2 MB
array.  It keeps its arrays small, adding about 3 MB to the worker's
peak resident set.  A calibration is the median of three passes, which
keeps one interrupted pass from skewing it.  REF_S is a pass's time on
the reference machine in a calm minute, so scaled seconds read as wall
seconds there.  Runs print the
raw wall times and the speed index REF_S / calibration alongside.
"""

import time

import numpy as np

# one pass on the reference machine in a calm minute (2-core VM,
# Intel Xeon at 2.0 GHz, Python 3.11.7, numpy 2.4.6, one BLAS thread)
REF_S = 0.025

_rng = np.random.default_rng(0)
_window = _rng.random((6, 6, 6))
_weights = _rng.random(6)
_block = _rng.random((50, 41, 41))
_offsets = _rng.random((50, 41))
_big = _rng.random(250_000)


def _kernel() -> float:
    s = 0.0
    for i in range(50_000):
        s += i * 0.5
    for _ in range(800):
        s += float(np.tensordot(_window, _weights, axes=([2], [0])).sum())
    for _ in range(130):
        s += float(np.einsum("ig,igh->gh", _offsets, _block)[0, 0])
    for _ in range(17):
        s += float(np.exp(_big).sum())
    return s


def calibration_s() -> float:
    """Median wall time of three passes of the calibration kernel."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return sorted(times)[1]


def warm_up() -> None:
    """Run the kernel untimed until first-call and allocator warm-up
    costs (the heap grows to hold the 2 MB temporaries) are paid."""
    for _ in range(4):
        _kernel()
