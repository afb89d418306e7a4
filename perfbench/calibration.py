"""Reference-speed calibration for timings on a shared machine.

On a host shared with other tenants the CPU speed a process gets
drifts by tens of percent within seconds, and wall time drifts with
it.  A fixed pure-Python loop owned by the benchmark (JSON decode and a
walk over the decoded document, with the garbage collector off so the
program's heap does not leak into it) is timed between operations.
Each operation's wall time is rescaled by ``REFERENCE_S`` over the mean
of the calibration samples on either side of it: the time the operation
would take on a machine that runs the loop in ``REFERENCE_S``.  The
package never runs inside the loop, so a change to the package moves
the rescaled time as much as the wall time.
"""

import gc
import json
import statistics
import time

#: Calibration loop time of the reference machine, seconds.
REFERENCE_S = 0.0025

#: Take a sample only when this much time has passed since the last.
SAMPLE_EVERY_S = 0.1

_REPS = 12
_DOC = {
    "run_id": "calibration",
    "values": [i * 1.25 for i in range(40)],
    "layers": [{f"k{j}": f"v{i}-{j}" for j in range(6)} for i in range(9)],
    "nested": {"a": {"b": {"c": list(range(30))}},
               "d": [{"x": i, "y": str(i)} for i in range(20)]},
}
_TEXT = json.dumps(_DOC, indent=2)


def _walk(value) -> int:
    if isinstance(value, dict):
        return sum(_walk(v) for v in sorted(value.values(), key=repr))
    if isinstance(value, list):
        return sum(_walk(v) for v in value)
    return len(value) if isinstance(value, str) else 1


def loop_seconds() -> float:
    """Wall time of one run of the calibration loop."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(_REPS):
            _walk(json.loads(_TEXT))
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Calibrator:
    """Calibration samples taken between operations, in order."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = -float("inf")

    def mark(self, force: bool = False, loops: int = 3) -> int:
        """Sample if due (or forced) and return the index of the latest
        sample, which precedes whatever runs next.  A sample is the
        median of ``loops`` runs of the loop, so one preempted run does
        not skew it."""
        if force or time.perf_counter() - self._last >= SAMPLE_EVERY_S:
            self.samples.append(statistics.median(
                loop_seconds() for _ in range(loops)))
            self._last = time.perf_counter()
        return len(self.samples) - 1

    def scale(self, before: int) -> float:
        """Factor from wall time to reference time for an operation
        that ran between sample ``before`` and the next one."""
        return REFERENCE_S / ((self.samples[before] + self.samples[before + 1]) / 2)
