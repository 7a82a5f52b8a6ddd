"""The host's speed, sampled while the benchmark runs, and reference seconds.

The speed of a shared host drifts: on the two-core machine this benchmark
was tuned on (Intel Xeon, 2 vCPUs), the same 50-candidate objective batch
took from 0.63 to 1.5 times its median within one 5-minute process, in
spells of a second to minutes, in CPU time as much as in wall time (so not
as time stolen by other virtual machines). Wall times of one run then
disagree with those of the next by more than any bound allows.

So while a round runs, a SIGALRM handler in the measuring thread times a
fixed kernel of about 1 ms every INTERVAL_S of wall time. The kernel mixes
interpreter arithmetic with small numpy operations, as the simulators of
cdmlfc do, and uses nothing from cdmlfc, so no change to the program can
move it. Each span is then charged its own time less the sampler's time
inside it, scaled by REF_S over the median kernel time sampled during it:
a reference second is a second of that machine when the kernel takes REF_S.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05
ITERATIONS = 400
REF_S = 0.0010  # the kernel's median time on the machine named above
NEIGHBOURS = 2  # samples either side of a span that also count for it

_X = np.arange(64.0)


def kernel_s() -> float:
    """Time of one run of the kernel."""
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(ITERATIONS):
        y = _X * 1.0001 + 0.5
        acc += float(y[i & 63]) * 1e-9 + i * 0.5
    return time.perf_counter() - t0


class Sampler:
    """While active (`with sampler:`), times the kernel every INTERVAL_S.
    One thread only: the handler runs in the main thread between bytecodes."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, kernel time)
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        # one append, so that a handler nested in this one cannot split a pair
        self.samples.append((t0, kernel_s()))

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def annotate(self, spans: list[dict]) -> None:
        """Set each span's "sampler_s", the sampler's time inside it, and
        "scale", reference seconds per second during it."""
        self.samples.sort()
        starts = [t for t, _ in self.samples]
        times = [d for _, d in self.samples]
        for span in spans:
            lo = bisect.bisect_left(starts, span["start"])
            hi = bisect.bisect_left(starts, span["end"])
            span["sampler_s"] = sum(times[lo:hi])
            near = times[max(0, lo - NEIGHBOURS) : hi + NEIGHBOURS]
            span["scale"] = REF_S / statistics.median(near)


def net_s(span: dict, scaled: bool = False) -> float:
    """A span's own time: wall seconds without the sampler's, or reference
    seconds if `scaled`."""
    own = span["end"] - span["start"] - span["sampler_s"]
    return own * span["scale"] if scaled else own
