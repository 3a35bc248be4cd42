"""Host-speed calibration of perfbench's CPU timings.

On a shared virtual machine the work one CPU second buys moves with
what the other guests do: on the 2-vCPU host this benchmark was built
on, the CPU time of one and the same session build moved between 0.5 s
and 1.1 s within minutes.  A fixed pure-Python kernel, run in the same
process right before and after the timed work, slows down with it:
the ratio of build time to kernel time spread 0.07 of its median over
a run where the build time alone spread 0.20.

So the bounded CPU timings are reported at *reference speed*: measured
CPU seconds times ``REFERENCE_S`` over the kernel's measured CPU time,
i.e. the time the work would take on a host where one kernel run takes
``REFERENCE_S``.  The kernel uses only the standard library (objects,
dicts, sets, tuples, sorting — the mix a chase is made of), so no
change to the program under test can move it.  Raw CPU times are
printed beside the scaled ones.
"""

from __future__ import annotations

import statistics
import time

#: CPU seconds of one kernel run on the reference host.
REFERENCE_S = 0.100

#: Kernel runs per calibration point.
RUNS = 3

_NODES = 120
_REPEATS = 15


class _Node:
    __slots__ = ("name", "edges")

    def __init__(self, name: str):
        self.name = name
        self.edges: dict[str, float] = {}


def kernel() -> int:
    """Fixed work: build a small graph, close it transitively, sort the
    pairs.  Returns the pair count (a constant) so the work is used."""
    pairs = 0
    for repeat in range(_REPEATS):
        nodes = [_Node(f"n{repeat}.{i}") for i in range(_NODES)]
        for i, node in enumerate(nodes):
            for step in (1, 7, 31):
                target = nodes[(i * step + 3) % _NODES]
                node.edges[target.name] = (i * step) % 97 / 97
        reach = {node.name: set(node.edges) for node in nodes}
        for _ in range(3):
            for targets in reach.values():
                extra: set[str] = set()
                for target in targets:
                    extra |= reach[target]
                targets |= extra
        pairs += len(sorted((a, b) for a, ts in reach.items() for b in ts))
    return pairs


def kernel_times(runs: int = RUNS) -> list[float]:
    """Thread CPU seconds of ``runs`` kernel runs."""
    times = []
    for _ in range(runs):
        started = time.thread_time()
        kernel()
        times.append(time.thread_time() - started)
    return times


def factor(times: list[float]) -> float:
    """The factor that scales CPU seconds measured beside ``times`` to
    reference speed."""
    return REFERENCE_S / statistics.median(times)
