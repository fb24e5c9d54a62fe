"""In-memory spans around the calls into lomarlab's layers.

The benchmark does not change the program. It replaces the names that
``lomarlab.harness`` looks up at call time (``local_train``, ``lomar_run``,
...) with wrappers that record one span per call, and restores them when the
experiment ends. A span is (name, start, end, parent): ``parent`` is the index
of the span that was open when the call began, or -1 for a root span. Start
and end are read from ``cpu_seconds``.
"""

from __future__ import annotations

import os
import resource
import time
from contextlib import contextmanager

# Entry points the benchmark times on every run, traced or not.
ENTRY_POINTS = {"initialize_state": "harness", "run_round": "harness"}

# Layer functions the traced run wraps, keyed by the name harness looks up,
# with the module that defines them.
LAYER_FUNCTIONS = {
    "synth_gaussian": "data",
    "partition": "data",
    "build_malicious_shards": "attacks",
    "boost_update": "attacks",
    "local_train": "models",
    "lomar_run": "lomar",
    "krum": "baselines",
    "coordinate_median": "baselines",
    "foolsgold": "baselines",
    "fg_krum": "baselines",
    "weighted_aggregate": "baselines",
    "fedavg": "baselines",
    "eval_accuracy": "metrics",
    "confusion_counts": "metrics",
    "roc_from_scores": "metrics",
}


def cpu_seconds() -> float:
    """User plus system CPU time of this process and of the children it has waited for.

    Every span is timed on this clock, not on the wall clock. On a shared
    two-core host, wall time also counts the time the program waits for a
    core: behind other processes, or while the hypervisor runs another guest
    (steal time, which Linux with paravirtual time accounting keeps out of
    task CPU time). CPU time drops that wait and still counts every thread.
    Work in a child process counts once the child has been waited for;
    ``live_children`` catches a child left running.
    """
    ended = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + ended.ru_utime + ended.ru_stime


def live_children() -> list[str]:
    """Process ids of this process's children that are still running or unreaped."""
    pids: list[str] = []
    for tid in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{tid}/children", encoding="ascii") as fh:
                pids += fh.read().split()
        except FileNotFoundError:  # the thread ended while we listed
            pass
    return pids


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.floor_hits = 0
        self._open: list[int] = []

    def _begin(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._open[-1] if self._open else -1])
        self._open.append(index)
        self.spans[index][1] = cpu_seconds()
        return index

    def _end(self, index: int):
        self.spans[index][2] = cpu_seconds()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        index = self._begin(name)
        try:
            yield
        finally:
            self._end(index)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            index = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(index)
            # LomarResult carries the number of densities clamped at the floor.
            self.floor_hits += getattr(result, "floor_hits", 0)
            return result
        return traced

    @contextmanager
    def patched(self, module, table: dict[str, str]):
        """Wrap every name of table that module defines; yield the absent ones.

        A name that no longer exists (after a refactor) is reported as
        absent instead of failing the run.
        """
        present = {n: getattr(module, n) for n in table if hasattr(module, n)}
        try:
            for n, fn in present.items():
                setattr(module, n, self.wrap(f"{table[n]}.{n}", fn))
            yield sorted(set(table) - set(present))
        finally:
            for n, fn in present.items():
                setattr(module, n, fn)

    def children(self) -> list[list[int]]:
        kids: list[list[int]] = [[] for _ in self.spans]
        for i, span in enumerate(self.spans):
            if span[3] >= 0:
                kids[span[3]].append(i)
        return kids

    def duration(self, index: int) -> float:
        return self.spans[index][2] - self.spans[index][1]

    def self_time(self, index: int, kids: list[list[int]]) -> float:
        """Duration minus the time covered by its children (calls never overlap)."""
        return self.duration(index) - sum(self.duration(k) for k in kids[index])

    def breakdown(self, index: int, kids: list[list[int]]) -> dict[str, float]:
        """Self time of every span below index, summed by name, plus its own self time."""
        out: dict[str, float] = {}
        stack = list(kids[index])
        while stack:
            k = stack.pop()
            out[self.spans[k][0]] = out.get(self.spans[k][0], 0.0) + self.self_time(k, kids)
            stack.extend(kids[k])
        out["self"] = self.self_time(index, kids)
        return out

    def write_csv(self, fh, experiment: int):
        for i, (name, start, end, parent) in enumerate(self.spans):
            fh.write(f"{experiment},{i},{parent},{name},{start!r},{end!r}\n")
