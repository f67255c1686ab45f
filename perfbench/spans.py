"""In-memory span recorder for the traced benchmark runs.

A span is (name, parent, start, end), with times from perf_counter_ns.
Spans are recorded by wrapping the module attribute a caller looks up, so
the program itself is never edited.  They sit in flat arrays rather than in
one object each, because a traced operation can open hundreds of thousands
of spans (about 2*10^6 for `divcensus verify --max-n 10000`).
"""

from array import array
from time import perf_counter_ns

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _recorder(self, name: str):
        """open(), close(i) pair for one span name, with lookups bound once."""
        nid = self._id(name)
        names, parents = self.name_id.append, self.parent.append
        starts, ends = self.start, self.end
        stack = self._stack
        clock = perf_counter_ns

        def open_() -> int:
            i = len(starts)
            names(nid)
            parents(stack[-1])
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            return i

        def close(i: int) -> None:
            ends[i] = clock()
            stack.pop()

        return open_, close

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside one span."""
        open_, close = self._recorder(name)
        i = open_()
        try:
            return fn(*args, **kwargs)
        finally:
            close(i)

    def wrap(self, owner, attr: str, name: str, note=None) -> None:
        """Replace owner.attr by a version that records a span per call.

        note(args, kwargs, result), when given, runs after the span closes;
        it is how callers capture arguments and results for work counts.
        An attribute the program no longer has is skipped, so the layer
        simply reads zero on a commit that renamed or removed it.
        """
        fn = getattr(owner, attr, None)
        if fn is None:
            return
        open_, close = self._recorder(name)

        if note is None:
            # The hot path: open_ and close inlined, one Python frame per call.
            nid = self._id(name)
            names, parents = self.name_id.append, self.parent.append
            starts, ends = self.start, self.end
            push, pop = self._stack.append, self._stack.pop
            stack = self._stack
            clock = perf_counter_ns

            def traced(*args, **kwargs):
                i = len(starts)
                names(nid)
                parents(stack[-1])
                ends.append(0)
                push(i)
                starts.append(clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    ends[i] = clock()
                    pop()
        else:
            def traced(*args, **kwargs):
                i = open_()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    close(i)
                note(args, kwargs, result)
                return result

        self._restore.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def wrap_generator(self, owner, attr: str, name: str) -> None:
        """Like wrap, for a generator function: one span per resumption."""
        fn = getattr(owner, attr, None)
        if fn is None:
            return
        open_, close = self._recorder(name)

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                i = open_()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    close(i)
                yield item

        self._restore.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def unwrap(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children, so summing self time over every name gives the root's
        duration exactly once.
        """
        n = len(self.start)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        own = dur - child
        names = np.frombuffer(self.name_id, dtype=np.int32)
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        self_ns = np.bincount(names, weights=own, minlength=k)
        return {
            name: {
                "calls": int(calls[j]),
                "total_s": float(total[j]) / 1e9,
                "self_s": float(self_ns[j]) / 1e9,
            }
            for j, name in enumerate(self.names)
        }

    def save(self, path) -> None:
        """Write every span to an .npz file: names plus four parallel arrays."""
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
        )
