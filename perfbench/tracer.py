"""Outside-in span tracer for the benchmark's traced runs.

Spans are opened by the benchmark around its own calls into pmlc and by
wrappers that replace public functions where the calling module binds them
(``pmlc.mpnn.fnn_eval`` and so on); nothing under ``src/`` changes.  A span
stores its name, start, end and parent span in compact arrays kept in
memory; they are written out once, when the run ends.  The self time of a
span is its duration minus the time its child spans cover (one thread, so
children never overlap).
"""

from __future__ import annotations

import importlib
from array import array
from time import perf_counter


class NullTracer:
    """Stand-in for untraced runs: opening and closing a span does nothing."""

    def open(self, name: str) -> int:
        return 0

    def close(self, idx: int) -> None:
        pass


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        """End span ``idx``, and any span inside it left open by an exception."""
        now = perf_counter()
        while True:
            top = self._stack.pop()
            self.end[top] = now
            if top == idx:
                return

    # -- wrapping public functions where their callers bind them

    def wrap(self, target: str, span: str) -> None:
        """Replace ``module.attr`` (as ``"module:attr"``) by a spanning wrapper.

        A name that no longer exists is recorded in ``missing`` instead of
        failing the run, so its metrics can be reported as missing.
        """
        module_name, attr = target.split(":")
        module = importlib.import_module(module_name)
        orig = getattr(module, attr, None)
        if orig is None:
            if target not in self.missing:
                self.missing.append(target)
            return
        nid = self._id(span)
        names, parents, starts, ends, stack = (
            self.name, self.parent, self.start, self.end, self._stack
        )

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                return orig(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()

        setattr(module, attr, wrapper)
        self._restore.append((module, attr, orig))

    def unwrap_all(self) -> None:
        for module, attr, orig in reversed(self._restore):
            setattr(module, attr, orig)
        self._restore.clear()

    # -- reading spans back

    def totals(self, lo: int, hi: int) -> dict[str, tuple[int, float, float]]:
        """Per span name over spans ``lo..hi-1``: (calls, total s, self s)."""
        child = [0.0] * (hi - lo)
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= lo:
                child[p - lo] += self.end[i] - self.start[i]
        out: dict[str, list] = {}
        for i in range(lo, hi):
            dur = self.end[i] - self.start[i]
            acc = out.setdefault(self.names[self.name[i]], [0, 0.0, 0.0])
            acc[0] += 1
            acc[1] += dur
            acc[2] += dur - child[i - lo]
        return {k: tuple(v) for k, v in out.items()}

    def write(self, path) -> None:
        """Write every span as ``id parent root name start_ns end_ns``;
        ``root`` is the outermost span (one operation or set-up step)."""
        root = array("q", bytes(8 * len(self.start)))
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\troot\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.start)):
                p = self.parent[i]
                root[i] = i if p < 0 else root[p]
                fh.write(
                    f"{i}\t{p}\t{root[i]}\t{self.names[self.name[i]]}\t"
                    f"{round((self.start[i] - t0) * 1e9)}\t"
                    f"{round((self.end[i] - t0) * 1e9)}\n"
                )
