"""Spans and counters recorded around the benchmark's own calls into the package.

Nothing here imports numpy at module level: the traced CLI child imports this
module before it times the cold `import convexotonic`.

A span is (id, name, label, split, start, end, parent, op, failed). Spans are
kept in memory and written out once, when the run ends. Counters hold plain
counts such as `factor.svd.calls` or `genericity.sv_probe.trials`.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager

# numpy.linalg entry points the package calls; counted as the `factor` layer
FACTOR_FUNCS = ("svd", "eigvalsh", "solve", "cond", "qr", "norm")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self.op: int | None = None
        self.label = ""
        self.split = ""

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self.current
        self._stack.append(sid)
        # placeholder keeps ids equal to list positions for nested spans
        self.spans.append(None)
        failed = False
        start = time.perf_counter()
        try:
            yield
        except BaseException:
            failed = True
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (
                sid, name, self.label, self.split, start, end, parent, self.op, failed
            )

    @property
    def current(self) -> int | None:
        """Id of the innermost open span."""
        return self._stack[-1] if self._stack else None

    @contextmanager
    def op_span(self, op: int, label: str, split: str):
        self.op, self.label, self.split = op, label, split
        try:
            with self.span("op"):
                yield
        finally:
            self.op = None

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def patch_factor(self):
        """Count outermost numpy.linalg calls; returns a function that undoes it.

        Calls made while another counted call is running (cond calling svd)
        are not counted again.
        """
        import numpy.linalg as la

        saved = {name: getattr(la, name) for name in FACTOR_FUNCS}
        depth = [0]

        def counting(name, fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if depth[0] == 0:
                    self.counts[f"factor.{name}.calls"] += 1
                depth[0] += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    depth[0] -= 1

            return counted

        for name, fn in saved.items():
            setattr(la, name, counting(name, fn))

        def restore():
            for name, fn in saved.items():
                setattr(la, name, fn)

        return restore

    def merge(self, spans, counts, parent: int | None) -> None:
        """Adopt spans and counts recorded by a child process under `parent`."""
        offset = len(self.spans)
        for sid, name, _label, _split, start, end, sparent, _op, failed in spans:
            self.spans.append(
                (
                    sid + offset,
                    name,
                    self.label,
                    self.split,
                    start,
                    end,
                    parent if sparent is None else sparent + offset,
                    self.op,
                    failed,
                )
            )
        self.counts.update(counts)


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread each, so children nest and do not overlap.
    """
    own = [end - start for _, _, _, _, start, end, _, _, _ in spans]
    for _, _, _, _, start, end, parent, _, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own
