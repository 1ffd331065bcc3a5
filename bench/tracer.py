"""In-memory span tracer for the levylab benchmark.

A span is ``[name, start, end, parent, tag]``: ``name`` is ``"<module>.<function>"``
for calls into levylab and ``"bench.<phase>"`` for the benchmark's own phases,
``parent`` is the index of the enclosing span (-1 at the root) and ``tag`` holds
what a hook recorded about the call.  Spans stay in memory until the run ends.

The tracer patches module attributes, so it has to be installed on the names
the callers look up (``levylab.rp.sample_point_values``, not only
``levylab.sampler.sample_point_values``).  ``restore`` puts every original
back; untraced rounds run with nothing patched.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list = []
        self._patches: list = []

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None])
        self._stack.append(idx)
        return idx

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        self.spans[idx][1] = perf_counter()
        try:
            yield idx
        finally:
            self.spans[idx][2] = perf_counter()
            self._stack.pop()

    def wrapped(self, name: str, fn, hook=None, probe=None):
        """Return ``fn`` recording a span per call.

        ``probe()`` is read before and after the call and the difference is
        stored as the span's tag; ``hook(args, kwargs, result)`` runs after the
        call and its return value, when not None, replaces the tag.
        """
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            before = probe() if probe else None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._stack.pop()
                rec = self.spans[idx]
                rec[1], rec[2] = t0, t1
            if probe:
                rec[4] = probe() - before
            if hook:
                tag = hook(args, kwargs, result)
                if tag is not None:
                    rec[4] = tag
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, key: str, fn, nbytes, within: str):
        """Return ``fn`` counting calls and ``nbytes(args, result)`` bytes, no span.

        Only calls made while a span named ``within`` is open are counted.
        """
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if any(self.spans[i][0] == within for i in self._stack):
                self.counts[key] += 1
                self.counts[key + "_bytes"] += nbytes(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching --------------------------------------------------------

    def patch(self, module, attr: str, replacement) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # -- analysis --------------------------------------------------------

    def children_of(self, roots) -> list[int]:
        """Indices of every span below one of the root span indices."""
        inside = set(roots)
        out = []
        for i, s in enumerate(self.spans):
            if s[3] in inside:
                inside.add(i)
                out.append(i)
        return out

    def self_times(self, indices, key=lambda name: name.split(".", 1)[0]) -> dict:
        """Self time per ``key(span name)`` over ``indices``; by default per layer,
        the part of the name before the first dot.

        A span's self time is its duration minus the durations of its direct
        children; children of one span never overlap, because calls nest.
        """
        child_time = defaultdict(float)
        for i in indices:
            s = self.spans[i]
            if s[3] >= 0:
                child_time[s[3]] += s[2] - s[1]
        out = defaultdict(float)
        for i in indices:
            s = self.spans[i]
            out[key(s[0])] += (s[2] - s[1]) - child_time[i]
        return dict(out)

    def durations(self, name: str, indices, parent: str | None = None, where=None):
        """Durations of the spans called ``name`` among ``indices``.

        ``parent`` keeps only spans whose direct parent has that name;
        ``where(tag)`` keeps only spans whose tag passes.
        """
        out = []
        for i in indices:
            s = self.spans[i]
            if s[0] != name:
                continue
            if parent is not None and (s[3] < 0 or self.spans[s[3]][0] != parent):
                continue
            if where is not None and not where(s[4]):
                continue
            out.append((s[2] - s[1], s[4]))
        return out
