"""Outside-in span tracer for the sqss benchmark.

The tracer never edits the package: it replaces functions and methods where
their callers look them up (module globals such as ``protocol_a.measure``,
class attributes such as ``CompositeState.__post_init__``) with wrappers that
record one span per call, and puts every original back on exit.

Each span is kept in memory as (name, start, end, parent, trial) in compact
arrays and written out by ``save``.  Per-name call counts and self time
(duration minus the time direct child spans cover) are aggregated as spans
close, so reading the totals costs nothing extra.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict

import numpy as np


class Tracer:
    """Records spans around patched callables; use as a context manager.

    ``aliases`` maps (child span, parent span) name pairs to an alias under
    which such child spans are also counted, with their whole duration.
    """

    def __init__(self, aliases=None):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name_id = array("i")
        self.parent = array("i")
        self.trial_of = array("i")
        self.trial = -1
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.alias_calls: dict[str, int] = defaultdict(int)
        self.alias_wall: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [span index, name id, child seconds]
        self._patches: list[tuple[object, str, object]] = []
        self._alias_of = {(self.span_id(child), self.span_id(parent)): alias
                          for (child, parent), alias in (aliases or {}).items()}

    # -- span bookkeeping ---------------------------------------------------

    def span_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return nid

    def wrap(self, name, fn, count=None):
        """Wrap ``fn`` so each call records a span.

        ``name`` is a span name or a function of the call's arguments that
        returns one.  ``count(args, result)`` returns ``(counter, amount)``
        to add after the span closes; its own cost is kept out of every
        span's self time.
        """
        perf = time.perf_counter
        stack = self._stack
        start, end, name_id = self.start, self.end, self.name_id
        parent, trial_of = self.parent, self.trial_of
        calls, self_s, alias_of = self.calls, self.self_s, self._alias_of
        fixed = self.span_id(name) if isinstance(name, str) else None

        def traced(*args, **kwargs):
            nid = fixed if fixed is not None else self.span_id(name(args))
            idx = len(start)
            start.append(0.0)
            end.append(0.0)
            name_id.append(nid)
            parent.append(stack[-1][0] if stack else -1)
            trial_of.append(self.trial)
            frame = [idx, nid, 0.0]
            stack.append(frame)
            ok = False
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = perf()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
                dur = t1 - t0
                calls[nid] += 1
                self_s[nid] += dur - frame[2]
                if stack:
                    up = stack[-1]
                    up[2] += dur
                    alias = alias_of.get((nid, up[1]))
                    if alias is not None:
                        self.alias_calls[alias] += 1
                        self.alias_wall[alias] += dur
                if count is not None and ok:
                    c0 = perf()
                    key, amount = count(args, result)
                    self.counts[key] += amount
                    if stack:
                        stack[-1][2] += perf() - c0

        traced.__wrapped__ = fn
        return traced

    # -- patching -----------------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` to ``replacement``, remembering the original."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def patch_function(self, modules, original, name, count=None) -> None:
        """Replace every module-level binding of ``original`` in ``modules``."""
        wrapped = self.wrap(name, original, count)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.patch(module, attr, wrapped)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- results ------------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self.start)

    def totals(self) -> dict[str, tuple[int, float]]:
        return {name: (self.calls[i], self.self_s[i]) for i, name in enumerate(self.names)}

    def save(self, path) -> None:
        """Write every span to ``path`` as a NumPy archive."""
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.name_id, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 trial=np.frombuffer(self.trial_of, dtype=np.int32))


def snapshot(owners) -> dict:
    """Identity of every attribute of ``owners``, for checking a restore."""
    return {(id(o), attr): id(value) for o in owners for attr, value in vars(o).items()}
