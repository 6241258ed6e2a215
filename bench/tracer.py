"""Binding-level tracer for pulseloop's public functions.

The tracer replaces a function at every name it is bound to across the
loaded ``pulseloop`` modules (``pulseloop.sysid.estimate_kernel``,
``pulseloop.loop.estimate_kernel``, ``pulseloop.cli.estimate_kernel``,
...), and a method on its class, with a wrapper that records a span:
name, start, end and the enclosing span. The wrappers are attached only
inside ``recording()``, once per case; spans stay in memory and
``summarize`` turns them into per-name totals. Nothing inside ``src/``
changes.

A target that no longer exists is skipped with a note, so the benchmark
keeps running after a refactor removes or renames a function.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time


class Span:
    """One traced call; ``info`` holds what the target's hook extracted."""

    __slots__ = ("name", "parent", "start", "end", "info")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.info = None


class Tracer:
    """Wrappers for pulseloop functions, attached only while recording."""

    def __init__(self, targets):
        """Resolve each ``(span name, module, qualname, hook)`` target.

        ``hook`` is None or a function of the target's return value whose
        result is stored on the span. Several targets may share one span
        name (for example every ``fileio.read_*`` function).
        """
        self.spans: list[Span] = []
        self.notes: list[str] = []
        self.installed: set[str] = set()
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object, object]] = []
        for name, modname, qualname, hook in targets:
            orig, owner = _resolve(modname, qualname)
            if orig is None:
                self.notes.append(f"{modname}.{qualname} not found; "
                                  f"metrics from span {name!r} omitted")
                continue
            wrapper = self._wrap(name, orig, hook)
            for holder, attr in _bindings(orig, owner, qualname):
                self._patches.append((holder, attr, orig, wrapper))
            self.installed.add(name)

    @contextlib.contextmanager
    def recording(self):
        """Attach the wrappers for this block; yields the span list."""
        self.spans = []
        self._stack = []
        for holder, attr, _, wrapper in self._patches:
            setattr(holder, attr, wrapper)
        try:
            yield self.spans
        finally:
            for holder, attr, orig, _ in reversed(self._patches):
                setattr(holder, attr, orig)

    def _wrap(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, tracer._stack[-1] if tracer._stack else None)
            tracer.spans.append(span)
            tracer._stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if hook is not None:
                try:
                    span.info = hook(result)
                except (AttributeError, TypeError) as exc:
                    note = f"{name}: hook failed on its result ({exc})"
                    if note not in tracer.notes:
                        tracer.notes.append(note)
            return result

        return traced


def _resolve(modname, qualname):
    """Return (object, owner) for ``modname.qualname`` or (None, None)."""
    obj = sys.modules.get(modname)
    owner = None
    for part in qualname.split("."):
        if obj is None:
            return None, None
        owner, obj = obj, getattr(obj, part, None)
    return (obj, owner) if callable(obj) else (None, None)


def _bindings(orig, owner, qualname):
    """Every (holder, attribute) through which ``orig`` is reached."""
    found = []
    if "." in qualname:  # a method: its class is the one binding
        found.append((owner, qualname.rsplit(".", 1)[1]))
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "pulseloop"
                               or modname.startswith("pulseloop.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                found.append((mod, attr))
    return found


def summarize(spans):
    """Per span name: calls, inclusive and self seconds, and hook infos.

    Inclusive time counts only spans not nested inside a span of the same
    name, so a reader that calls another reader is not counted twice.
    Self time is a span's duration minus that of its direct children.
    """
    child_time: dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            key = id(span.parent)
            child_time[key] = child_time.get(key, 0.0) + span.end - span.start
    out: dict[str, dict] = {}
    for span in spans:
        row = out.setdefault(span.name, {"calls": 0, "incl_s": 0.0,
                                         "self_s": 0.0, "infos": []})
        duration = span.end - span.start
        row["calls"] += 1
        row["self_s"] += duration - child_time.get(id(span), 0.0)
        if span.info is not None:
            row["infos"].append(span.info)
        ancestor = span.parent
        while ancestor is not None and ancestor.name != span.name:
            ancestor = ancestor.parent
        if ancestor is None:
            row["incl_s"] += duration
    return out
