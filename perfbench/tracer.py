"""Span tracer for the oplimits package layers.

While installed, every public function of the layer modules is replaced by a
wrapper that records one span per call: name, start, end, parent span and
pass id.  The runners bind names with ``from .x import y`` and the harness
keeps its runners in a dispatch table, so a wrapper replaces the original in
every ``oplimits.*`` namespace that binds it and in every module-level dict
that holds it.  Spans stay in memory; the caller writes them out once.
"""

import contextlib
import inspect
import sys
import threading
import time

PACKAGE = "oplimits"
LAYERS = ("operators", "funcspace", "generator", "iterates", "diffusion",
          "mc", "harness", "cli")


class Span:
    """One call of a wrapped function; ``parent`` indexes ``Tracer.spans``."""

    __slots__ = ("name", "parent", "pass_id", "start", "end", "note")

    def __init__(self, name, parent, pass_id):
        self.name = name
        self.parent = parent
        self.pass_id = pass_id
        self.start = self.end = None
        self.note = None

    def as_dict(self):
        return {slot: getattr(self, slot) for slot in self.__slots__}


class Tracer:
    """Collects spans; ``notes`` maps a span name to ``note(args, kwargs, result)``.

    A note records the sizes a per-layer metric needs.  It runs after the
    span has ended, so its cost is not charged to the traced function.
    """

    def __init__(self, pass_id=0, notes=None, clock=time.perf_counter):
        self.pass_id = pass_id
        self.notes = notes or {}
        self.clock = clock
        self.spans = []
        self._local = threading.local()
        self._root_stack = self._stack()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        # A worker thread's first span belongs to the span open on the
        # thread that created the tracer.
        try:
            return self._root_stack[-1]
        except IndexError:
            return None

    def call(self, name, fn, args, kwargs):
        stack = self._stack()
        span = Span(name, self._parent(stack), self.pass_id)
        stack.append(len(self.spans))
        self.spans.append(span)
        span.start = self.clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = self.clock()
            stack.pop()
        note = self.notes.get(name)
        if note is not None:
            span.note = note(args, kwargs, result)
        return result


def _wrap(tracer, name, fn):
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)

    wrapper.__name__ = fn.__name__
    wrapper.__qualname__ = fn.__qualname__
    wrapper.__doc__ = fn.__doc__
    wrapper.__wrapped__ = fn
    return wrapper


def _package_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def public_functions(layer):
    """Public functions defined (not merely imported) in one layer module."""
    mod = sys.modules[f"{PACKAGE}.{layer}"]
    return {attr: fn for attr, fn in vars(mod).items()
            if not attr.startswith("_") and inspect.isfunction(fn)
            and fn.__module__ == mod.__name__}


@contextlib.contextmanager
def installed(tracer):
    """Wrap every public layer function for the duration of the block.

    Every binding is restored on exit, including after an exception.
    """
    for layer in LAYERS:
        __import__(f"{PACKAGE}.{layer}")
    wrappers = {}
    for layer in LAYERS:
        for attr, fn in public_functions(layer).items():
            wrappers[fn] = _wrap(tracer, f"{layer}.{attr}", fn)

    undo = []
    for mod in _package_modules():
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in wrappers:
                undo.append((vars(mod), attr, value))
                setattr(mod, attr, wrappers[value])
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if inspect.isfunction(item) and item in wrappers:
                        undo.append((value, key, item))
                        value[key] = wrappers[item]
    try:
        yield tracer
    finally:
        for table, key, original in reversed(undo):
            table[key] = original


def self_times(spans):
    """Per span: its duration minus the part of it that child spans cover.

    Children that overlap each other (spans from several threads) are
    merged first, so covered time is never counted twice.
    """
    children = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = []
    for span, kids in zip(spans, children):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(kids):
            lo, hi = max(lo, span.start), min(hi, span.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((span.end - span.start) - covered)
    return out
