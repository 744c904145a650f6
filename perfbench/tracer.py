"""Span tracer that measures the radks layers from outside the package.

`Tracer.install()` wraps every public function of each radks module, and
the methods in `METHODS`, and rebinds the wrapper under every radks module
that holds the original by name.  Modules bind these names at import
(`from .helmholtz import solve`), so patching only the defining module
would miss most calls; a binding left out shows up as a zero count.

A span is `[name, parent, t0, t1, attr]`: `parent` is the index of the
enclosing span in the same process (-1 for a root), times come from
`time.perf_counter`, and `attr` holds what `ATTRS` extracts from the call
(or None).  Spans stay in memory; `dump` writes them once at the end.  A
forked worker exits without running atexit handlers, so after `forked`
the tracer appends each finished root span and its children to a
per-process file instead.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
import types

MODULES = (
    "grid",
    "helmholtz",
    "dynamics",
    "energy",
    "initial_data",
    "probes",
    "snapshots",
    "config",
    "cli",
    "sweep",
    "verify",
)

METHODS = {"snapshots": ("DiagnosticsWriter.write",)}

# Per-value helpers inside a layer, not layer boundaries: format_float runs
# once per number written (~360k calls in probe_study), so wrapping it
# would make tracing cost more than the writes and split their self time.
SKIP = {"snapshots.format_float"}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _step_attr(args, kwargs):
    # (dt taken, dt_max allowed): a factorization keyed on dt is reused
    # only while these agree
    return [_arg(args, kwargs, 0, "state").dt, _arg(args, kwargs, 1, "cfg").dt_max]


def _snapshot_attr(args, kwargs):
    return os.path.getsize(_arg(args, kwargs, 0, "path"))


ATTRS = {
    "dynamics.step": _step_attr,
    "snapshots.write_snapshot": _snapshot_attr,
}

# Callbacks a function receives from its caller get spans of their own, so
# their time is not counted as the receiver's self time:
# function -> (positional index, keyword, span name)
CALLBACKS = {"dynamics.run": (4, "sink", "dynamics.run.sink")}


def span_file(spans_dir) -> str:
    return os.path.join(spans_dir, f"spans-{os.getpid()}.jsonl")


class Tracer:
    """Records spans around the public radks functions of this process."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._saved: list = []
        self._sink = None
        self._flushed = 0

    def install(self) -> None:
        mods = {short: importlib.import_module(f"radks.{short}") for short in MODULES}
        bound = [m for name, m in sys.modules.items() if name == "radks" or name.startswith("radks.")]
        for short, mod in mods.items():
            public = [
                (name, obj)
                for name, obj in vars(mod).items()
                if not name.startswith("_")
                and isinstance(obj, types.FunctionType)
                and obj.__module__ == mod.__name__
                and f"{short}.{name}" not in SKIP
            ]
            for name, fn in public:
                traced = self._wrap(f"{short}.{name}", fn)
                for holder in bound:
                    if vars(holder).get(name) is fn:
                        self._saved.append((holder, name, fn))
                        setattr(holder, name, traced)
            for qualname in METHODS.get(short, ()):
                cls_name, meth = qualname.split(".")
                cls = getattr(mod, cls_name)
                fn = cls.__dict__[meth]
                self._saved.append((cls, meth, fn))
                setattr(cls, meth, self._wrap(f"{short}.{qualname}", fn))

    def uninstall(self) -> None:
        """Restore every binding `install` replaced."""
        for holder, name, fn in reversed(self._saved):
            setattr(holder, name, fn)
        self._saved.clear()

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        attr = ATTRS.get(name)
        callback = CALLBACKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if callback is not None:
                args, kwargs = self._wrap_callback(callback, args, kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[index] = [name, parent, t0, t1, attr(args, kwargs) if attr else None]
                if self._sink is not None and not stack:
                    self._flush()

        return traced

    def _wrap_callback(self, spec, args, kwargs):
        index, key, name = spec
        if len(args) > index and args[index] is not None:
            args = (*args[:index], self._wrap(name, args[index]), *args[index + 1:])
        elif kwargs.get(key) is not None:
            kwargs = {**kwargs, key: self._wrap(name, kwargs[key])}
        return args, kwargs

    def forked(self, spans_dir) -> None:
        """In a forked child: drop the parent's spans and stream to a file."""
        self.spans.clear()
        self._stack.clear()
        self._flushed = 0
        self._sink = open(span_file(spans_dir), "a")

    def _flush(self) -> None:
        for span in self.spans[self._flushed:]:
            self._sink.write(json.dumps(span) + "\n")
        self._flushed = len(self.spans)
        self._sink.flush()

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def load_spans(spans_dir) -> list[list]:
    """One span list per process file; parent indices are per file."""
    out = []
    for name in sorted(os.listdir(spans_dir)):
        if name.startswith("spans-") and name.endswith(".jsonl"):
            with open(os.path.join(spans_dir, name)) as handle:
                out.append([json.loads(line) for line in handle if line.strip()])
    return out
