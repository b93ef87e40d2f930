"""Span recording for the traced benchmark run.

Every function named in a gedpower submodule's ``__all__`` is replaced, in
each loaded ``gedpower`` namespace that binds it, by a wrapper that records
one span per call: name, start, end, parent span and trace id.  Calls made
inside the library go through module globals, so they are recorded too,
including recursion (``log_gamma`` calling itself).  Classes and exceptions
are left alone: wrapping them would break ``isinstance`` and ``except``.

Spans stay in memory as parallel arrays and are written out when the run
ends.  Self time is a span's duration minus the time its child spans cover;
the code is single-threaded, so the children of one span never overlap and
that cover is the sum of their durations.
"""

import functools
import inspect
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = ("specfun", "ged", "norming", "orderstats", "expansions",
          "harness", "cli")


class Recorder:
    """In-memory span store; span ids are indices into the arrays."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.trace = array("l")
        self.start = array("d")
        self.end = array("d")
        # per function name, one key per call (see ``install``)
        self.keys: dict[str, list] = {}
        self.current = -1
        self.trace_id = -1
        self._traces = 0

    def intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        sid = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.current)
        self.trace.append(self.trace_id)
        self.end.append(0.0)
        self.current = sid
        self.start.append(perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self.current = self.parent[sid]

    @contextmanager
    def root(self, name: str):
        """A top-level span with a fresh trace id: one sweep or one query."""
        self.trace_id = self._traces
        self._traces += 1
        sid = self.open(self.intern(name))
        try:
            yield
        finally:
            self.close(sid)
            self.trace_id = -1

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int_).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int_).copy(),
            "trace": np.frombuffer(self.trace, dtype=np.int_).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def _wrap(fn, rec: Recorder, name: str, key):
    nid = rec.intern(name)
    keys = rec.keys.setdefault(name, []) if key else None

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if keys is not None:
            keys.append(key(*args, **kwargs))
        sid = rec.open(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(sid)
    return traced


def _namespaces():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "gedpower"
                                    or name.startswith("gedpower."))]


def install(rec: Recorder, keys=None) -> list:
    """Wrap the public functions of every loaded gedpower submodule.

    ``keys`` maps a span name such as ``"norming.solve_bn"`` to a function
    of the call's arguments; its value is appended to ``rec.keys[name]`` on
    every call.  Returns the replaced bindings for :func:`uninstall`.
    """
    keys = keys or {}
    wrappers = {}
    for layer in LAYERS:
        mod = sys.modules.get(f"gedpower.{layer}")
        for attr in getattr(mod, "__all__", ()):
            fn = getattr(mod, attr)
            if inspect.isfunction(fn) and id(fn) not in wrappers:
                name = f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"
                wrappers[id(fn)] = (fn, _wrap(fn, rec, name, keys.get(name)))
    replaced = []
    for mod in _namespaces():
        for attr, value in list(vars(mod).items()):
            pair = wrappers.get(id(value))
            if pair is not None and pair[0] is value:
                setattr(mod, attr, pair[1])
                replaced.append((mod, attr, value))
    return replaced


def uninstall(replaced: list) -> None:
    for mod, attr, value in reversed(replaced):
        setattr(mod, attr, value)


@contextmanager
def tracing(rec: Recorder, keys=None):
    replaced = install(rec, keys)
    try:
        yield rec
    finally:
        uninstall(replaced)


def self_times(parent: np.ndarray, start: np.ndarray,
               end: np.ndarray) -> np.ndarray:
    """Duration of each span minus the durations of its direct children."""
    dur = end - start
    covered = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    return dur - covered


def summarize(rec: Recorder) -> dict:
    """Per span name: call count, total and self seconds, durations.

    Returns ``{"by_name": {name: {...}}, "self_s": {layer: seconds}}``.
    """
    a = rec.arrays()
    own = self_times(a["parent"], a["start"], a["end"])
    dur = a["end"] - a["start"]
    by_name = {}
    for nid, name in enumerate(rec.names):
        mask = a["name_id"] == nid
        by_name[name] = {
            "calls": int(mask.sum()),
            "total_s": float(dur[mask].sum()),
            "self_s": float(own[mask].sum()),
            "durations": dur[mask],
        }
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, stats in by_name.items():
        layer = name.partition(".")[0]
        if layer in layer_self:
            layer_self[layer] += stats["self_s"]
    return {"by_name": by_name, "self_s": layer_self}
