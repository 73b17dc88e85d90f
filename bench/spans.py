"""In-memory span tracer that wraps plap's public functions from outside.

`Tracer.install()` replaces every public function of the plap layer
modules (mesh, functional, nehari, optimizer, verify) at each name a
caller looks it up under: the function `scale_to_manifold` is wrapped as
`plap.nehari.scale_to_manifold` *and* as `plap.optimizer.scale_to_manifold`,
because optimizer calls it through its own module namespace.  The
methods of `LaplacePreconditioner` are wrapped on the class.  The CLI
module is not wrapped: the benchmark opens one top-level span around
each `plap.cli.main` call, so the CLI's own work (argument and config
parsing, CSV reading and writing) is that span's self time.

Spans are kept in flat arrays (name id, parent index, start, end) and
aggregated when a traced operation ends; nothing is written while the
solver runs.  `uninstall()` restores every original binding.
"""

from __future__ import annotations

import array
import inspect
import sys
import time
from contextlib import contextmanager

import numpy as np

LAYER_MODULES = ("mesh", "functional", "nehari", "optimizer", "verify")
PRECONDITIONER = "LaplacePreconditioner"
KEEP_RESULTS = ("descend",)     # spans whose arguments and result are kept


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._saved: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Drop recorded spans; keep installed wrappers."""
        self.name_ids = array.array("i")
        self.parents = array.array("i")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.stack: list[int] = []
        self.results: dict[int, tuple] = {}      # span -> (args, kwargs, out)
        self.raised: dict[int, str] = {}         # span -> exception type name

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._id(name))
        try:
            yield idx
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, keep_result: bool = False):
        nid = self._id(name)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                tracer.raised[idx] = type(exc).__name__
                if keep_result:
                    tracer.results[idx] = (args, kwargs, exc)
                raise
            finally:
                tracer._close(idx)
            if keep_result:
                tracer.results[idx] = (args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer module at every
        plap namespace that binds them."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        namespaces = [mod for key, mod in sorted(sys.modules.items())
                      if key == "plap" or key.startswith("plap.")]
        wrappers = {}                            # original -> wrapper
        for layer in LAYER_MODULES:
            mod = sys.modules.get(f"plap.{layer}")
            if mod is None:
                continue
            for attr, fn in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    wrappers[fn] = self.wrap(attr, fn, attr in KEEP_RESULTS)
        for mod in namespaces:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])
            cls = vars(mod).get(PRECONDITIONER)
            if inspect.isclass(cls) and cls.__module__ == mod.__name__:
                for meth, fn in list(vars(cls).items()):
                    if inspect.isfunction(fn) and (
                            meth == "__init__" or not meth.startswith("_")):
                        self._saved.append((cls, meth, fn))
                        setattr(cls, meth,
                                self.wrap(f"{PRECONDITIONER}.{meth}", fn))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    def summary(self) -> "SpanSummary":
        if self.stack:
            raise RuntimeError("summary taken with open spans")
        return SpanSummary(self)


class SpanSummary:
    """Vectorized per-name aggregates of one recorded span forest."""

    def __init__(self, tracer: Tracer):
        self.names = list(tracer.names)
        self.name_ids = np.array(tracer.name_ids, dtype=np.int32)
        self.parents = np.array(tracer.parents, dtype=np.int32)
        self.starts = np.array(tracer.starts, dtype=np.float64)
        self.ends = np.array(tracer.ends, dtype=np.float64)
        self.dur = self.ends - self.starts
        n = len(self.dur)
        child = self.parents >= 0
        covered = np.bincount(self.parents[child], weights=self.dur[child],
                              minlength=n)
        self.self_time = self.dur - covered
        self.results = dict(tracer.results)
        self.raised = dict(tracer.raised)
        k = len(self.names)
        self.calls_by_id = np.bincount(self.name_ids, minlength=k)
        self.self_by_id = np.bincount(self.name_ids, weights=self.self_time,
                                      minlength=k)
        self.total_by_id = np.bincount(self.name_ids, weights=self.dur,
                                       minlength=k)

    def _nid(self, name: str) -> int:
        return self.names.index(name) if name in self.names else -1

    def calls(self, name: str) -> int:
        nid = self._nid(name)
        return int(self.calls_by_id[nid]) if nid >= 0 else 0

    def self_s(self, name: str) -> float:
        nid = self._nid(name)
        return float(self.self_by_id[nid]) if nid >= 0 else 0.0

    def total_s(self, name: str) -> float:
        nid = self._nid(name)
        return float(self.total_by_id[nid]) if nid >= 0 else 0.0

    def spans_of(self, name: str) -> np.ndarray:
        return np.flatnonzero(self.name_ids == self._nid(name))

    def raised_count(self, name: str, exc_name: str) -> int:
        nid = self._nid(name)
        return sum(1 for idx, exc in self.raised.items()
                   if exc == exc_name and self.name_ids[idx] == nid)

    def under(self, name: str, ancestor: str) -> int:
        """Number of `name` spans with an `ancestor` span above them."""
        aid, nid = self._nid(ancestor), self._nid(name)
        if aid < 0 or nid < 0:
            return 0
        inside = self.name_ids == aid
        has_parent = self.parents >= 0
        parent = np.where(has_parent, self.parents, 0)
        # each pass marks one more generation of descendants
        while True:
            nxt = inside | (has_parent & inside[parent])
            if np.array_equal(nxt, inside):
                break
            inside = nxt
        return int(np.count_nonzero(inside & (self.name_ids == nid)))

    def counts(self) -> dict[str, int]:
        """Exact call counts per span name, for repeat checks."""
        return {name: int(self.calls_by_id[i])
                for i, name in enumerate(self.names) if self.calls_by_id[i]}

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names),
                            name_ids=self.name_ids, parents=self.parents,
                            starts=self.starts, ends=self.ends)
