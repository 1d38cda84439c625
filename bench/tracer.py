"""Spans around the calls into each tmmcavity module, from the outside.

`Tracer.install()` replaces every public function of the package (each
module's `__all__`, plus `cli.run`) at every module-level binding a caller
looks up, for example `tmmcavity.mim.solve_dynamic` and
`tmmcavity.dynamics.solve_static`, with a wrapper that records a span.  It
also wraps the five `VOMatrix` evaluation methods and
`VOMatrix.__matmul__`.  Private helpers and `KFunction` closures are left
alone: wrapping them would cost more than the work they do.

A span holds its name, start, end, parent span, request id, the element
count of the chain it was called on (if its first argument is a chain) and
whether it raised.  Spans stay in flat arrays in memory; `write()` saves
them when the run ends.  A span's self time is its duration minus the part
of it that its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from array import array

PACKAGE = "tmmcavity"
VOMATRIX_EVAL = ("static_at", "static_deriv_at", "first_scalar_at",
                 "first_deriv_at", "first_deriv_deriv_at")


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self.size = array("i")
        self.error = array("b")
        self.current_request = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # ---- recording ----

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn):
        """`fn` with a span named `name` around every call."""
        nid = self._name_id(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.request.append(self.current_request)
            first = args[0] if args else None
            els = getattr(first, "elements", None)
            self.size.append(len(els) if isinstance(els, tuple) else 0)
            self.error.append(0)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(self.clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.error[idx] = 1
                raise
            finally:
                self.end[idx] = self.clock()
                stack.pop()

        return traced

    # ---- installing around the package ----

    def install(self):
        """Wrap the package's public functions at every module binding."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if mod is not None and (name == PACKAGE
                                           or name.startswith(PACKAGE + "."))}
        originals = {}
        for mod in modules.values():
            public = list(getattr(mod, "__all__", ()))
            if mod.__name__ == PACKAGE + ".cli":
                public.append("run")
            for attr in public:
                fn = getattr(mod, attr, None)
                if inspect.isfunction(fn) and fn.__module__ in modules:
                    short = fn.__module__.rsplit(".", 1)[-1]
                    originals[fn] = f"{short}.{fn.__name__}"
        wrappers = {fn: self.wrap(name, fn) for fn, name in originals.items()}
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(mod, attr, wrappers[value])
        vomatrix = getattr(modules.get(PACKAGE + ".opalg"), "VOMatrix", None)
        if vomatrix is not None:
            for attr in VOMATRIX_EVAL + ("__matmul__",):
                fn = vars(vomatrix)[attr]
                self._patch(vomatrix, attr, self.wrap(f"opalg.VOMatrix.{attr}", fn))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # ---- analysis ----

    def __len__(self) -> int:
        return len(self.start)

    def span_name(self, i: int) -> str:
        return self.names[self.name[i]]

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.start, self.end)]

    def self_times(self) -> list[float]:
        """Duration of each span minus the union of its children's intervals."""
        children: dict[int, list[int]] = {}
        for i, p in enumerate(self.parent):
            if p >= 0:
                children.setdefault(p, []).append(i)
        out = self.durations()
        for p, kids in children.items():
            lo, hi = self.start[p], self.end[p]
            covered = 0.0
            cur_s = cur_e = None
            for k in sorted(kids, key=lambda j: self.start[j]):
                s, e = max(self.start[k], lo), min(self.end[k], hi)
                if e <= s:
                    continue
                if cur_e is None or s > cur_e:
                    if cur_e is not None:
                        covered += cur_e - cur_s
                    cur_s, cur_e = s, e
                else:
                    cur_e = max(cur_e, e)
            if cur_e is not None:
                covered += cur_e - cur_s
            out[p] -= covered
        return out

    def write(self, path: str):
        """All spans as gzipped CSV: id,name,start,end,parent,request,size,error."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id,name,start,end,parent,request,size,error\n")
            for i in range(len(self)):
                fh.write(f"{i},{self.span_name(i)},{self.start[i]!r},{self.end[i]!r},"
                         f"{self.parent[i]},{self.request[i]},{self.size[i]},"
                         f"{self.error[i]}\n")


class SpanTable:
    """Per-name aggregates of a finished trace."""

    def __init__(self, tracer: Tracer):
        self.t = tracer
        self.self_s = tracer.self_times()
        self.dur = tracer.durations()
        self.by_name: dict[str, list[int]] = {}
        for i in range(len(tracer)):
            self.by_name.setdefault(tracer.span_name(i), []).append(i)

    def calls(self, name: str) -> int:
        return len(self.by_name.get(name, ()))

    def self_total(self, name: str) -> float:
        return sum(self.self_s[i] for i in self.by_name.get(name, ()))

    def inclusive(self, name: str, size: int | None = None) -> float:
        return sum(self.dur[i] for i in self.by_name.get(name, ())
                   if size is None or self.t.size[i] == size)

    def children_named(self, parent_name: str, child_name: str) -> list[int]:
        parents = set(self.by_name.get(parent_name, ()))
        return [i for i in self.by_name.get(child_name, ())
                if self.t.parent[i] in parents]

    def descendants_named(self, ancestor_name: str, name: str) -> int:
        ancestors = set(self.by_name.get(ancestor_name, ()))
        count = 0
        for i in self.by_name.get(name, ()):
            p = self.t.parent[i]
            while p >= 0 and p not in ancestors:
                p = self.t.parent[p]
            count += p >= 0
        return count

    def self_by_module(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, idxs in self.by_name.items():
            mod = name.split(".", 1)[0]
            out[mod] = out.get(mod, 0.0) + sum(self.self_s[i] for i in idxs)
        return out
