"""In-memory span tracer for the qfridge layer modules.

`install` wraps every public function defined in each layer module and
rebinds the wrapper under every name that held the original in any
`qfridge` module, because `steady`, `qsl`, `dynamics`, `cli` and
`verify` import functions by name (`from .linalg import tensor`), so
patching the defining module alone would miss their calls. A span is
(name, start, end, parent, raised); spans live in flat arrays until the
run ends.
"""

import functools
import sys
import time
import types
from array import array

import numpy as np

LAYERS = ("linalg", "model", "steady", "qsl", "dynamics", "analysis", "cli")
PACKAGE = "qfridge"


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.start = array("q")
        self.end = array("q")
        self.name = array("i")
        self.parent = array("i")
        self.raised = array("b")
        self._stack = [-1]
        self.wrapped = []      # qualified names of the wrapped functions
        self.rebound = []      # "module.attr" bindings replaced by wrappers
        self._restore = []     # (module, attr, original)
        self._originals = {}   # id(original) -> qualified name

    def wrap(self, qual, fn):
        """fn wrapped so that each call records one span named qual."""
        if qual not in self._ids:
            self._ids[qual] = len(self.names)
            self.names.append(qual)
        nid = self._ids[qual]
        start, end, name, parent, raised = (self.start, self.end, self.name,
                                            self.parent, self.raised)
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(name)
            name.append(nid)
            parent.append(stack[-1])
            raised.append(0)
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[i] = 1
                raise
            finally:
                end[i] = clock()
                stack.pop()
        return traced

    def install(self):
        modules = {n: m for n, m in list(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")}
        wrappers = {}
        for layer in LAYERS:
            mod = modules[f"{PACKAGE}.{layer}"]
            for attr, obj in vars(mod).items():
                if (attr.startswith("_")
                        or not isinstance(obj, types.FunctionType)
                        or obj.__module__ != mod.__name__):
                    continue
                qual = f"{layer}.{attr}"
                self._originals[id(obj)] = qual
                wrappers[id(obj)] = (obj, self.wrap(qual, obj))
        for mname in sorted(modules):
            mod = modules[mname]
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._restore.append((mod, attr, obj))
                    self.rebound.append(f"{mname}.{attr}")
        self.wrapped = sorted(self._originals.values())

    def uninstall(self):
        for mod, attr, obj in self._restore:
            setattr(mod, attr, obj)
        self._restore = []

    def stale_bindings(self):
        """Places in qfridge module namespaces (top level, or one level
        into a tuple, list or dict) that still hold an unwrapped original."""
        stale = []
        for mname, mod in list(sys.modules.items()):
            if not (mname == PACKAGE or mname.startswith(PACKAGE + ".")):
                continue
            for attr, obj in vars(mod).items():
                items = [obj]
                if isinstance(obj, (tuple, list)):
                    items += list(obj)
                elif isinstance(obj, dict):
                    items += list(obj.values())
                for item in items:
                    if id(item) in self._originals:
                        stale.append(f"{mname}.{attr} -> "
                                     f"{self._originals[id(item)]}")
        return stale

    def arrays(self):
        return dict(
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            raised=np.frombuffer(self.raised, dtype=np.int8))

    def summary(self):
        """Per span name: self and inclusive seconds, calls, raised count.

        Self time is a span's duration minus that of its direct children.
        Inclusive time sums durations; no traced function recurses.
        """
        a = self.arrays()
        dur = (a["end"] - a["start"]).astype(float) * 1e-9
        child = np.zeros(len(dur))
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        k = len(self.names)
        self_s = np.bincount(a["name"], weights=dur - child, minlength=k)
        calls = np.bincount(a["name"], minlength=k)
        raised = np.bincount(a["name"], weights=a["raised"], minlength=k)
        roots = float(dur[~has_parent].sum())
        total_s = np.bincount(a["name"], weights=dur, minlength=k)
        return {"names": list(self.names), "self_s": self_s,
                "total_s": total_s, "calls": calls, "raised": raised,
                "root_s": roots}

    def calls_under(self, ancestor, qual):
        """Spans named qual that have a span named ancestor above them."""
        if ancestor not in self._ids or qual not in self._ids:
            return 0
        a_id, q_id = self._ids[ancestor], self._ids[qual]
        name, parent = self.name, self.parent
        inside = bytearray(len(name))
        count = 0
        for i in range(len(name)):
            p = parent[i]
            inside[i] = name[i] == a_id or (p >= 0 and inside[p])
            if name[i] == q_id and p >= 0 and inside[p]:
                count += 1
        return count
