"""Spans around the public functions of the freegroups layers.

The traced run wraps, from outside the package, every public function
that one freegroups module imports from another (for example
``freegroups.verify.is_primitive``), a short list of public methods, and
the entry points the benchmark calls itself.  Each call records a span:
name, parent span, item id, start and end.  Spans stay in memory, in
flat arrays, until the pass ends; ``LayerTable`` then derives per-layer
calls and self time from them, and ``write_spans`` writes them out.

A layer's self time is the time its spans cover minus the time their
direct child spans cover.  The benchmark opens one root span of layer
``bench`` around each traced pass, so the self times of all layers, bench
included, add up to the traced wall time of the pass.
"""

from __future__ import annotations

import inspect
import time
from array import array

LAYERS = (
    "words",
    "automorphisms",
    "whitehead_graph",
    "primitivity",
    "stallings",
    "verify",
    "cli",
)

# Per-letter helpers run millions of times inside the layers that call
# them; a span around each would cost more than the work it times.
HELPERS = frozenset({"letter_key", "letter_name", "letter_order"})

# Public methods that callers reach through objects rather than imports.
# CyclicWord.__eq__ is left out: dicts call it on hash collisions, which
# depend on the per-process string hash seed, so its call count would not
# repeat from run to run.
METHODS = {
    "words": {"Word": ("__mul__", "inverse"), "CyclicWord": ("__hash__",)},
    "whitehead_graph": {"WhiteheadGraph": ("find_cut_vertex",)},
    "stallings": {
        "SubgroupGraph": ("contains", "subgroup_rank", "generates_whole_group")
    },
}

ROOT = "bench.pass"


class Tracer:
    """Records spans for the functions it wraps while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.items = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: list[int] = []
        self.item = -1
        self.observers: dict = {}
        self._undo: list = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn):
        """A function that runs fn inside a span named layer.qualname, the
        layer being the name of fn's module."""
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"
        nid = self._name_id(name)
        observe = self.observers.get(name)
        name_ids, parents, items = self.name_ids, self.parents, self.items
        starts, ends, stack = self.starts, self.ends, self._stack
        clock = time.perf_counter

        if inspect.isgeneratorfunction(fn):
            # one span per resumption, so the consumer's own time between
            # items is not charged to the generator
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = len(starts)
                    name_ids.append(nid)
                    parents.append(stack[-1] if stack else -1)
                    items.append(self.item)
                    ends.append(0.0)
                    stack.append(idx)
                    starts.append(clock())
                    try:
                        x = next(it)
                    except StopIteration:
                        return
                    finally:
                        ends[idx] = clock()
                        stack.pop()
                    yield x

            return gen_wrapper

        def wrapper(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            items.append(self.item)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def install(self, modules: dict) -> None:
        """Wrap the cross-module imports and METHODS of the given
        freegroups modules, keyed by layer name."""
        for caller in modules.values():
            for attr, obj in list(vars(caller).items()):
                if attr.startswith("_") or attr in HELPERS:
                    continue
                if not inspect.isfunction(obj):
                    continue
                owner = obj.__module__
                if owner == caller.__name__ or not owner.startswith("freegroups."):
                    continue
                self._patch(caller, attr, self.wrap(obj))
        for layer, classes in METHODS.items():
            for cls_name, methods in classes.items():
                cls = getattr(modules[layer], cls_name)
                for meth in methods:
                    self._patch(cls, meth, self.wrap(cls.__dict__[meth]))

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def open_root(self) -> int:
        idx = len(self.starts)
        self.name_ids.append(self._name_id(ROOT))
        self.parents.append(-1)
        self.items.append(-1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close_root(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def __len__(self) -> int:
        return len(self.starts)


class LayerTable:
    """Per-layer calls and self time, computed from a tracer's spans."""

    def __init__(self, tracer: Tracer):
        n = len(tracer)
        starts, ends, parents = tracer.starts, tracer.ends, tracer.parents
        child = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        # per span name: calls, self time, and every span's duration
        self.by_name = {name: [0, 0.0, []] for name in tracer.names}
        self.wall_s = 0.0
        for i in range(n):
            row = self.by_name[tracer.names[tracer.name_ids[i]]]
            dur = ends[i] - starts[i]
            row[0] += 1
            row[1] += dur - child[i]
            row[2].append(dur)
            if parents[i] < 0:
                self.wall_s += dur
        self.calls = {layer: 0 for layer in ("bench",) + LAYERS}
        self.self_s = {layer: 0.0 for layer in ("bench",) + LAYERS}
        for name, (calls, self_s, _) in self.by_name.items():
            layer = name.split(".", 1)[0]
            self.calls[layer] += calls
            self.self_s[layer] += self_s

    def durations(self, *names: str) -> list[float]:
        return [d for name in names for d in self.by_name.get(name, (0, 0.0, []))[2]]


def write_spans(tracer: Tracer, path) -> None:
    """Tab separated spans, one per line, times in microseconds from the
    first span's start; the header names the columns."""
    t0 = tracer.starts[0] if len(tracer) else 0.0
    names = tracer.names
    with open(path, "w") as fh:
        fh.write("span\tparent\titem\tname\tstart_us\tend_us\n")
        for i in range(len(tracer)):
            fh.write(
                f"{i}\t{tracer.parents[i]}\t{tracer.items[i]}\t"
                f"{names[tracer.name_ids[i]]}\t"
                f"{(tracer.starts[i] - t0) * 1e6:.1f}\t"
                f"{(tracer.ends[i] - t0) * 1e6:.1f}\n"
            )
