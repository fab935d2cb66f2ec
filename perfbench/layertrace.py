"""Outside-in layer tracer for the spcube package.

A layer is one spcube module.  ``install`` wraps every public function at
the place where *another* spcube module binds it by name (for example
``spcube.search.y_pattern`` or ``spcube.patterns.spanning_trees``), never
in its defining module.  Recursion and calls inside one module therefore
stay unwrapped, and only layer-crossing calls become spans.  A module bound
as a whole (``from . import catalog``) is replaced, in the importing module
only, by a copy whose public functions are wrapped.

Spans are kept in flat arrays in memory and summarised, and written out,
only when the traced run ends.  The tracer subtracts its own bookkeeping
time, and the speed probe's samples (``Tracer.paused``), from every
timestamp, so self and busy times describe the program; what it cannot
subtract shows up as ``trace.overhead_s``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
import types
from array import array
from collections import Counter
from collections.abc import Iterator
from math import comb

LAYERS = (
    "cli",
    "search",
    "spterm",
    "multigraph",
    "patterns",
    "operators",
    "embeddings",
    "constructions",
    "verify",
    "catalog",
)

_clock = time.perf_counter


class Tracer:
    """Span store plus the counters that are measured at layer boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_layer: list[int] = []
        self.name_is_call: list[bool] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.failed: set[int] = set()
        self.stack = [-1]
        self.lost = 0.0  # tracer bookkeeping time, removed from timestamps
        self.paused = 0.0  # speed-probe time, removed from the clock itself
        self.counters: Counter = Counter()

    def now(self) -> float:
        """Real time minus the time spent in speed-probe samples."""
        return _clock() - self.paused

    def _name_id(self, name: str, layer: str, is_call: bool) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.name_layer.append(LAYERS.index(layer))
            self.name_is_call.append(is_call)
        return nid

    def wrap(self, layer: str, name: str, fn, post=None):
        """Return ``fn`` wrapped in a span named ``name`` of ``layer``.

        ``post(args, kwargs, result)`` runs after the span closes, outside
        the measured time, to update counters.  An iterator result is
        replaced by one whose every step is a span ``<name>.next``.
        """
        nid = self._name_id(name, layer, True)
        next_id = self._name_id(name + ".next", layer, False)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack, tracer, now = self.stack, self, self.now

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = now()
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(t0 - tracer.lost)
            ends.append(0.0)
            stack.append(i)
            tracer.lost += now() - t0
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t2 = now()
                stack.pop()
                ends[i] = t2 - tracer.lost
                tracer.failed.add(i)
                tracer.lost += now() - t2
                raise
            t2 = now()
            stack.pop()
            ends[i] = t2 - tracer.lost
            if post is not None:
                post(args, kwargs, result)
            if isinstance(result, Iterator):
                result = tracer._steps(next_id, name, result)
            tracer.lost += now() - t2
            return result

        return traced

    def _steps(self, nid: int, name: str, it):
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack, counters, now = self.stack, self.counters, self.now
        while True:
            t0 = now()
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(t0 - self.lost)
            ends.append(0.0)
            stack.append(i)
            self.lost += now() - t0
            try:
                item = next(it)
            except StopIteration:
                t2 = now()
                stack.pop()
                ends[i] = t2 - self.lost
                self.lost += now() - t2
                return
            except BaseException:
                t2 = now()
                stack.pop()
                ends[i] = t2 - self.lost
                self.failed.add(i)
                self.lost += now() - t2
                raise
            t2 = now()
            stack.pop()
            ends[i] = t2 - self.lost
            counters[name + ".items"] += 1
            self.lost += now() - t2
            yield item

    # ------------------------------------------------------------------
    # summaries

    def summary(self) -> dict:
        """Per-layer calls, busy, self and errors; per-name calls and busy;
        per-root-span (per job) self time by layer; the counters."""
        n = len(self.span_start)
        parents, names = self.span_parent, self.span_name
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += dur[i]
        nl = len(LAYERS)
        layer_calls, layer_errors = [0] * nl, [0] * nl
        layer_busy, layer_self = [0.0] * nl, [0.0] * nl
        name_calls = [0] * len(self.names)
        name_busy = [0.0] * len(self.names)
        mask = [0] * n  # layers open on the path from the root to the span
        root = [0] * n
        job_self: dict[int, list[float]] = {}
        for i in range(n):
            nid = names[i]
            layer = self.name_layer[nid]
            bit = 1 << layer
            p = parents[i]
            above = mask[p] if p >= 0 else 0
            mask[i] = above | bit
            root[i] = root[p] if p >= 0 else i
            if not above & bit:
                layer_busy[layer] += dur[i]
            own = dur[i] - child[i]
            layer_self[layer] += own
            job_self.setdefault(root[i], [0.0] * nl)[layer] += own
            if self.name_is_call[nid]:
                layer_calls[layer] += 1
                name_calls[nid] += 1
            name_busy[nid] += dur[i]
            if i in self.failed:
                layer_errors[layer] += 1
        return {
            "spans": n,
            "layers": {
                layer: {
                    "calls": layer_calls[k],
                    "busy_s": layer_busy[k],
                    "self_s": layer_self[k],
                    "errors": layer_errors[k],
                }
                for k, layer in enumerate(LAYERS)
            },
            "names": {
                name: {"calls": name_calls[k], "busy_s": name_busy[k]}
                for k, name in enumerate(self.names)
            },
            "jobs": [
                {
                    "busy_s": dur[r],
                    "self_s": dict(zip(LAYERS, job_self[r])),
                }
                for r in sorted(job_self)
            ],
            "counters": dict(self.counters),
        }

    def write_spans(self, path: str) -> None:
        """One span per line: index, parent index, name, start, end, failed."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for i in range(len(self.span_start)):
                fh.write(
                    f"{i}\t{self.span_parent[i]}\t{self.span_name[i]}\t"
                    f"{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\t"
                    f"{int(i in self.failed)}\n"
                )


# ----------------------------------------------------------------------
# counters measured from the arguments and results of boundary calls


def _bound(fn):
    sig = inspect.signature(fn)

    def arguments(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    return arguments


def _post_hooks(spcube_modules: dict, counters: Counter) -> dict:
    emb = spcube_modules["embeddings"]
    con = spcube_modules["constructions"]
    pat = spcube_modules["patterns"]

    def strings_out(args, kwargs, result):
        counters["patterns.strings_out"] += len(result.strings)

    def trees_out(args, kwargs, result):
        counters["multigraph.trees_out"] += len(result)

    def rows_out(args, kwargs, result):
        counters["search.rows_out"] += len(result)

    def layer_params(p):
        return p.a, p.b, isinstance(p, pat.EdgePattern)

    density_args = _bound(emb.density_t)

    def density_maps(args, kwargs, result):
        a = density_args(args, kwargs)
        sa, sb, starred = layer_params(a["small"])
        ba, bb, _ = layer_params(a["big"])
        counters["embeddings.maps"] += emb.count_maps(sa, sb, ba, bb, starred)

    ex_args = _bound(emb.ex_layer)

    def ex_layer_maps(args, kwargs, result):
        a = ex_args(args, kwargs)
        xa, xb, starred = layer_params(a["x"])
        counters["embeddings.maps"] += emb.count_maps(xa, xb, a["a2"], a["b2"], starred)

    def f2_set(edge, fn):
        args_of = _bound(fn)

        def post(args, kwargs, result):
            a = args_of(args, kwargs)
            n = a["a"] + a["b"]
            tested = (n + 1) * comb(n, a["b"]) if edge else comb(n, a["b"])
            counters["constructions.f2_sets"] += 1
            counters["constructions.strings_tested"] += tested
            counters["constructions.strings_admitted"] += len(result.strings)

        return post

    return {
        "patterns.x_pattern": strings_out,
        "patterns.y_pattern": strings_out,
        "multigraph.spanning_trees": trees_out,
        "search.m_table": rows_out,
        "search.fib_table": rows_out,
        "embeddings.density_t": density_maps,
        "embeddings.ex_layer": ex_layer_maps,
        "constructions.f2_vertex_set": f2_set(False, con.f2_vertex_set),
        "constructions.f2_vertex_set_from_vectors": f2_set(
            False, con.f2_vertex_set_from_vectors
        ),
        "constructions.f2_edge_set": f2_set(True, con.f2_edge_set),
        "constructions.f2_edge_set_from_vectors": f2_set(
            True, con.f2_edge_set_from_vectors
        ),
    }


def install(tracer: Tracer) -> None:
    """Wrap every layer-crossing binding in the imported spcube modules."""
    mods = {name: importlib.import_module(f"spcube.{name}") for name in LAYERS}
    by_module = {m.__name__: name for name, m in mods.items()}
    hooks = _post_hooks(mods, tracer.counters)
    wrapped: dict[tuple[str, str], object] = {}

    def traced(layer: str, attr: str, fn):
        key = (layer, attr)
        if key not in wrapped:
            name = f"{layer}.{attr}"
            wrapped[key] = tracer.wrap(layer, name, fn, hooks.get(name))
        return wrapped[key]

    def is_function(obj) -> bool:
        return callable(obj) and not isinstance(obj, type)

    originals = {name: dict(vars(m)) for name, m in mods.items()}
    for user, module in mods.items():
        for attr, obj in originals[user].items():
            if attr.startswith("_"):
                continue
            if isinstance(obj, types.ModuleType) and obj.__name__ in by_module:
                owner = by_module[obj.__name__]
                if owner == user:
                    continue
                proxy = types.ModuleType(obj.__name__)
                for k, v in originals[owner].items():
                    own = getattr(v, "__module__", None) == obj.__name__
                    if own and not k.startswith("_") and is_function(v):
                        v = traced(owner, k, v)
                    setattr(proxy, k, v)
                setattr(module, attr, proxy)
                continue
            owner = by_module.get(getattr(obj, "__module__", None))
            if owner is None or owner == user or not is_function(obj):
                continue
            setattr(module, attr, traced(owner, attr, obj))

    # verify.run_all reads its checks from ALL_CHECKS; wrapping the list
    # entries (not the functions' module bindings) gives one span per check.
    ver = mods["verify"]
    ver.ALL_CHECKS[:] = [
        (check, tracer.wrap("verify", f"verify.{check}", fn), shallow, deep)
        for check, fn, shallow, deep in ver.ALL_CHECKS
    ]

    # GraphDedup.add is called inside spterm, so it is never a span; its
    # calls and results are counted on the class instead.
    dedup = mods["spterm"].GraphDedup
    add = dedup.add
    counters, now = tracer.counters, tracer.now

    @functools.wraps(add)
    def counted_add(self, g):
        new = add(self, g)
        t0 = now()
        counters["spterm.dedup.adds"] += 1
        counters["spterm.dedup.new"] += bool(new)
        tracer.lost += now() - t0
        return new

    dedup.add = counted_add
