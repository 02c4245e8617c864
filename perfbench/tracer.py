"""In-process tracing of qcheb's layers, done entirely from outside the package.

`Tracer.install()` replaces every public function and method of the layer
modules with a wrapper that records one span (name, start, end, parent) per
call, and rebinds the names other modules imported (`families.q_poch`,
`suites.check_range`, `cli.run_suite`, ...) to the same wrappers.
`Tracer.uninstall()` puts every original back.  Spans live in per-thread
arrays, so the worker threads of `verify --parallelism N` record without
locking; each thread's spans nest strictly, which makes self time (duration
minus the time covered by child spans) a single pass over the arrays.

In worker threads a span's duration includes time spent waiting for the
interpreter lock, so self times summed over threads can exceed the wall time.
"""

import array
import importlib
import inspect
import json
import operator
import threading
import time
import types
from collections import Counter, defaultdict

LAYERS = (
    "qkernel",
    "polyring",
    "families",
    "matrixids",
    "operators",
    "moments",
    "analysis",
    "suites",
    "report",
    "cli",
)

# Operator methods that are a polynomial type's real work; other dunders
# (repr, hash, init) are bookkeeping.  ParamPoint.__post_init__ is traced so
# that its call count is the number of parameter points constructed.
_TRACED_DUNDERS = frozenset(
    {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
     "__neg__", "__eq__", "__post_init__"}
)

# Spans whose durations make up the time spent serializing output.
SERIALIZERS = frozenset(
    {"polyring.XsPoly.to_json", "report.IdentityReport.to_json", "cli.json.dump"}
)

_numerators = operator.attrgetter("numerator")
_denominators = operator.attrgetter("denominator")


class _Spans:
    """One thread's spans, as parallel arrays indexed by span number."""

    __slots__ = ("ids", "parents", "starts", "ends", "current")

    def __init__(self):
        self.ids = array.array("i")
        self.parents = array.array("i")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.current = -1


def layer_modules(pkg):
    """The layer modules of an imported qcheb package, by short name."""
    return {name: importlib.import_module(f"{pkg.__name__}.{name}") for name in LAYERS}


def cache_clearers(modules):
    """cache_clear of every module-level callable that has one, found by
    introspection so that a cache added later is cleared too."""
    seen = {}
    for mod in modules.values():
        for value in vars(mod).values():
            clear = getattr(value, "cache_clear", None)
            if callable(value) and callable(clear):
                seen[id(value)] = clear
    return list(seen.values())


def clear_caches(clearers):
    for clear in clearers:
        clear()


class Tracer:
    def __init__(self, pkg, modules):
        self.pkg = pkg
        self.modules = modules
        self.names = []
        self._name_ids = {}
        self._lock = threading.Lock()
        self._patches = []
        self.reset()

    # -- recording ----------------------------------------------------

    def reset(self):
        """Forget all spans and counters (between reps)."""
        self.buffers = []
        self._local = threading.local()
        self.coeff_products = 0
        self.max_coeff = 0
        self.dilated_keys = defaultdict(set)
        self.items = []
        self.suite_runs = []

    def _new_buffer(self):
        buf = _Spans()
        with self._lock:
            self.buffers.append(buf)
        self._local.buf = buf
        return buf

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _span(self, fn, name):
        nid = self._name_id(name)
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            try:
                buf = tracer._local.buf
            except AttributeError:
                buf = tracer._new_buffer()
            parent = buf.current
            idx = buf.current = len(buf.ids)
            buf.ids.append(nid)
            buf.parents.append(parent)
            buf.ends.append(0.0)
            buf.starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                buf.ends[idx] = clock()
                buf.current = parent

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    # -- counting hooks (run inside the span they belong to) ----------

    def _note_result(self, poly):
        values = poly.terms.values()
        if values:
            top = max(max(map(abs, map(_numerators, values))), max(map(_denominators, values)))
            with self._lock:
                self.max_coeff = max(self.max_coeff, top)
        return poly

    def _hook(self, name, fn):
        note = self._note_result
        if name == "polyring.XsPoly.__mul__":
            xs_poly = self.modules["polyring"].XsPoly

            def mul(a, b):
                if isinstance(b, xs_poly):
                    with self._lock:
                        self.coeff_products += len(a.terms) * len(b.terms)
                return note(fn(a, b))

            return mul
        if name in ("polyring.XsPoly.__add__", "polyring.XsPoly.scale",
                    "polyring.XsPoly.dilate"):
            return lambda *args: note(fn(*args))
        if name in ("families.fib_qb_dilated", "families.lucas_qb_dilated"):

            def dilated(n, point):
                self.dilated_keys[name].add((n, point))
                return fn(n, point)

            return dilated
        if name == "suites.build_work_items":
            return lambda *a, **k: [self._item(item) for item in fn(*a, **k)]
        if name == "suites.run_suite":
            sig = inspect.signature(fn)

            def run_suite(*args, **kwargs):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                t0 = time.perf_counter()
                result = fn(*args, **kwargs)
                self.suite_runs.append(
                    (time.perf_counter() - t0, bound.arguments["parallelism"])
                )
                return result

            return run_suite
        return fn

    def _item(self, fn):
        clock = time.perf_counter

        def item():
            t0 = clock()
            result = fn()
            elapsed = clock() - t0
            first = result if hasattr(result, "identity_id") else result[0]
            self.items.append((first.identity_id, elapsed))
            return result

        return self._span(item, "suites.item")

    # -- installing ---------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every layer's public functions and methods, and rebind the
        names other modules imported to the same wrappers."""
        wrapped = {}
        for short, mod in self.modules.items():
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != mod.__name__:
                    continue
                if isinstance(value, type):
                    self._install_class(short, value, wrapped)
                elif isinstance(value, types.FunctionType) or hasattr(value, "__wrapped__"):
                    name = f"{short}.{attr}"
                    wrapped[id(value)] = self._span(self._hook(name, value), name)
                    self._set(mod, attr, wrapped[id(value)])
        json_proxy = types.SimpleNamespace(**vars(json))
        json_proxy.dump = self._span(json.dump, "cli.json.dump")
        self._set(self.modules["cli"], "json", json_proxy)
        for mod in (self.pkg, *self.modules.values()):
            for attr, value in list(vars(mod).items()):
                if id(value) in wrapped and vars(mod)[attr] is not wrapped[id(value)]:
                    self._set(mod, attr, wrapped[id(value)])
        return self

    def _install_class(self, short, cls, wrapped):
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _TRACED_DUNDERS:
                continue
            static = isinstance(value, staticmethod)
            fn = value.__func__ if static else value
            if not isinstance(fn, types.FunctionType):
                continue
            if id(fn) not in wrapped:
                name = f"{short}.{cls.__name__}.{fn.__name__}"
                wrapped[id(fn)] = self._span(self._hook(name, fn), name)
            self._set(cls, attr, staticmethod(wrapped[id(fn)]) if static else wrapped[id(fn)])

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis -----------------------------------------------------

    def span_count(self):
        return sum(len(buf.ids) for buf in self.buffers)

    def totals(self):
        """Per span name: (calls, total duration, self time)."""
        calls = Counter()
        total = defaultdict(float)
        own = defaultdict(float)
        ser = {self._name_ids[n] for n in SERIALIZERS if n in self._name_ids}
        serialize_s = 0.0
        for buf in self.buffers:
            ids, parents = buf.ids, buf.parents
            dur = [e - s for s, e in zip(buf.starts, buf.ends)]
            covered = [0.0] * len(dur)
            for i, p in enumerate(parents):
                if p >= 0:
                    covered[p] += dur[i]
            for i, nid in enumerate(ids):
                calls[nid] += 1
                total[nid] += dur[i]
                own[nid] += dur[i] - covered[i]
                if nid in ser and (parents[i] < 0 or ids[parents[i]] not in ser):
                    serialize_s += dur[i]
        named = {
            self.names[nid]: (calls[nid], total[nid], own[nid]) for nid in calls
        }
        return named, serialize_s

    def write_spans(self, path):
        """Write the spans as one JSON header line (names, per-thread span
        counts) followed by each thread's ids, parents, starts and ends as
        native int32/float64 arrays."""
        header = {
            "names": self.names,
            "threads": [len(buf.ids) for buf in self.buffers],
            "arrays": ["ids:i4", "parents:i4", "starts:f8", "ends:f8"],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for buf in self.buffers:
                for arr in (buf.ids, buf.parents, buf.starts, buf.ends):
                    arr.tofile(fh)
