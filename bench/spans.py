"""Spans and counters around the layers of `gauss_deficit`, installed from outside.

`Tracer.install()` replaces every public function and public method of each
layer module with a wrapper, in every module namespace that binds it (modules
import one another's functions by name, so wrapping only the defining module
would miss calls).  A few private functions are wrapped too, because a
counter needs them (see `layers.PRIVATE`).  `uninstall()` puts the originals
back, so untraced passes run the library exactly as shipped.

A wrapper opens a span only when it enters a different bucket from the one
the calling thread is in; calls inside the same bucket run through with just
their counters.  Each thread keeps its own span stack.  A CLI item runs in a
pool thread, and its span takes the enclosing `cli.run` span as parent.

Self time (`self_times`) divides wall time among the innermost open spans of
all threads: between two span boundaries, the interval is split evenly over
the open spans that have no open child.  So the self times of all buckets
plus the time no span covers add up to the traced wall time exactly, also
with a thread pool.  With the interpreter lock, two threads that are both
"inside" a span are not both computing; the even split is an approximation.

In memory mode (single-thread `tracemalloc` pass) each span records its own
high-water mark: the traced peak while it was open minus the traced memory
when it opened.
"""
from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
import tracemalloc
from collections import Counter, defaultdict

import numpy as np

from layers import LAYERS, PRIVATE, bucket_of

# dispatchers that only forward to a field's closure: wrapping them would
# charge every closure's arithmetic to numerics
SKIP = {"GridField.__call__", "GridField.log", "GridField.dlog"}
PUBLIC_DUNDERS = ("__call__", "__mul__", "__pow__")


class _Open:
    __slots__ = ("sid", "parent", "bucket", "t0", "base", "high")

    def __init__(self, sid, parent, bucket, t0, base):
        self.sid, self.parent, self.bucket, self.t0 = sid, parent, bucket, t0
        self.base = self.high = base


def _size(x) -> int:
    return int(np.size(x))


def _freevar(fn, name):
    code = fn.__code__
    return fn.__closure__[code.co_freevars.index(name)].cell_contents


class Tracer:
    def __init__(self, package):
        self.package = package
        self.local = threading.local()
        self.lock = threading.Lock()
        self.ids = itertools.count(1)
        self.memory = False
        self._patches = []
        self.reset()

    # -- records ----------------------------------------------------------

    def reset(self):
        """Start a new pass: forget spans, counts and peaks."""
        self.spans = []          # (sid, parent, bucket, t0, t1)
        self.counts = Counter()
        self.peaks = defaultdict(int)   # bucket -> own high-water bytes
        self.open_spans = {}
        self.mem_high = 0

    def add(self, name, n):
        with self.lock:
            self.counts[name] += n

    def _stack(self):
        st = getattr(self.local, "stack", None)
        if st is None:
            st = self.local.stack = []
        return st

    def _mem_reading(self):
        cur, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        self.mem_high = max(self.mem_high, peak)
        for span in self.open_spans.values():
            if peak > span.high:
                span.high = peak
        return cur

    def _open(self, bucket, parent):
        base = self._mem_reading() if self.memory else 0
        span = _Open(next(self.ids), parent, bucket, time.perf_counter(), base)
        self.open_spans[span.sid] = span
        self._stack().append(span)
        return span

    def _close(self, span):
        t1 = time.perf_counter()
        self._stack().pop()
        if self.memory:
            self._mem_reading()
            own = span.high - span.base
            if own > self.peaks[span.bucket]:
                self.peaks[span.bucket] = own
        del self.open_spans[span.sid]
        self.spans.append((span.sid, span.parent, span.bucket, span.t0, t1))

    def current(self):
        st = self._stack()
        if st:
            return st[-1]
        return getattr(self.local, "adopted", None)

    # -- the wrapper ------------------------------------------------------

    def _call(self, fn, layer, bucket, hook, args, kwargs):
        top = self.current()
        caller = top.bucket if top is not None else None
        state = hook.before(self, args) if hook and hook.before else None
        if caller == bucket:
            result = fn(*args, **kwargs)
        else:
            span = self._open(bucket, top.sid if top is not None else None)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if caller is None or caller.split(".")[0] != layer:
                    self.add(f"{layer}.errors", 1)
                raise
            finally:
                self._close(span)
        if hook and hook.after:
            result = hook.after(self, caller, args, result, state)
        return result

    def wrap(self, fn, layer, bucket, hook=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer._call(fn, layer, bucket, hook, args, kwargs)

        return wrapper

    # -- installing -------------------------------------------------------

    def _targets(self, module, layer):
        """(owner, attribute, raw, qualname) for every function to wrap."""
        modname = module.__name__
        private = PRIVATE.get(layer, ())
        for name, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj.__module__ == modname:
                if not name.startswith("_") or name in private:
                    yield module, name, obj, name
            elif (inspect.isclass(obj) and obj.__module__ == modname
                  and not issubclass(obj, BaseException)):
                for attr, raw in list(vars(obj).items()):
                    qual = f"{name}.{attr}"
                    public = (not attr.startswith("_")
                              or attr in PUBLIC_DUNDERS or qual in private)
                    func = getattr(raw, "__func__", raw)
                    if public and qual not in SKIP and inspect.isfunction(func):
                        yield obj, attr, raw, qual

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self):
        if self._patches:
            return
        pkg = self.package.__name__
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == pkg or n.startswith(pkg + "."))]
        replaced = {}
        for layer in LAYERS:
            module = sys.modules[f"{pkg}.{layer}"]
            for owner, attr, raw, qual in self._targets(module, layer):
                func = getattr(raw, "__func__", raw)
                hook = HOOKS.get(f"{layer}:{qual}")
                wrapped = self.wrap(func, layer, bucket_of(layer, qual), hook)
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(wrapped)
                elif isinstance(raw, classmethod):
                    wrapped = classmethod(wrapped)
                if owner is module:
                    replaced[id(func)] = (func, wrapped)
                else:
                    self._patch(owner, attr, wrapped)
        # rebind every module-level name that refers to a wrapped function
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, name, hit[1])
        cli = sys.modules[f"{pkg}.cli"]
        for name, builder in list(cli._SUITES.items()):
            self._patches.append((cli._SUITES, name, builder))
            cli._SUITES[name] = self._suite_builder(builder)

    def uninstall(self):
        while self._patches:
            owner, attr, old = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = old
            else:
                setattr(owner, attr, old)

    # -- CLI items --------------------------------------------------------

    def _suite_builder(self, builder):
        tracer = self

        def build(config):
            tasks, extremisers = builder(config)
            suite = tracer.current()
            return [tracer._item(task, suite) for task in tasks], extremisers

        return build

    def _item(self, task, suite):
        tracer = self

        def item():
            tracer.local.adopted = suite
            span = tracer._open("cli.item", suite.sid if suite else None)
            tracer.add("cli.items", 1)
            if suite is not None:
                tracer.add("cli.pool_wait_s", span.t0 - suite.t0)
            try:
                return task()
            finally:
                tracer._close(span)
                tracer.local.adopted = None

        return item

    # -- analysis ---------------------------------------------------------

    def self_times(self, t_start, t_end):
        """Self time per bucket over [t_start, t_end], plus the uncovered rest."""
        events = []
        parent_of = {}
        for sid, parent, bucket, t0, t1 in self.spans:
            parent_of[sid] = (parent, bucket)
            events.append((t0, 1, sid))
            events.append((t1, 0, sid))
        events.sort()
        open_children = Counter()
        is_open = set()
        leaves = set()
        out = defaultdict(float)
        uncovered = 0.0
        last = t_start
        for t, kind, sid in events:
            dt = t - last
            if dt > 0:
                if leaves:
                    share = dt / len(leaves)
                    for leaf in leaves:
                        out[parent_of[leaf][1]] += share
                else:
                    uncovered += dt
            last = max(last, t)
            parent = parent_of[sid][0]
            if kind == 1:
                is_open.add(sid)
                leaves.add(sid)
                if parent in is_open:
                    open_children[parent] += 1
                    leaves.discard(parent)
            else:
                is_open.discard(sid)
                leaves.discard(sid)
                if parent in is_open:
                    open_children[parent] -= 1
                    if open_children[parent] == 0:
                        leaves.add(parent)
        uncovered += max(0.0, t_end - last)
        return dict(out), uncovered


# ---------------------------------------------------------------------------
# counters, keyed by "layer:qualname" of the wrapped function


class Hook:
    def __init__(self, before=None, after=None):
        self.before, self.after = before, after


def _counting(name, amount):
    def after(tracer, caller, args, result, state):
        tracer.add(name, amount(args, result))
        return result
    return Hook(after=after)


def _ou_closure_counter(rule):
    m = len(rule.nodes)

    def after(tracer, caller, args, result, state):
        tracer.add("semigroups.ou_node_evals", _size(args[0]) * m)
        return result
    return Hook(after=after)


def _ou_closures_after(tracer, caller, args, result, state):
    hook = _ou_closure_counter(args[2])
    return tuple(tracer.wrap(fn, "semigroups", "semigroups.ou", hook)
                 for fn in result)


def _ou_values_2d_after(tracer, caller, args, result, state):
    points = _size(args[3])
    tracer.add("semigroups.ou_node_evals", points * len(args[2].nodes) ** 2)
    if caller == "semigroups.ou":        # the eager grid fill in ou_apply
        tracer.add("semigroups.ou2d_grid_points", points)
    elif caller != "numerics.field":     # not an agreement re-check: a read
        tracer.add("semigroups.ou2d_read_points", points)
    return result


KERNEL_CLOSURE = "_kernel_quadrature_field.<locals>.value"


def _kernel_cells_counter(n_source):
    def after(tracer, caller, args, result, state):
        tracer.add("flows.fp_kernel_cells", _size(args[0]) * n_source)
        return result
    return Hook(after=after)


def _field_before(tracer, args):
    field = args[0]
    fn = field.analytic
    if inspect.isfunction(fn) and fn.__qualname__ == KERNEL_CLOSURE:
        n_source = _size(_freevar(fn, "ys"))
        object.__setattr__(field, "analytic", tracer.wrap(
            fn, "flows", "flows.fp", _kernel_cells_counter(n_source)))


def _hopf_lax_before(tracer, args):
    return getattr(tracer.local, "hj_extended", 0)


def _hopf_lax_after(tracer, caller, args, result, state):
    n = args[0].f.grid.n
    extension = getattr(tracer.local, "hj_extended", 0) - state
    tracer.add("hamilton_jacobi.hopf_lax_pairs", n * (n + extension))
    return result


def _extended_after(tracer, caller, args, result, state):
    tracer.local.hj_extended = (getattr(tracer.local, "hj_extended", 0)
                                + _size(args[1]))
    return result


HOOKS = {
    "numerics:GridField.__post_init__": Hook(
        before=_field_before,
        after=_counting("numerics.field_points",
                        lambda a, r: a[0].values.size).after),
    "numerics:GridField._check_agreement": _counting(
        "numerics.recheck_points", lambda a, r: a[0].values.size),
    "numerics:gauss_hermite_rule": _counting("numerics.gh_rules",
                                             lambda a, r: 1),
    "families:Mixture.log_at": _counting(
        "families.mix_evals", lambda a, r: _size(a[1]) * len(a[0].components)),
    "families:Mixture._posterior": _counting(
        "families.mix_evals", lambda a, r: _size(a[1]) * len(a[0].components)),
    "semigroups:_ou_closures_1d": Hook(after=_ou_closures_after),
    "semigroups:_ou_values_2d": Hook(after=_ou_values_2d_after),
    "flows:_kernel_quadrature_field": _counting(
        "flows.fp_kernel_cells", lambda a, r: a[0].n * a[1].grid.n),
    "inequalities:brascamp_lieb_check": _counting(
        "inequalities.bl_cells", lambda a, r: a[0].grid.n * a[1].grid.n),
    "hamilton_jacobi:hopf_lax": Hook(before=_hopf_lax_before,
                                     after=_hopf_lax_after),
    "hamilton_jacobi:HJField.extended": Hook(after=_extended_after),
    "transport:brenier_1d": _counting("transport.brenier_calls",
                                      lambda a, r: 1),
}
