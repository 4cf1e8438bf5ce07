"""Outside-in tracer: wraps radiomap's public functions from the benchmark.

Every public function of every layer module is replaced at each name that
binds it, in the package and in every submodule, so a call made through a
``from .x import f`` binding or through a module global is seen alike. The
hottest scalar helpers are left alone; their time lands in their callers'
self time.

Self time is a span's wall time minus the wall time of the spans it called
on the same thread. Each thread keeps its own stack and its own counters,
merged at the end, so the hot path takes no lock and pool threads are
counted exactly.
"""

from __future__ import annotations

import collections
import concurrent.futures
import inspect
import struct
import sys
import threading
import time
import types

import numpy as np

LAYERS = (
    "geometry",
    "correlation",
    "linalg",
    "estimators",
    "analysis",
    "field",
    "harness",
    "cli",
    "svgplot",
    "validation",
)

# Called per matrix element or per point: wrapping them would cost more
# than they do.
HOT = {
    "geometry.distance",
    "correlation.correlation",
    "correlation.effective_distance",
    "field.median_power",
}

# Coarse boundaries that also get a span record (start, end, parent).
SPANS = {
    "cli.main",
    "cli.cmd_sweep",
    "cli.cmd_grid",
    "cli.load_config",
    "harness.sweep",
    "harness.grid_rmse",
    "svgplot.line_chart",
    "svgplot.heatmap",
}

# Time the dispatching thread spends blocked on its worker pool; kept out
# of the harness's self time.
POOL_WAIT = "harness.pool_wait"
POOL_TASK = "harness.pool_task"


class _ThreadState:
    def __init__(self, name: str):
        self.name = name
        self.stack: list[float] = []  # child wall time accumulated per open span
        self.open_spans: list[int] = []
        # key -> [calls, self_s, total_s]
        self.stats: dict[str, list] = collections.defaultdict(lambda: [0, 0.0, 0.0])
        self.distinct: dict[str, set] = {}
        self.counters: dict[str, float] = {}


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadState] = []
        self.spans: list[dict] = []
        self.t0 = time.perf_counter()

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState(threading.current_thread().name)
            with self._lock:
                self._threads.append(state)
            self._local.state = state
            return state

    # -- wrapping ----------------------------------------------------------

    def wrap(self, key: str, fn, extra=None):
        """fn with its calls and self time counted under key."""
        perf_counter = time.perf_counter
        local = self._local
        new_state = self._state
        record_span = key in SPANS

        def traced(*args, **kwargs):
            try:
                state = local.state
            except AttributeError:
                state = new_state()
            stack = state.stack
            span = self._open_span(state, key) if record_span else None
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                stat = state.stats[key]
                stat[0] += 1
                stat[1] += dt - child
                stat[2] += dt
                if stack:
                    stack[-1] += dt
                if span is not None:
                    self._close_span(state, span)
            if extra is not None:
                extra(state, args, kwargs, result)
            return result

        traced.__name__ = getattr(fn, "__name__", key)
        traced.__qualname__ = getattr(fn, "__qualname__", key)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    def _open_span(self, state: _ThreadState, name: str) -> int:
        with self._lock:
            index = len(self.spans)
            self.spans.append(
                {
                    "name": name,
                    "thread": state.name,
                    "parent": state.open_spans[-1] if state.open_spans else None,
                    "start_s": time.perf_counter() - self.t0,
                    "end_s": None,
                }
            )
        state.open_spans.append(index)
        return index

    def _close_span(self, state: _ThreadState, index: int) -> None:
        self.spans[index]["end_s"] = time.perf_counter() - self.t0
        state.open_spans.pop()

    # -- results -----------------------------------------------------------

    def merged(self) -> tuple[dict, dict, dict]:
        """(stats key -> [calls, self_s, total_s], distinct key -> count, counters)."""
        stats: dict[str, list] = {}
        distinct: dict[str, set] = {}
        counters: dict[str, float] = {}
        with self._lock:
            threads = list(self._threads)
        for st in threads:
            for key, (calls, self_s, total_s) in st.stats.items():
                agg = stats.setdefault(key, [0, 0.0, 0.0])
                agg[0] += calls
                agg[1] += self_s
                agg[2] += total_s
            for key, seen in st.distinct.items():
                distinct.setdefault(key, set()).update(seen)
            for key, v in st.counters.items():
                counters[key] = counters.get(key, 0) + v
        return stats, {k: len(v) for k, v in distinct.items()}, counters


# ---------------------------------------------------------------------------
# per-function counters


def _add_distinct(state: _ThreadState, key: str, token: bytes) -> None:
    seen = state.distinct.get(key)
    if seen is None:
        seen = state.distinct[key] = set()
    seen.add(token)


def _count(state: _ThreadState, key: str, amount: float) -> None:
    state.counters[key] = state.counters.get(key, 0) + amount


def _cholesky_extra(state, args, kwargs, result):
    m = args[0] if args else kwargs["m"]
    a = np.asarray(m, dtype=float)
    _add_distinct(state, "linalg.cholesky", repr(a.shape).encode() + a.tobytes())


def _sibson_extra(state, args, kwargs, result):
    sensors = args[0] if args else kwargs["sensors"]
    p0 = args[1] if len(args) > 1 else kwargs["p0"]
    coords = [c for s in sensors for c in (s.x, s.y)] + [p0.x, p0.y]
    _add_distinct(state, "estimators.sibson_weights", struct.pack(f"{len(coords)}d", *coords))


def _quadratic_form_extra(state, args, kwargs, result):
    if result < 0.0:
        _count(state, "linalg.quadratic_form.negative", 1)


def _normal_block_extra(signature):
    def extra(state, args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        n_variates = bound.arguments["n_variates"]
        realizations = bound.arguments["realizations"]
        # stream contract: each realization owns 4 * ceil(n / 4) raw words
        words = 4 * ((n_variates + 3) // 4)
        _count(state, "field.standard_normal_block.normals", n_variates * realizations)
        _count(state, "field.standard_normal_block.words", words * realizations)

    return extra


def _extras(modules: dict[str, types.ModuleType]) -> dict:
    return {
        "linalg.cholesky": _cholesky_extra,
        "estimators.sibson_weights": _sibson_extra,
        "linalg.quadratic_form": _quadratic_form_extra,
        "field.standard_normal_block": _normal_block_extra(
            inspect.signature(modules["field"].standard_normal_block)
        ),
    }


# ---------------------------------------------------------------------------
# installation


def _public_functions(layer: str, module: types.ModuleType) -> dict[str, types.FunctionType]:
    found = {}
    for name, obj in vars(module).items():
        if name.startswith("_") or not isinstance(obj, types.FunctionType):
            continue
        if obj.__module__ != module.__name__ or f"{layer}.{name}" in HOT:
            continue
        found[f"{layer}.{name}"] = obj
    return found


def install(tracer: Tracer) -> int:
    """Patch every binding of every traced function; returns the binding count.

    Modules come from sys.modules: on the package, ``radiomap.correlation``
    is the re-exported function, not the submodule.
    """
    package = sys.modules["radiomap"]
    modules = {layer: sys.modules[f"radiomap.{layer}"] for layer in LAYERS}
    originals: dict[str, types.FunctionType] = {}
    for layer, module in modules.items():
        originals.update(_public_functions(layer, module))
    by_id = {id(fn): key for key, fn in originals.items()}
    extras = _extras(modules)
    wrappers = {key: tracer.wrap(key, fn, extras.get(key)) for key, fn in originals.items()}

    holders = [package, *modules.values()]
    patched = 0
    for holder in holders:
        for name, value in list(vars(holder).items()):
            key = by_id.get(id(value))
            if key is None:
                _check_not_shadowed(holder, name, value, originals)
                continue
            setattr(holder, name, wrappers[key])
            patched += 1
    _install_pool(tracer, modules["harness"])
    return patched


def _check_not_shadowed(holder, name, value, originals) -> None:
    """A radiomap function bound under a traced key must be the original."""
    if not isinstance(value, types.FunctionType) or not value.__module__.startswith("radiomap."):
        return
    key = f"{value.__module__.rsplit('.', 1)[1]}.{value.__name__}"
    if key in originals and value is not originals[key]:
        raise RuntimeError(
            f"{holder.__name__}.{name} binds a different {key} than its defining module"
        )


def _install_pool(tracer: Tracer, harness: types.ModuleType) -> None:
    """Count pool tasks as harness work and the dispatcher's wait apart from it."""
    base = concurrent.futures.ThreadPoolExecutor
    if harness.ThreadPoolExecutor is not base:
        raise RuntimeError("radiomap.harness.ThreadPoolExecutor is not the stdlib executor")

    class TracedPool(base):
        def __enter__(self):
            state = tracer._state()
            state.stack.append(0.0)
            self._trace_t0 = time.perf_counter()
            return super().__enter__()

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                state = tracer._state()
                dt = time.perf_counter() - self._trace_t0
                child = state.stack.pop()
                stat = state.stats[POOL_WAIT]
                stat[0] += 1
                stat[1] += dt - child
                stat[2] += dt
                if state.stack:
                    state.stack[-1] += dt

        def submit(self, fn, /, *args, **kwargs):
            return super().submit(tracer.wrap(POOL_TASK, fn), *args, **kwargs)

    harness.ThreadPoolExecutor = TracedPool
