"""In-memory call tracing of the blockunfold modules, applied from outside.

``patched(tracer)`` wraps every public module-level function of the nine
blockunfold modules and rebinds each module-level name that refers to it,
because ``cli``, ``unfolding``, ``solvers``, ``verify`` and others import
functions with ``from .x import y`` and call them through their own binding.
Leaving the context restores every original binding.

Each wrapped call records a span (name, start, end, parent span) in flat
arrays; ``Tracer.summary()`` turns them into per-function ``calls``,
``self_s`` (span duration minus the time its direct child spans cover),
``errors`` and, for a few functions, a size count (``elems``, ``rows``,
``bytes``).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import time
from array import array
from collections import defaultdict
from typing import Callable

import numpy as np

PACKAGE = "blockunfold"
MODULES = (
    "cli",
    "datagen",
    "blockcore",
    "weights",
    "operators",
    "solvers",
    "unfolding",
    "training",
    "verify",
)

# The CLI subcommands are reported under their stage names (cli.gen, ...).
CLI_STAGE_NAMES = {f"cmd_{s}": s for s in ("gen", "weights", "train", "eval", "verify", "all")}


def _first(args, kwargs, index: int, key: str):
    return args[index] if len(args) > index else kwargs[key]


def _elems(args, kwargs) -> int:
    return int(np.size(_first(args, kwargs, 0, "Z")))


def _rows(args, kwargs) -> int:
    Y = _first(args, kwargs, 1, "Y")
    return 1 if np.ndim(Y) == 1 else int(np.shape(Y)[0])


def _file_bytes(args, kwargs) -> int:
    return os.path.getsize(_first(args, kwargs, 0, "path"))


def _count(args, kwargs) -> int:
    return int(_first(args, kwargs, 2, "count"))


# Size counters: traced name -> (stat name, size of one successful call).
SIZES: dict[str, tuple[str, Callable]] = {
    "operators.eta": ("elems", _elems),
    "operators.eta_jvp": ("elems", _elems),
    "operators.eta_dalpha": ("elems", _elems),
    "unfolding.forward": ("rows", _rows),
    "unfolding.save_checkpoint": ("bytes", _file_bytes),
    "unfolding.load_checkpoint": ("bytes", _file_bytes),
    "blockcore.save_matrix": ("bytes", _file_bytes),
    "blockcore.load_matrix": ("bytes", _file_bytes),
    "datagen.gen_signal_batch": ("rows", _count),
}


class Tracer:
    """Spans and counts of wrapped calls, kept in memory.

    Spans are stored column-wise: ``name_ids[i]``, ``starts[i]``,
    ``ends[i]`` and ``parents[i]`` (index of the enclosing span, -1 at the
    root).  Single-threaded use only: the open-span stack is shared.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self._stack: list[int] = []
        self.errors: dict[str, int] = defaultdict(int)
        self.sizes: dict[str, int] = defaultdict(int)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(float("nan"))
        self._stack.append(index)
        self.starts.append(self.clock())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = self.clock()
        if self._stack.pop() != index:
            raise RuntimeError("spans closed out of order")

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with a span named ``name`` around every call."""
        nid = self.name_id(name)
        size = SIZES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.errors[name] += 1
                raise
            finally:
                self.close(index)
            if size is not None:
                self.sizes[f"{name}.{size[0]}"] += size[1](args, kwargs)
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        if not self.starts:
            return {}
        duration = np.frombuffer(self.ends, dtype=np.float64) - np.frombuffer(
            self.starts, dtype=np.float64
        )
        parents = np.frombuffer(self.parents, dtype=np.int32)
        covered = np.zeros_like(duration)
        nested = parents >= 0
        np.add.at(covered, parents[nested], duration[nested])
        totals = np.bincount(
            np.frombuffer(self.name_ids, dtype=np.int32),
            weights=duration - covered,
            minlength=len(self.names),
        )
        return {name: float(totals[i]) for i, name in enumerate(self.names)}

    def summary(self) -> dict[str, float]:
        """``<module>.<function>.<stat>`` for every wrapped function, and
        ``<module>.self_s``, the self time of all of a module's functions."""
        calls = np.bincount(
            np.frombuffer(self.name_ids, dtype=np.int32), minlength=len(self.names)
        )
        self_s = self.self_times()
        out: dict[str, float] = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
            out[f"{name}.errors"] = self.errors.get(name, 0)
        for name, value in self_s.items():
            module_total = f"{name.split('.')[0]}.self_s"
            out[module_total] = out.get(module_total, 0.0) + value
        for name, (stat, _) in SIZES.items():
            if name in self._ids:
                out[f"{name}.{stat}"] = self.sizes.get(f"{name}.{stat}", 0)
        return out

    def dump(self, path) -> None:
        """Write the spans to ``path`` as a compressed numpy archive."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_ids=np.frombuffer(self.name_ids, dtype=np.int32),
            starts=np.frombuffer(self.starts, dtype=np.float64),
            ends=np.frombuffer(self.ends, dtype=np.float64),
            parents=np.frombuffer(self.parents, dtype=np.int32),
        )


def _noop():
    return None


def wrapper_cost(repeats: int = 50_000) -> float:
    """Seconds a traced call adds to a plain one, measured on a no-op."""
    wrapped = Tracer().wrap("noop", _noop)
    start = time.perf_counter()
    for _ in range(repeats):
        wrapped()
    middle = time.perf_counter()
    for _ in range(repeats):
        _noop()
    return max(0.0, (2 * middle - start - time.perf_counter()) / repeats)


def public_functions(module) -> dict[str, Callable]:
    """Public functions defined in ``module`` (not re-exported ones)."""
    return {
        attr: obj
        for attr, obj in vars(module).items()
        if inspect.isfunction(obj)
        and obj.__module__ == module.__name__
        and not attr.startswith("_")
    }


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Trace every public function of the nine modules while inside."""
    modules = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
    wrappers: dict[int, tuple[Callable, Callable]] = {}
    for mname, module in modules.items():
        for attr, fn in public_functions(module).items():
            name = f"{mname}.{CLI_STAGE_NAMES.get(attr, attr) if mname == 'cli' else attr}"
            wrappers[id(fn)] = (fn, tracer.wrap(name, fn))
    rebound = []
    try:
        for namespace in modules.values():
            for attr, obj in list(vars(namespace).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(namespace, attr, entry[1])
                    rebound.append((namespace, attr, obj))
        yield tracer
    finally:
        for namespace, attr, obj in rebound:
            setattr(namespace, attr, obj)
