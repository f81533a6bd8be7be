"""In-process tracer for qdiode: spans around every public function binding.

``Tracer.install()`` replaces each public function bound in a loaded
``qdiode.*`` module with a wrapper that records a span
``[name, start, end, parent, job, error, value]``. A qdiode function is named
after the module that defines it (``operators.steady_state``), wherever it is
bound, so a call through ``from .operators import steady_state`` in another
module lands on the same span name. A scipy function is named after the
qdiode module that binds it (``spectrum.expm``), which is the layer that pays
for it. Spans stay in memory until the caller writes them out.

``aggregate()`` turns a span list into per-name and per-layer totals. A span's
self time is its duration minus the durations of its direct children, so the
self times of all spans under one root add up to the root's duration.
"""

from __future__ import annotations

import functools
import sys
import time
import types

# Fields of a span record.
NAME, START, END, PARENT, JOB, ERROR, VALUE = range(7)


# Work counts carried by a call's return value, which no call count gives:
# optimizer evaluations, fitter iterations and Monte Carlo samples.
_VALUES = {
    "spectrum.least_squares": lambda result: int(result.nfev),
    "fitting.fit_single_qubit": lambda result: int(result[1].n_iterations),
    "mirror.simulate_mirror": lambda result: int(result.i_samples.size),
}


def short_module(modname: str) -> str:
    """'qdiode.spectrum' -> 'spectrum'; the package itself stays 'qdiode'."""
    return modname.split(".", 1)[1] if "." in modname else modname


class Tracer:
    """Records spans for calls into qdiode's public functions.

    The span stack is shared by all callers, so trace one thread only.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.job = None
        self._stack: list[int] = []
        self._patched: list[tuple[types.ModuleType, str, object]] = []
        self.names: set[str] = set()

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        value_of = _VALUES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job,
                    False, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[ERROR] = True
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if value_of is not None:
                try:
                    span[VALUE] = value_of(result)
                except (AttributeError, IndexError, TypeError, ValueError):
                    pass  # return type changed: the count is reported absent
            return result

        return traced

    def install(self, package: str = "qdiode") -> None:
        """Wrap every public function binding in the loaded package modules."""
        wrappers: dict[tuple[int, str], object] = {}
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package
                                         or n.startswith(package + "."))]
        for module in modules:
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(fn, types.FunctionType):
                    continue
                origin = getattr(fn, "__module__", "") or ""
                if origin == package or origin.startswith(package + "."):
                    name = f"{short_module(origin)}.{fn.__name__}"
                elif origin.split(".")[0] == "scipy":
                    name = f"{short_module(module.__name__)}.{attr}"
                else:
                    continue
                key = (id(fn), name)
                if key not in wrappers:
                    wrappers[key] = self._wrap(name, fn)
                self._patched.append((module, attr, fn))
                setattr(module, attr, wrappers[key])
                self.names.add(name)

    def uninstall(self) -> None:
        """Restore every binding that install() replaced."""
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def aggregate(spans, job=None) -> tuple[dict, dict]:
    """Per-name and per-layer totals of a span list, or of one job's spans.

    Returns ``(by_name, by_layer)``. ``by_name[name]`` holds ``calls``,
    ``errors``, ``incl_s``, ``self_s`` and ``value`` (the summed work counts);
    ``by_layer[layer]`` holds ``self_s`` and ``calls``, where a layer call is
    a span whose parent lies in another layer (an entry into the layer).
    """
    own = self_times(spans)
    by_name: dict[str, dict] = {}
    by_layer: dict[str, dict] = {}
    for i, s in enumerate(spans):
        if job is not None and s[JOB] != job:
            continue
        n = by_name.setdefault(s[NAME], {"calls": 0, "errors": 0, "incl_s": 0.0,
                                         "self_s": 0.0, "value": 0})
        n["calls"] += 1
        n["errors"] += bool(s[ERROR])
        n["incl_s"] += s[END] - s[START]
        n["self_s"] += own[i]
        if s[VALUE] is not None:
            n["value"] += s[VALUE]
        layer = layer_of(s[NAME])
        entry = by_layer.setdefault(layer, {"self_s": 0.0, "calls": 0})
        entry["self_s"] += own[i]
        parent = s[PARENT]
        if parent < 0 or layer_of(spans[parent][NAME]) != layer:
            entry["calls"] += 1
    return by_name, by_layer
