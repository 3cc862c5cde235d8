"""Spans around graphburning's public functions, recorded from outside.

`Recorder.install` replaces each target function with a timing wrapper in
every loaded graphburning module that holds it.  The modules import each
other by name (`from .exactlinalg import smith_normal_form`), so patching
only the defining module would miss most calls.  A target missing from the
package is listed in `absent` and simply not timed.

Self time (span duration minus the time covered by child spans) and call
counts are accumulated as spans close, so memory stays flat however many
calls a task makes; the first `span_cap` spans are also kept verbatim for the
spans file.  Counts that need real work (distinct source sets, distinct
generators) are taken in `finish`, after the timed region.
"""

from __future__ import annotations

import sys
import time

PACKAGE = "graphburning"

# (module, function) pairs timed in a traced run.
TARGETS = (
    ("cli", "main"),
    ("graphs", "distances"),
    ("graphs", "validate_graph_map"),
    ("burning", "enumerate_burnings"),
    ("burning", "validate_burning"),
    ("burning", "burning_number"),
    ("burning", "burning_map"),
    ("complexes", "configuration_space"),
    ("complexes", "from_generators"),
    ("complexes", "faces"),
    ("homology", "chain_complex"),
    ("homology", "homology"),
    ("exactlinalg", "smith_normal_form"),
    ("exactlinalg", "field_rank"),
    ("exactlinalg", "mat_mul"),
)


def _add(table: dict, key: str, amount) -> None:
    table[key] = table.get(key, 0) + amount


def _field_rank_name(args, kwargs) -> str:
    ops = args[1] if len(args) > 1 else kwargs.get("ops")
    return "exactlinalg.field_rank_" + ("q" if getattr(ops, "p", None) is None else "fp")


class Recorder:
    def __init__(self, span_cap: int = 0):
        self.span_cap = span_cap
        self.self_ns: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.spans: list[tuple[int, str, int, int, int]] = []  # id, name, start, end, parent id
        self.span_total = 0
        self.absent: list[str] = []
        self.uncounted: set[str] = set()
        self._top = None  # (span id, [ns covered by child spans]) of the open span
        self._held_burnings: list = []
        self._held_generators: list = []
        self._patched: list[tuple[object, str, object]] = []

    # -- counters, run after the span closes --------------------------------

    def _count_burnings(self, args, kwargs, result, computed):
        if computed and hasattr(result, "__len__"):
            _add(self.counts, "burning.burnings", len(result))
            self._held_burnings.append(result)

    def _count_generators(self, args, kwargs, result, computed):
        self._held_generators.append(args[1] if len(args) > 1 else kwargs["simplexes"])
        _add(self.counts, "complexes.facets", len(result.facets))

    def _count_faces(self, args, kwargs, result, computed):
        if computed:
            _add(self.counts, "complexes.faces", len(result))

    def _count_boundary_cells(self, args, kwargs, result, computed):
        dims = result.dims
        cells = sum(dims[q - 1] * dims[q] for q in range(1, len(dims)))
        _add(self.counts, "homology.boundary_cells",
             cells + (dims[0] if result.augmented and dims else 0))

    def _count_snf_cells(self, args, kwargs, result, computed):
        matrix = args[0] if args else kwargs["matrix"]
        rows = len(matrix)
        _add(self.counts, "exactlinalg.snf_cells", rows * len(matrix[0]) if rows else 0)

    @staticmethod
    def _materialise_generators(args, kwargs):
        # from_generators accepts any iterable; a list lets the count see it too.
        if len(args) > 1:
            return (args[0], list(args[1])) + args[2:], kwargs
        if "simplexes" in kwargs:
            return args, dict(kwargs, simplexes=list(kwargs["simplexes"]))
        return args, kwargs

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name, fn, count=None, prepare=None):
        rec = self
        clock = time.perf_counter_ns
        cache_info = getattr(fn, "cache_info", None) if count else None

        def wrapper(*args, **kwargs):
            if prepare is not None:
                args, kwargs = prepare(args, kwargs)
            key = name(args, kwargs) if callable(name) else name
            misses = cache_info().misses if cache_info else 0
            sid = rec.span_total
            rec.span_total = sid + 1
            parent = rec._top
            covered = [0]
            rec._top = (sid, covered)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                rec._top = parent
                length = end - start
                _add(rec.self_ns, key, length - covered[0])
                _add(rec.calls, key, 1)
                if parent is not None:
                    parent[1][0] += length
                if sid < rec.span_cap:
                    rec.spans.append((sid, key, start, end, parent[0] if parent else -1))
            if count is not None:
                computed = cache_info is None or cache_info().misses > misses
                try:
                    count(args, kwargs, result, computed)
                except (AttributeError, TypeError, KeyError, IndexError):
                    # The result or arguments changed shape: time it, count nothing.
                    rec.uncounted.add(key)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        hooks = {
            "enumerate_burnings": {"count": self._count_burnings},
            "from_generators": {"count": self._count_generators,
                                "prepare": self._materialise_generators},
            "faces": {"count": self._count_faces},
            "chain_complex": {"count": self._count_boundary_cells},
            "smith_normal_form": {"count": self._count_snf_cells},
            "field_rank": {"name": _field_rank_name},
        }
        loaded = [m for key, m in sys.modules.items()
                  if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for module_name, fn_name in TARGETS:
            home = sys.modules.get(f"{PACKAGE}.{module_name}")
            original = getattr(home, fn_name, None)
            if original is None:
                self.absent.append(f"{module_name}.{fn_name}")
                continue
            hook = hooks.get(fn_name, {})
            wrapper = self._wrap(hook.get("name", f"{module_name}.{fn_name}"), original,
                                 hook.get("count"), hook.get("prepare"))
            for module in loaded:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def finish(self) -> dict:
        """Per-task totals: self ms and calls per span name, and counts."""
        self.uninstall()
        counts = dict(self.counts)
        try:
            if self._held_burnings:
                counts["burning.source_sets"] = sum(
                    len({frozenset(b.sources) for b in burnings})
                    for burnings in self._held_burnings)
            if self._held_generators:
                counts["complexes.generators"] = sum(
                    len({frozenset(s) for s in generators})
                    for generators in self._held_generators)
        except (AttributeError, TypeError):
            self.uncounted.add("deferred counts")
        self._held_burnings.clear()
        self._held_generators.clear()
        return {"self_ms": {k: v / 1e6 for k, v in self.self_ns.items()},
                "calls": dict(self.calls), "counts": counts,
                "absent": list(self.absent), "uncounted": sorted(self.uncounted),
                "span_total": self.span_total}

    def spans_record(self) -> dict:
        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {"names": names, "span_total": self.span_total, "span_cap": self.span_cap,
                "columns": ["id", "name", "start_ns", "end_ns", "parent_id"],
                "spans": [[sid, index[n], start, end, parent]
                          for sid, n, start, end, parent in sorted(self.spans)]}
