"""Spans around kvar's public functions, recorded from outside the program.

``Tracer.install`` replaces each listed function or method by a wrapper,
in its own module and in every ``kvar`` module that imported it by name
(``cli`` imports ``extend_measure`` directly, for one).  Spans nest: a
wrapper charges its duration to the enclosing span's children, so a
layer's self time is its span time minus its child spans.  Spans are
aggregated in memory per name (self seconds, calls) rather than kept one
by one: a size-800 battery makes millions of them.

Time a wrapper spends on its own counters is charged to no span.  Spans
are timed on the clock the ``Tracer`` is given; the workers give it one
that leaves out the host probe's time (``hostclock``).
"""

from __future__ import annotations

import functools
import sys
import time
import weakref
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

# (module, attribute path, span name); names are the per-layer metric stems
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("kvar.kring", "RelationSet.from_json", "kring.RelationSet.from_json"),
    ("kvar.kring", "parse_expr", "kring.parse_expr"),
    ("kvar.kring", "normalize", "kring.normalize"),
    ("kvar.kring", "g_map", "kring.g_map"),
    ("kvar.kring", "expr_to_text", "kring.expr_to_text"),
    ("kvar.toric", "Fan.class_of", "toric.Fan.class_of"),
    ("kvar.toric", "Fan.product", "toric.Fan.product"),
    ("kvar.toric", "complete_surface", "toric.complete_surface"),
    ("kvar.toric", "star_subdivide", "toric.star_subdivide"),
    ("kvar.spansite", "enumerate_simple_covers", "spansite.enumerate_simple_covers"),
    ("kvar.spansite", "check_c_complete", "spansite.check_c_complete"),
    ("kvar.spansite", "compose", "spansite.compose"),
    ("kvar.spansite", "validate_square", "spansite.validate_square"),
    ("kvar.csupport", "extend_measure", "csupport.extend_measure"),
    ("kvar.csupport", "consistency_check", "csupport.consistency_check"),
    ("kvar.csupport", "additivity_check", "csupport.additivity_check"),
    ("kvar.measures", "apply_measure", "measures.apply_measure"),
    ("kvar.corpus", "generate", "corpus.generate"),
    ("kvar.cli", "Report.to_json_text", "cli.Report.to_json_text"),
)

CHECK_KINDS = (
    "additivity", "independence", "square_relation", "blowup_descent",
    "mayer_vietoris", "kunneth", "c_complete", "dim_compatible",
    "square_valid", "purity", "point_count_oracle", "cover_monotone",
)


def metric_names() -> List[str]:
    """Every per-layer metric, in the order BENCHMARK.json lists them."""
    return [
        "kring.RelationSet.from_json.self_s", "kring.parse_expr.self_s",
        "kring.normalize.cold_s", "kring.normalize.warm_s", "kring.normalize.calls",
        "kring.g_map.self_s", "kring.expr_to_text.self_s", "kring.nodes",
        "toric.Fan.class_of.self_s", "toric.Fan.class_of.calls",
        "toric.Fan.product.self_s", "toric.Fan.product.calls",
        "toric.complete_surface.self_s", "toric.star_subdivide.self_s",
        "toric.cones_interned",
        "spansite.enumerate_simple_covers.self_s", "spansite.enumerate_simple_covers.calls",
        "spansite.covers_enumerated", "spansite.check_c_complete.self_s",
        "spansite.compose.self_s", "spansite.compose.calls",
        "spansite.validate_square.self_s",
        "csupport.extend_measure.self_s", "csupport.extend_measure.calls",
        "csupport.extend_measure.distinct",
        "csupport.consistency_check.self_s", "csupport.additivity_check.self_s",
        "measures.apply_measure.self_s", "measures.apply_measure.calls",
        "corpus.generate.self_s",
        "cli.Report.to_json_text.self_s", "cli.report_bytes",
    ] + [f"check.{k}.s" for k in CHECK_KINDS]


def metric_unit(name: str) -> str:
    return "s" if name.endswith(("_s", ".s")) else (
        "bytes" if name.endswith("_bytes") else "count")


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        self._stack: List[float] = []
        self._seen_rels = weakref.WeakSet()
        self._extended = set()
        self._patches: List[Tuple[object, str, object]] = []

    # -- span bookkeeping ------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, label: Optional[Callable] = None,
              after: Optional[Callable] = None) -> Callable:
        stack = self._stack
        self_s, calls = self.self_s, self.calls
        clock = self._clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = label(args, kwargs) if label else name
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_s[span] += dt - stack.pop()
                calls[span] += 1
                if stack:
                    stack[-1] += dt
            if after:
                t1 = clock()
                after(args, kwargs, result)
                if stack:
                    stack[-1] += clock() - t1
            return result
        return wrapper

    def _normalize_label(self, args, kwargs) -> str:
        from kvar import kring
        rels = args[1] if len(args) > 1 else kwargs.get("rels")
        rels = rels if rels is not None else kring.EMPTY_RELATIONS
        if rels in self._seen_rels:
            return "kring.normalize.warm"
        self._seen_rels.add(rels)
        return "kring.normalize.cold"

    def _after_parse(self, args, kwargs, result) -> None:
        from kvar import kring
        self.counts["kring.nodes"] += kring.expr_size(result)

    def _after_covers(self, args, kwargs, result) -> None:
        self.counts["spansite.covers_enumerated"] += len(result)

    def _after_extend(self, args, kwargs, result) -> None:
        phi = args[0] if args else kwargs["phi"]
        obj = args[1] if len(args) > 1 else kwargs["obj"]
        locus = getattr(obj, "locus", None)
        if locus is not None:
            key = (phi.name, locus.fan, locus.cones)
        elif hasattr(obj, "fan"):
            key = (phi.name, obj.fan)
        else:
            key = (phi.name, type(obj).__name__, obj.name)
        self._extended.add(key)

    def _after_report(self, args, kwargs, result) -> None:
        self.counts["cli.report_bytes"] += len(result)

    # -- install and remove ----------------------------------------------------

    def install(self) -> None:
        if self._patches:
            return
        import kvar.cli  # noqa: F401  (imports every kvar module)
        special = {
            "kring.normalize": dict(label=self._normalize_label),
            "kring.parse_expr": dict(after=self._after_parse),
            "spansite.enumerate_simple_covers": dict(after=self._after_covers),
            "csupport.extend_measure": dict(after=self._after_extend),
            "cli.Report.to_json_text": dict(after=self._after_report),
        }
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "kvar" or n.startswith("kvar.")]
        for mod_name, path, name in TARGETS:
            owner = sys.modules[mod_name]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                is_static = isinstance(raw, staticmethod)
                fn = raw.__func__ if is_static else raw
                wrapped = self._wrap(name, fn, **special.get(name, {}))
                self._patches.append((cls, attr, raw))
                setattr(cls, attr, staticmethod(wrapped) if is_static else wrapped)
                continue
            fn = getattr(owner, path)
            wrapped = self._wrap(name, fn, **special.get(name, {}))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patches.append((mod, attr, fn))
                        setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------------

    def snapshot(self, scale: float = 1.0) -> Dict[str, float]:
        """Aggregates so far, under the per-layer metric names; times times ``scale``."""
        from kvar import toric
        out: Dict[str, float] = {}
        for name in metric_names():
            if name.startswith("check."):
                continue
            stem, _, field = name.rpartition(".")
            if name == "kring.normalize.cold_s":
                out[name] = self.self_s.get("kring.normalize.cold", 0.0) * scale
            elif name == "kring.normalize.warm_s":
                out[name] = self.self_s.get("kring.normalize.warm", 0.0) * scale
            elif name == "kring.normalize.calls":
                out[name] = (self.calls.get("kring.normalize.cold", 0)
                             + self.calls.get("kring.normalize.warm", 0))
            elif name == "csupport.extend_measure.distinct":
                out[name] = len(self._extended)
            elif name == "toric.cones_interned":
                out[name] = len(toric.Cone._interned)
            elif field == "self_s":
                out[name] = self.self_s.get(stem, 0.0) * scale
            elif field == "calls":
                out[name] = self.calls.get(stem, 0)
            else:
                out[name] = self.counts.get(name, 0)
        return out
