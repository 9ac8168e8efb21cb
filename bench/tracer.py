"""Per-layer tracing from outside the program.

``Tracer.install`` replaces each traced lefbench function with a wrapper
that records a span (name, start, end, parent, request id) and work counts
taken from its arguments and return value.  A function imported by name
into another module is a second binding of the same object; every module
of the package is searched for such bindings (``cli.build_tower``,
``tower.wrap``, ``oracle.minimal_position``, ...) and each one is patched,
so no call path escapes.  ``uninstall`` puts the originals back.

Spans stay in memory until ``write_spans``, with raw start and end times.
Self time of a span is its duration minus the durations of its direct
child spans; ``metrics`` takes the function that turns start and end into
a duration (run.py corrects for the core's speed, see speed.py).

The exact-arithmetic primitives of ``exactgeom`` are called too often to
wrap without distorting the run; their cost shows only through coordinate
sizes (``*.max_den_bits``).
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# span name -> (module, attribute); "Class.method" patches the class
SPANS = {
    "config.load_config": ("lefbench.config", "load_config"),
    "fibration.validate": ("lefbench.fibration", "validate"),
    "fibration.total_space_homology":
        ("lefbench.fibration", "total_space_homology"),
    "snf.smith_form": ("lefbench.snf", "smith_form"),
    "oracle.matching_floer_rank": ("lefbench.oracle", "matching_floer_rank"),
    "rank_calculus.analyze": ("lefbench.rank_calculus", "analyze"),
    "rank_calculus.fs_hom_ranks": ("lefbench.rank_calculus", "fs_hom_ranks"),
    "tower.build_tower": ("lefbench.tower", "build_tower"),
    "tower.build_stage": ("lefbench.tower", "build_stage"),
    "wrapping.wrap": ("lefbench.wrapping", "wrap"),
    "svg.diagram_files": ("lefbench.svg", "diagram_files"),
    "svg.stage_svg": ("lefbench.svg", "stage_svg"),
    "minpos.minimal_position": ("lefbench.minpos", "minimal_position"),
    "minpos.intersection_profile": ("lefbench.minpos", "intersection_profile"),
    "minpos.compute_crossings": ("lefbench.minpos", "compute_crossings"),
    "minpos.find_empty_bigons": ("lefbench.minpos", "find_empty_bigons"),
    "minpos.eliminate_bigon": ("lefbench.minpos", "eliminate_bigon"),
    "disc.validate": ("lefbench.disc", "PlanarArc.validate"),
}
# counted, not timed: cheap lookups called many times per request
QUERIES = ("rank_of", "rank_known", "parity_of", "isomorphic_objects")

LAYERS = ("cli", "config", "fibration", "snf", "oracle", "rank_calculus",
          "tower", "wrapping", "svg", "minpos", "disc")


def den_bits(arcs) -> int:
    return max((max(v.x.denominator.bit_length(), v.y.denominator.bit_length())
                for arc in arcs for v in arc.vertices), default=0)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []       # name, start, end, parent, request
        self._stack: list[int] = []
        self.request = 0                   # id of the current request
        self.counts: Counter = Counter()   # totals over traced requests
        self.in_request: Counter = Counter()
        self._arcs: set = set()            # distinct arcs validated, per request
        self._patches: list[tuple] = []

    # -- spans ---------------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.request)
            self.in_request[name] += 1

    def begin_request(self) -> None:
        self.request += 1
        self.in_request = Counter()
        self._arcs = set()

    def end_request(self) -> None:
        self.counts.update(self.in_request)
        self.counts["disc.validate.distinct"] += len(self._arcs)

    # -- patching --------------------------------------------------------

    def _wrapper(self, name: str, fn):
        observe = getattr(self, "_on_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if observe is not None:
                observe(args, result)
            return result
        return traced

    def _counter(self, name: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.in_request[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _patch_everywhere(self, fn, replacement) -> None:
        for modname, mod in list(sys.modules.items()):
            if modname == "lefbench" or modname.startswith("lefbench."):
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patches.append((mod, attr, fn))
                        setattr(mod, attr, replacement)

    def install(self) -> None:
        for name, (modname, attr) in SPANS.items():
            owner = sys.modules[modname]
            cls, _, method = attr.rpartition(".")
            if cls:
                owner = getattr(owner, cls)
                fn = vars(owner)[method]
                self._patches.append((owner, method, fn))
                setattr(owner, method, self._wrapper(name, fn))
            else:
                fn = getattr(owner, attr)
                self._patch_everywhere(fn, self._wrapper(name, fn))
        oracle_cls = sys.modules["lefbench.oracle"].FiberOracle
        for method in QUERIES:
            fn = vars(oracle_cls)[method]
            self._patches.append((oracle_cls, method, fn))
            setattr(oracle_cls, method, self._counter("oracle.queries", fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    # -- work counts from arguments and results ----------------------------

    def _on_disc_validate(self, args, _result) -> None:
        arc = args[0]
        self.in_request["disc.validate.segments"] += len(arc.vertices) - 1
        self._arcs.add(arc)

    def _on_wrapping_wrap(self, _args, arc) -> None:
        self.in_request["wrapping.spiral_vertices"] += len(arc.vertices)
        bits = den_bits([arc])
        self.counts["wrapping.max_den_bits"] = max(
            self.counts["wrapping.max_den_bits"], bits)

    def _on_minpos_minimal_position(self, _args, pair) -> None:
        bits = den_bits(pair)
        self.counts["minpos.max_den_bits"] = max(
            self.counts["minpos.max_den_bits"], bits)

    def _on_minpos_compute_crossings(self, _args, found) -> None:
        self.in_request["minpos.crossings_found"] += len(found)

    # -- results -----------------------------------------------------------

    def metrics(self, duration) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as (value, unit), averaged per traced request.
        ``duration(start, end)`` gives a span's time in seconds."""
        calls: Counter = Counter()
        incl: Counter = Counter()
        selfs: Counter = Counter()
        child = defaultdict(float)
        open_names: dict[int, set] = {}
        took = [duration(start, end) for _, start, end, _, _ in self.spans]
        for i, (name, _, _, parent, _) in enumerate(self.spans):
            calls[name] += 1
            # inclusive time counts the outermost span of a recursive call
            outer = open_names.get(parent, set())
            if name not in outer:
                incl[name] += took[i]
            open_names[i] = outer | {name}
            if parent >= 0:
                child[parent] += took[i]
        for i, (name, _, _, _, _) in enumerate(self.spans):
            selfs[name] += took[i] - child[i]

        n = max(self.request, 1)
        c = self.counts
        out: dict[str, tuple[float, str]] = {}
        for name in SPANS:
            out[f"{name}.calls"] = (calls[name] / n, "calls/req")
            out[f"{name}.incl_s"] = (incl[name] / n, "s/req")
        out["cli.main.calls"] = (calls["cli.main"] / n, "calls/req")
        for name in ("wrapping.wrap", "minpos.minimal_position"):
            out[f"{name}.self_s"] = (selfs[name] / n, "s/req")
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (sum(
                v for k, v in selfs.items()
                if k.partition(".")[0] == layer) / n, "s/req")
        validated = calls["disc.validate"]
        positioned = calls["minpos.minimal_position"]
        out.update({
            "disc.validate.segments":
                (c["disc.validate.segments"] / n, "count/req"),
            "disc.validate.distinct_ratio":
                (c["disc.validate.distinct"] / validated if validated
                 else 1.0, "ratio"),
            "wrapping.spiral_vertices":
                (c["wrapping.spiral_vertices"] / n, "count/req"),
            "wrapping.max_den_bits": (c["wrapping.max_den_bits"], "bits"),
            "minpos.crossings_found":
                (c["minpos.crossings_found"] / n, "count/req"),
            "minpos.bigons_per_call":
                (calls["minpos.eliminate_bigon"] / positioned if positioned
                 else 0.0, "ratio"),
            "minpos.max_den_bits": (c["minpos.max_den_bits"], "bits"),
            "oracle.queries": (c["oracle.queries"] / n, "calls/req"),
            "trace.request_s": (incl["cli.main"] / n, "s/req"),
        })
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
