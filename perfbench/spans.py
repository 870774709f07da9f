"""Spans around calls into dimerkit's public functions, recorded from outside.

``Tracer.install()`` replaces each traced function, in every dimerkit module
namespace that holds it, by a wrapper that records one span per call:
name, start, end, parent span and op id, plus a work count read off the
result.  ``uninstall()`` puts the originals back.  Nothing inside the
package changes; the spans stop at the public function boundary.

``relations`` stays unwrapped inside ``dimerkit.quiver``: its only caller
there, ``rep_satisfies_relations``, runs at every candidate-DFS leaf, whose
time belongs to ``charts.enumerate_fixed_candidates``.

``layer_metrics`` turns the spans of one pass into the per-layer metrics.
"""

from __future__ import annotations

import importlib
import time

# layer -> traced public functions of that dimerkit module
TRACED = {
    "model": ("load_model", "validate_model"),
    "quiver": ("quiver_of", "relations"),
    "matchings": (
        "perfect_matchings",
        "enumerate_matchings",
        "r_charge_average",
        "is_non_degenerate",
    ),
    "heights": ("char_poly", "newton_polygon"),
    "lattice": (
        "cochar_lattice",
        "split_by_reference",
        "cone_over_polygon",
        "dual_cone",
        "hilbert_basis",
    ),
    "stability": ("sample_generic_theta",),
    "charts": (
        "assemble_fan",
        "enumerate_fixed_candidates",
        "classify_chart",
        "chart_characters",
        "chart_rows",
        "chart_cone",
        "verify_crepant",
    ),
}
NAMESPACES = (
    "dimerkit",
    "dimerkit.cli",
    "dimerkit.charts",
    "dimerkit.heights",
    "dimerkit.lattice",
    "dimerkit.matchings",
    "dimerkit.model",
    "dimerkit.quiver",
    "dimerkit.render",
    "dimerkit.stability",
)
UNWRAPPED = {("dimerkit.quiver", "relations")}

# per-layer time metric -> the traced functions it sums (outermost calls only)
FUNCTION_METRICS = {
    "model.load_model.s": ("model.load_model",),
    "model.validate_model.s": ("model.validate_model",),
    "quiver.quiver_of.s": ("quiver.quiver_of",),
    "quiver.relations.s": ("quiver.relations",),
    "matchings.perfect_matchings.s": ("matchings.perfect_matchings",),
    "matchings.r_charge_average.s": ("matchings.r_charge_average",),
    "matchings.is_non_degenerate.s": ("matchings.is_non_degenerate",),
    "heights.char_poly.s": ("heights.char_poly",),
    "heights.newton_polygon.s": ("heights.newton_polygon",),
    "lattice.cochar_lattice.s": ("lattice.cochar_lattice",),
    "lattice.split_by_reference.s": ("lattice.split_by_reference",),
    "lattice.hilbert_basis.s": (
        "lattice.cone_over_polygon",
        "lattice.dual_cone",
        "lattice.hilbert_basis",
    ),
    "stability.sample_generic_theta.s": ("stability.sample_generic_theta",),
    "charts.enumerate_fixed_candidates.s": ("charts.enumerate_fixed_candidates",),
    "charts.classify_chart.s": ("charts.classify_chart",),
    "charts.chart_cone.s": (
        "charts.chart_characters",
        "charts.chart_rows",
        "charts.chart_cone",
    ),
    "charts.verify_crepant.s": ("charts.verify_crepant",),
}

# work counts read off results: span name -> (counter, result -> int)
COUNTERS = {
    "matchings.enumerate_matchings": ("matchings.count", len),
    "heights.char_poly": ("heights.terms", lambda r: len(r.terms)),
    "stability.sample_generic_theta": ("stability.theta_draws", lambda r: r[2]),
    "charts.enumerate_fixed_candidates": ("charts.candidates", len),
}
LAYERS = tuple(TRACED)


class Tracer:
    """Records spans as ``[name, start, end, parent, op, error, count]``.

    ``parent`` is the index of the enclosing span (the op span at the top);
    ``error`` marks the innermost span an exception passed through.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._blamed: set[int] = set()
        self.op = None

    def _wrap(self, name: str, fn):
        spans, stack, blamed = self.spans, self._stack, self._blamed
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else None, self.op, False, None]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = clock()
                if id(exc) not in blamed:
                    blamed.add(id(exc))
                    span[5] = True
                raise
            finally:
                stack.pop()
            span[2] = clock()
            if name in COUNTERS:
                span[6] = COUNTERS[name][1](result)
            return result

        return traced

    def install(self) -> None:
        wrappers = {}
        for layer, names in TRACED.items():
            mod = importlib.import_module(f"dimerkit.{layer}")
            for fname in names:
                fn = getattr(mod, fname, None)
                if fn is not None:
                    wrappers[id(fn)] = self._wrap(f"{layer}.{fname}", fn)
        for ns_name in NAMESPACES:
            ns = importlib.import_module(ns_name)
            for attr, value in list(vars(ns).items()):
                if id(value) in wrappers and (ns_name, attr) not in UNWRAPPED:
                    self._saved.append((ns, attr, value))
                    setattr(ns, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for ns, attr, value in reversed(self._saved):
            setattr(ns, attr, value)
        self._saved.clear()

    def begin_op(self, op, name: str) -> None:
        self.op = op
        self._blamed.clear()
        self.spans.append([name, time.perf_counter(), 0.0, None, op, False, None])
        self._stack.append(len(self.spans) - 1)

    def end_op(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()
        self.op = None

    def blamed_layer(self, op) -> str | None:
        """Layer of the span that an exception of ``op`` escaped from."""
        for s in self.spans:
            if s[4] == op and s[5] and s[3] is not None:
                return s[0].split(".")[0]
        return None


def per_layer_metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    counters = {c for c, _ in COUNTERS.values()}
    for layer in LAYERS:
        out += [(m, "s") for m in FUNCTION_METRICS if m.startswith(layer + ".")]
        out += [(c, "count") for c in sorted(counters) if c.startswith(layer + ".")]
        if layer == "stability":
            out.append(("stability.theta_accept_ratio", "ratio"))
        out += [
            (f"{layer}.busy_s", "s"),
            (f"{layer}.self_s", "s"),
            (f"{layer}.calls", "count"),
            (f"{layer}.failures", "count"),
        ]
    out += [
        ("cli.unattributed.s", "s"),
        ("cli.calls", "count"),
        ("cli.failures", "count"),
        ("trace.overhead_s", "s"),
    ]
    return out


def layer_metrics(spans: list[list], check_failures: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics of one pass from its spans.

    Op spans have no parent.  A layer's busy time sums its outermost spans,
    its self time subtracts from each span what its child spans cover; a
    function metric sums the calls not nested in a call of the same metric.
    ``check_failures`` adds failed output checks to the layer they blame.
    """
    m: dict[str, float] = {name: 0 for name, _ in per_layer_metric_names()}
    m.pop("trace.overhead_s")
    group_of = {f: metric for metric, fs in FUNCTION_METRICS.items() for f in fs}
    children: dict[int, float] = {}
    for s in spans:
        if s[3] is not None:
            children[s[3]] = children.get(s[3], 0.0) + (s[2] - s[1])

    def has_ancestor(i: int, pred) -> bool:
        p = spans[i][3]
        while p is not None:
            if pred(spans[p]):
                return True
            p = spans[p][3]
        return False

    accepted = 0
    for i, s in enumerate(spans):
        name, dur = s[0], s[2] - s[1]
        if s[3] is None:
            m["cli.calls"] += 1
            m["cli.unattributed.s"] += dur - children.get(i, 0.0)
            continue
        layer = name.split(".")[0]
        m[f"{layer}.calls"] += 1
        m[f"{layer}.failures"] += s[5]
        m[f"{layer}.self_s"] += dur - children.get(i, 0.0)
        if not has_ancestor(i, lambda p: p[3] is not None and p[0].split(".")[0] == layer):
            m[f"{layer}.busy_s"] += dur
        group = group_of.get(name)
        if group and not has_ancestor(i, lambda p: group_of.get(p[0]) == group):
            m[group] += dur
        if name in COUNTERS and s[6] is not None:
            m[COUNTERS[name][0]] += s[6]
            accepted += name == "stability.sample_generic_theta"
    draws = m["stability.theta_draws"]
    m["stability.theta_accept_ratio"] = accepted / draws if draws else 0.0
    for layer, n in check_failures.items():
        m[f"{layer}.failures"] += n
    return m
