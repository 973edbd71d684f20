"""Which tgstatus functions the traced run wraps, and the per-layer metrics.

The layers are the package modules: ``model`` (parse and validate),
``replacement``, ``status``, ``ordinal``, ``finite_graph`` and ``cli``.
The ``cli.command`` span is opened by the benchmark around each
in-process command line.  Hot, tiny calls (``Ordinal.__add__``,
``FiniteGraph.__init__``, ``FiniteGraph.is_connected``) are counted,
not spanned, so their time falls into the self time of their caller.
"""

from __future__ import annotations

from tracer import Tracer

CLI_SPAN = "cli.command"
EXTREMAL_SPAN = "finite_graph.extremal"

# (per-layer metric, unit), in report order; BENCHMARK.json lists the same.
METRICS = (
    ("model.parse_s", "s/op"),
    ("model.validate_s", "s/op"),
    ("model.validate_calls", "count/op"),
    ("replacement.build_s", "s/op"),
    ("replacement.p", "count"),
    ("replacement.q", "count"),
    ("status.self_s", "s/op"),
    ("status.sources", "count/op"),
    ("ordinal.add_calls", "count/op"),
    ("ordinal.format_s", "s/op"),
    ("finite_graph.bfs_s", "s/op"),
    ("finite_graph.bfs_calls", "count/op"),
    ("finite_graph.enumerate_s", "s/op"),
    ("finite_graph.graphs_enumerated", "count/op"),
    ("finite_graph.graph_builds", "count/op"),
    ("finite_graph.status_calls", "count/op"),
    ("finite_graph.status_s", "s/op"),
    ("finite_graph.extremal_s", "s/op"),
    ("finite_graph.enum_yield_ratio", "ratio"),
    ("finite_graph.extremal_connected_ratio", "ratio"),
    ("cli.self_s", "s/op"),
    ("trace.op_p50_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


def instrument(tracer: Tracer) -> None:
    """Wrap the layer functions of the loaded tgstatus package."""
    from tgstatus import finite_graph, model, ordinal, replacement, status

    counts = tracer.counts
    current = tracer.current

    for module, attr, name in (
        (model, "parse_document", "model.parse"),
        (model, "validate", "model.validate"),
        (status, "status_report", "status.report"),
        (status, "mu_status", "status.mu_status"),
        (status, "mu_distance", "status.mu_distance"),
        (status, "geodesic", "status.geodesic"),
        (status, "mu_status_bounds", "status.bounds"),
        (ordinal, "format_ordinal", "ordinal.format"),
        (finite_graph.FiniteGraph, "bfs_distances", "finite_graph.bfs"),
        (finite_graph.FiniteGraph, "status", "finite_graph.status"),
        (finite_graph, "extremal_search", EXTREMAL_SPAN),
    ):
        tracer.rebind(module, attr, lambda func, name=name: tracer.span(name, func))

    def record_build(func):
        def build(*args, **kwargs):
            result = func(*args, **kwargs)
            counts["replacement.p_total"] += result.graph.p
            counts["replacement.q_total"] += result.graph.q
            return result

        return tracer.span("replacement.build", build)

    tracer.rebind(replacement, "build_replacement", record_build)

    def on_item(_graph) -> None:
        counts["finite_graph.graphs_enumerated"] += 1

    def on_exhausted(p: int) -> None:
        counts["finite_graph.edge_subsets"] += 1 << (p * (p - 1) // 2)

    tracer.rebind(
        finite_graph,
        "enumerate_connected_graphs",
        lambda func: tracer.span_generator("finite_graph.enumerate", func, on_item, on_exhausted),
    )

    def count_init(func):
        def init(self, *args, **kwargs):
            counts["finite_graph.graph_builds"] += 1
            if current() == EXTREMAL_SPAN:
                counts["finite_graph.extremal_builds"] += 1
            func(self, *args, **kwargs)

        return init

    def count_connected(func):
        def is_connected(self):
            result = func(self)
            if result and current() == EXTREMAL_SPAN:
                counts["finite_graph.extremal_connected"] += 1
            return result

        return is_connected

    tracer.rebind(finite_graph.FiniteGraph, "__init__", count_init)
    tracer.rebind(finite_graph.FiniteGraph, "is_connected", count_connected)
    tracer.rebind(ordinal.Ordinal, "__add__", lambda func: tracer.count("ordinal.add_calls", func))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, n_ops: int) -> dict[str, float]:
    """Per-layer metrics from a traced run of n_ops ops.

    Times and counts are per op; ``replacement.p``/``q`` are means per
    replacement built; ratios are over the whole traced run (0 where the
    workload never does the work).  ``trace.*`` entries are added by
    the caller.
    """
    inclusive, self_time, calls = tracer.spans.totals()
    counts = tracer.counts
    builds = calls["replacement.build"]

    def per_op(value: float) -> float:
        return value / n_ops

    return {
        "model.parse_s": per_op(inclusive.get("model.parse", 0.0)),
        "model.validate_s": per_op(inclusive.get("model.validate", 0.0)),
        "model.validate_calls": per_op(calls["model.validate"]),
        "replacement.build_s": per_op(inclusive.get("replacement.build", 0.0)),
        "replacement.p": _ratio(counts["replacement.p_total"], builds),
        "replacement.q": _ratio(counts["replacement.q_total"], builds),
        "status.self_s": per_op(sum(v for k, v in self_time.items() if k.startswith("status."))),
        "status.sources": per_op(calls["status.mu_status"]),
        "ordinal.add_calls": per_op(counts["ordinal.add_calls"]),
        "ordinal.format_s": per_op(inclusive.get("ordinal.format", 0.0)),
        "finite_graph.bfs_s": per_op(inclusive.get("finite_graph.bfs", 0.0)),
        "finite_graph.bfs_calls": per_op(calls["finite_graph.bfs"]),
        "finite_graph.enumerate_s": per_op(inclusive.get("finite_graph.enumerate", 0.0)),
        "finite_graph.graphs_enumerated": per_op(counts["finite_graph.graphs_enumerated"]),
        "finite_graph.graph_builds": per_op(counts["finite_graph.graph_builds"]),
        "finite_graph.status_calls": per_op(calls["finite_graph.status"]),
        "finite_graph.status_s": per_op(inclusive.get("finite_graph.status", 0.0)),
        "finite_graph.extremal_s": per_op(inclusive.get(EXTREMAL_SPAN, 0.0)),
        "finite_graph.enum_yield_ratio": _ratio(
            counts["finite_graph.graphs_enumerated"], counts["finite_graph.edge_subsets"]
        ),
        "finite_graph.extremal_connected_ratio": _ratio(
            counts["finite_graph.extremal_connected"], counts["finite_graph.extremal_builds"]
        ),
        "cli.self_s": per_op(self_time.get(CLI_SPAN, 0.0)),
    }
