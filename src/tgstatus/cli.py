"""Command-line front end.

Exit codes: 0 success, 1 validation or bounds failure, 2 input error.
Output is byte-deterministic for identical inputs and flags.
"""

from __future__ import annotations

import gc
import json
import sys
from typing import TYPE_CHECKING, Any, Callable, NoReturn, TypeVar

import click

from .finite_graph import (
    FiniteGraph,
    GraphError,
    MAX_VERIFY_NODES,
    Witness,
    bound_violation_counts,
    extremal_search,
)

# The transfinite layer is imported by the commands that use it, so the
# finite commands start without it.
if TYPE_CHECKING:
    from .model import TransfiniteGraph
    from .status import StatusReport

EXIT_FAILURE = 1
EXIT_INPUT = 2

Doc = TypeVar("Doc")


def _input_error(message: str) -> NoReturn:
    click.echo(f"error: {message}", err=True)
    sys.exit(EXIT_INPUT)


def _load(path: str, parse: Callable[[str], Doc]) -> Doc:
    """Read and parse a document; any problem is an input error."""
    from .model import DocumentError

    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        _input_error(f"cannot read {path}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        _input_error(f"cannot read {path}: {exc}")
    try:
        return parse(text)
    except DocumentError as exc:
        _input_error(f"{path}: {exc}")


def _report(doc: TransfiniteGraph | FiniteGraph, path: str) -> StatusReport | None:
    """The status report of a document, or None for a disconnected rank-0
    one.  A rank-0 document without nodes is an input error."""
    from .status import status_report

    if isinstance(doc, FiniteGraph):
        if doc.p == 0:
            _input_error(f"{path}: bounds need at least one node")
        if not doc.is_connected():
            return None
    return status_report(doc)


def _count(n: int, noun: str) -> str:
    return f"{n} {noun}" + ("" if n == 1 else "s")


def _echo_json(obj: object) -> None:
    click.echo(json.dumps(obj, indent=2))


def _echo_report(obj: dict[str, Any], as_json: bool) -> None:
    """Print a report object as JSON, or as text in key order: `id kind status`
    per entry of `nodes`, else `key: value`, a list space-joined or `(none)`."""
    if as_json:
        _echo_json(obj)
        return
    lines = []
    for key, value in obj.items():
        if key == "nodes":
            lines.extend(f"{e['id']} {e['kind']} {e['status']}" for e in value)
        elif isinstance(value, list):
            lines.append(f"{key}: {' '.join(value) or '(none)'}")
        else:
            lines.append(f"{key}: {value}")
    click.echo("\n".join(lines))


class _Shell(click.Group):
    """Maps the library's errors and usage errors to exit codes for every command."""

    def parse_args(self, ctx: click.Context, args: list[str]) -> list[str]:
        if not args:  # bare `tgstatus` keeps click's help
            return super().parse_args(ctx, args)
        try:
            return super().parse_args(ctx, args)
        except click.UsageError as exc:
            _input_error(exc.format_message())

    def invoke(self, ctx: click.Context) -> Any:
        # A command builds one document's objects and drops them at exit, so
        # the cyclic collector would only rescan them; restore its state after.
        collecting = gc.isenabled()
        gc.disable()
        try:
            return super().invoke(ctx)
        except click.UsageError as exc:
            _input_error(exc.format_message())
        except GraphError as exc:
            _input_error(str(exc))
        except ValueError as exc:
            # Only a command that has loaded these modules raises their errors.
            from .model import ValidationFailed
            from .status import StatusError

            if isinstance(exc, ValidationFailed):
                for violation in exc.report.violations:
                    click.echo(f"{violation.condition}: {violation.message}", err=True)
                click.echo("error: validation failed", err=True)
                sys.exit(EXIT_FAILURE)
            if not isinstance(exc, StatusError):
                raise
            _input_error(str(exc))
        finally:
            if collecting:
                gc.enable()


@click.group(cls=_Shell)
def main() -> None:
    """Statuses (sums of distances) in finite and transfinite graphs."""


@main.command("validate")
@click.argument("file")
@click.option("--walk-based", is_flag=True, help="Skip the nondisconnectable-tips check.")
def validate_command(file: str, walk_based: bool) -> None:
    """Check a transfinite document against the admissibility conditions."""
    from .model import parse_document
    from .model import validate as validate_model

    graph = _load(file, parse_document)
    report = validate_model(graph, walk_based)
    if report.passed:
        click.echo("passed")
    else:
        click.echo(f"failed: {_count(len(report.violations), 'violation')}")
        for violation in report.violations:
            click.echo(f"{violation.condition}: {violation.message}")
    for note in report.notes:
        click.echo(f"note: {note}")
    if not report.passed:
        sys.exit(EXIT_FAILURE)


@main.command()
@click.argument("file")
@click.option("--dot", "as_dot", is_flag=True, help="Emit DOT text.")
@click.option("--json", "as_json", is_flag=True, help="Emit a rank-0 document.")
def replace(file: str, as_dot: bool, as_json: bool) -> None:
    """Build and print the replacement 0-graph of a transfinite document."""
    from .model import parse_document, rank0_document
    from .replacement import build_replacement

    if as_dot and as_json:
        _input_error("--dot and --json are mutually exclusive")
    result = build_replacement(_load(file, parse_document))
    if as_dot:
        click.echo(result.graph.to_dot(), nl=False)
        return
    if as_json:
        _echo_json(rank0_document(result.graph))
        return
    click.echo(f"p: {result.graph.p}")
    click.echo(f"q: {result.graph.q}")
    for node, (kind, element) in result.origin.items():
        click.echo(f"{node} {kind} {element}")
    for u, v in result.graph.edges:
        click.echo(f"{u} -- {v}")


@main.command()
@click.argument("file")
@click.option("--node", "node_id", default=None, help="Report one node's status only.")
@click.option("--walk-based", is_flag=True, help="Skip the nondisconnectable-tips check.")
@click.option("--json", "as_json", is_flag=True, help="Emit JSON.")
def status(file: str, node_id: str | None, walk_based: bool, as_json: bool) -> None:
    """Report the statuses and bounds of a transfinite document."""
    from .model import parse_document
    from .replacement import build_replacement
    from .status import mu_status, status_report

    graph = _load(file, parse_document)
    if node_id is None:
        _echo_report(status_report(graph, walk_based=walk_based).to_json_obj(), as_json)
        return
    value = mu_status(graph, build_replacement(graph, walk_based=walk_based), node_id)
    if as_json:
        _echo_json({"id": node_id, "status": str(value)})
    else:
        click.echo(str(value))


@main.command()
@click.argument("file")
@click.option("--json", "as_json", is_flag=True, help="Emit JSON.")
def bounds(file: str, as_json: bool) -> None:
    """Print p, q, the status bounds and which nodes achieve them."""
    from .model import load_document

    report = _report(_load(file, load_document), file)
    if report is None:
        click.echo("error: bounds are undefined on a disconnected graph", err=True)
        sys.exit(EXIT_FAILURE)
    obj = report.to_json_obj()
    del obj["nodes"]
    _echo_report(obj, as_json)


@main.command("ejs-check")
@click.argument("file")
def ejs_check(file: str) -> None:
    """Verify the status bounds for every node of a rank-0 document."""
    from .model import parse_finite_document

    report = _report(_load(file, parse_finite_document), file)
    if report is None:
        click.echo("violation: graph is not connected")
        sys.exit(EXIT_FAILURE)
    obj = report.to_json_obj()
    _echo_report({key: obj[key] for key in ("p", "q", "lower", "upper")}, as_json=False)
    lower, upper = report.lower, report.upper
    violations = [e for e in report.entries if not lower <= e.status <= upper]
    for e in violations:
        click.echo(f"violation: node {e.id} status {e.status} outside [{lower}, {upper}]")
    click.echo(f"checked {_count(report.p, 'node')}, {_count(len(violations), 'violation')}")
    if violations:
        sys.exit(EXIT_FAILURE)


@main.command("verify-ejs")
@click.option(
    "--max-p",
    "max_p",
    type=int,
    required=True,
    help=f"Largest node count (<= {MAX_VERIFY_NODES}); one graph per isomorphism class is checked.",
)
def verify_ejs(max_p: int) -> None:
    """Exhaustively verify the status bounds on all small connected graphs."""
    if not 1 <= max_p <= MAX_VERIFY_NODES:
        _input_error(f"--max-p must be between 1 and {MAX_VERIFY_NODES}, got {max_p}")
    total_graphs = total_violations = 0
    for p, graphs, violations in bound_violation_counts(max_p):
        click.echo(f"p={p}: {_count(graphs, 'graph')}, {_count(violations, 'violation')}")
        total_graphs += graphs
        total_violations += violations
    click.echo(f"checked {_count(total_graphs, 'graph')}, {_count(total_violations, 'violation')}")
    if total_violations:
        sys.exit(EXIT_FAILURE)


def _witness_obj(witness: Witness) -> dict[str, object]:
    return {
        "status": witness.status,
        "node": witness.node,
        "nodes": list(witness.graph.nodes),
        "edges": [list(pair) for pair in witness.graph.edges],
    }


def _witness_line(label: str, witness: Witness) -> str:
    edges = " ".join(f"{u}-{v}" for u, v in witness.graph.edges) or "(none)"
    return f"{label}: {witness.status} at {witness.node} in graph {edges}"


@main.command()
@click.option("--p", "p", type=int, required=True, help="Node count.")
@click.option("--q", "q", type=int, required=True, help="Edge count.")
@click.option("--json", "as_json", is_flag=True, help="Emit JSON.")
def extremal(p: int, q: int, as_json: bool) -> None:
    """Search for nodes achieving the lower and upper status bound."""
    lower, upper = extremal_search(p, q)
    if as_json:
        _echo_json({"p": p, "q": q, "lower": _witness_obj(lower), "upper": _witness_obj(upper)})
    else:
        click.echo(f"p: {p}")
        click.echo(f"q: {q}")
        click.echo(_witness_line("lower", lower))
        click.echo(_witness_line("upper", upper))


if __name__ == "__main__":
    main()
