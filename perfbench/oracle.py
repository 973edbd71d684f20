"""Reference answers for the benchmark, sharing no code with tgstatus.

Works on raw document dicts with plain integer BFS, so a defect in the
package's model, replacement, status or ordinal code cannot hide in the
expected values.  Nothing here may import tgstatus.
"""

from __future__ import annotations

from itertools import combinations

# Labeled connected graphs on p = 1..6 nodes (OEIS A001187).
CONNECTED_COUNTS = (1, 1, 4, 38, 728, 26704)


def ordinal_text(mu: int, n: int) -> str:
    """Canonical text of w^mu * n."""
    if n == 0:
        return "0"
    base = "w" if mu == 1 else f"w^{mu}"
    return base if n == 1 else f"{base}*{n}"


class Replacement:
    """The replacement 0-graph of a document, as integer adjacency lists.

    0-node names: a nonsingleton mu-node keeps its id, a section is named
    by its representative, an included singleton keeps its id.
    """

    def __init__(self, doc: dict):
        self.rank = doc["rank"]
        self.rep = {s["id"]: s["representative"] for s in doc["sections"]}
        nonsingleton = [m for m in doc["mu_nodes"] if len(m["tips"]) >= 2]
        by_id = {m["id"]: m for m in doc["mu_nodes"]}
        self.included = list(doc.get("include_singletons", []))
        self.mu_ids = [m["id"] for m in nonsingleton]
        self.names = self.mu_ids + [self.rep[s["id"]] for s in doc["sections"]] + self.included
        self.index = {name: i for i, name in enumerate(self.names)}
        # What a 0-node stands for in a geodesic: a mu-node, section or singleton id.
        self.element = dict(zip(self.names, self.mu_ids + [s["id"] for s in doc["sections"]] + self.included))
        edges = set()
        for m in nonsingleton:
            for tip in m["tips"]:
                edges.add(frozenset((self.index[m["id"]], self.index[self.rep[tip["section"]]])))
        for w in self.included:
            home = by_id[w]["tips"][0]["section"]
            edges.add(frozenset((self.index[w], self.index[self.rep[home]])))
        self.q = len(edges)
        self.adj = [[] for _ in self.names]
        for u, v in edges:
            self.adj[u].append(v)
            self.adj[v].append(u)
        # Distance endpoints: internal nodes stand at their section's 0-node.
        self.zero_node = {name: name for name in self.mu_ids + self.included}
        for s in doc["sections"]:
            for internal in s["internal_nodes"]:
                self.zero_node[internal["id"]] = s["representative"]

    @property
    def p(self) -> int:
        return len(self.names)

    def hops(self, source: str) -> list[int]:
        """Hop distances from a 0-node to every 0-node, by index."""
        dist = [-1] * len(self.names)
        start = self.index[source]
        dist[start] = 0
        frontier = [start]
        level = 0
        while frontier:
            level += 1
            nxt = []
            for u in frontier:
                for v in self.adj[u]:
                    if dist[v] < 0:
                        dist[v] = level
                        nxt.append(v)
            frontier = nxt
        if min(dist) < 0:
            raise ValueError("replacement graph is not connected")
        return dist

    def status(self, node_id: str) -> str:
        return ordinal_text(self.rank, sum(self.hops(self.zero_node[node_id])))

    def distance(self, a: str, b: str) -> str:
        return ordinal_text(self.rank, self.hops(self.zero_node[a])[self.index[self.zero_node[b]]])

    def geodesic(self, a: str, b: str) -> list[str]:
        """Elements of the lexicographically smallest shortest 0-node path."""
        dist = self.hops(self.zero_node[b])
        current = self.zero_node[a]
        path = [current]
        while dist[self.index[current]]:
            step = dist[self.index[current]] - 1
            current = min(self.names[v] for v in self.adj[self.index[current]] if dist[v] == step)
            path.append(current)
        return [self.element[name] for name in path]


def status_report(doc: dict) -> dict:
    """The expected ``tgstatus status --json`` object for a document."""
    g = Replacement(doc)
    lower = g.p - 1
    upper = (g.p - 1) * (g.p + 2) // 2 - g.q
    sources = [(m, "mu-node") for m in g.mu_ids]
    sources += [(g.rep[s["id"]], "section-representative") for s in doc["sections"]]
    totals = [(node, kind, sum(g.hops(node))) for node, kind in sources]
    report = {
        "rank": g.rank,
        "p": g.p,
        "q": g.q,
        "lower": ordinal_text(g.rank, lower),
        "upper": ordinal_text(g.rank, upper),
        "nodes": [{"id": n, "kind": k, "status": ordinal_text(g.rank, s)} for n, k, s in totals],
        "achieved_lower": [n for n, _, s in totals if s == lower],
        "achieved_upper": [n for n, _, s in totals if s == upper],
    }
    if g.included:
        report["included_singletons"] = list(g.included)
    return report


def session_answers(doc: dict, queries: dict) -> list[str]:
    """Expected answers to a session's queries, in the order asked."""
    g = Replacement(doc)
    answers = [g.distance(a, b) for a, b in queries["distance"]]
    answers += [" ".join(g.geodesic(a, b)) for a, b in queries["geodesic"]]
    answers += [g.status(x) for x in queries["status"]]
    return answers


def verify_ejs_text(max_p: int) -> str:
    """Expected ``tgstatus verify-ejs --max-p N`` output (N <= 6)."""

    def count(n: int, noun: str) -> str:
        return f"{n} {noun}" + ("" if n == 1 else "s")

    counts = CONNECTED_COUNTS[:max_p]
    lines = [f"p={p}: {count(n, 'graph')}, 0 violations" for p, n in enumerate(counts, 1)]
    lines.append(f"checked {count(sum(counts), 'graph')}, 0 violations")
    return "\n".join(lines) + "\n"


def _finite_status(p: int, edges: list[tuple[int, int]], source: int) -> int | None:
    adj = [[] for _ in range(p)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    dist = {source: 0}
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return sum(dist.values()) if len(dist) == p else None


def check_extremal_text(p: int, q: int, text: str) -> list[str]:
    """Problems with ``tgstatus extremal --p P --q Q`` output; empty if right.

    Each witness graph must have p nodes and q distinct edges, be
    connected, and give its node an oracle status equal to the bound.
    """
    lower, upper = p - 1, (p - 1) * (p + 2) // 2 - q
    lines = text.splitlines()
    if lines[:2] != [f"p: {p}", f"q: {q}"] or len(lines) != 4:
        return [f"unexpected header or line count: {lines[:2]!r}, {len(lines)} lines"]
    names = {f"v{i + 1}": i for i in range(p)}
    problems = []
    for line, label, bound in ((lines[2], "lower", lower), (lines[3], "upper", upper)):
        head, _, edge_text = line.partition(" in graph ")
        parts = head.split()
        if len(parts) != 4 or parts[0] != f"{label}:" or parts[2] != "at":
            problems.append(f"malformed witness line {line!r}")
            continue
        status, node = parts[1], parts[3]
        try:
            edges = [tuple(names[end] for end in pair.split("-")) for pair in edge_text.split()]
        except KeyError:
            problems.append(f"{label} witness names a node outside v1..v{p}")
            continue
        distinct = {frozenset(e) for e in edges if len(set(e)) == 2}
        if len(distinct) != q or len(edges) != q:
            problems.append(f"{label} witness does not have {q} distinct edges")
            continue
        actual = _finite_status(p, edges, names[node]) if node in names else None
        if actual is None:
            problems.append(f"{label} witness is not connected or names an unknown node")
        elif not (str(actual) == status == str(bound)):
            problems.append(f"{label} witness status {status}, oracle {actual}, bound {bound}")
    return problems


def connected_counts(max_p: int) -> list[int]:
    """Labeled connected graph counts by brute force over edge subsets."""
    counts = []
    for p in range(1, max_p + 1):
        pairs = list(combinations(range(p), 2))
        counts.append(
            sum(
                _finite_status(p, [e for k, e in enumerate(pairs) if mask >> k & 1], 0) is not None
                for mask in range(1 << len(pairs))
            )
        )
    return counts
