"""Test-local oracles and generators.

Everything here is deliberately independent of the package under test:
plain-dict graph handling, an integer BFS and the least-id geodesic
walk on it, a path-into-clique check by BFS levels, a union-find
connectivity counter, labeled connected counts by edge count, a
brute-force canonical form, automorphism group and its orbits on node
sets, ordinal sums by term absorption, a seeded random document
generator, large and long-diameter documents built from it or by hand,
and seeded random edits of documents.
Acceptance tests compare package results against these, so nothing in
this module may import from tgstatus; code that needs a process of its
own (to see which modules the package loads) runs in a new interpreter.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from itertools import combinations, permutations
from math import comb
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def oracle_bfs(nodes, edges, source):
    """Hop distances from source as a dict; unreachable ids are absent."""
    return _oracle_bfs(_oracle_adjacency(nodes, edges), source)


def _oracle_adjacency(nodes, edges):
    adjacency = {node: set() for node in nodes}
    for u, v in edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    return adjacency


def _oracle_bfs(adjacency, source):
    dist = {source: 0}
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adjacency[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


def oracle_geodesic(nodes, edges, a, b):
    """The least id sequence among the shortest paths from a to b, as a
    list of ids; None when they are not connected.  A full BFS from b,
    then a walk from a that steps to the least-id neighbour one hop
    nearer to b."""
    adjacency = _oracle_adjacency(nodes, edges)
    dist = _oracle_bfs(adjacency, b)
    if a not in dist:
        return None
    path = [a]
    while path[-1] != b:
        node = path[-1]
        path.append(min(n for n in adjacency[node] if dist[n] == dist[node] - 1))
    return path


def oracle_status(nodes, edges, source):
    """Sum of distances from source, or None when the graph is disconnected."""
    return oracle_statuses(nodes, edges, [source])[0]


def oracle_statuses(nodes, edges, sources):
    """oracle_status of each source, with the adjacency built once."""
    adjacency = _oracle_adjacency(nodes, edges)
    statuses = []
    for source in sources:
        dist = _oracle_bfs(adjacency, source)
        statuses.append(sum(dist.values()) if len(dist) == len(adjacency) else None)
    return statuses


def is_path_into_clique(nodes, edges, x):
    """True when the graph is a path x = u0 ... ut whose end is joined to
    some nodes of a clique on all the other nodes: every BFS level from x
    is a clique, consecutive levels are completely joined, and every
    level but the last two is a single node.  This is the equality case
    of the upper status bound (p - 1)(p + 2)/2 - q."""
    dist = oracle_bfs(nodes, edges, x)
    if len(dist) != len(list(nodes)):
        return False
    levels = [[] for _ in range(max(dist.values()) + 1)]
    for v, d in dist.items():
        levels[d].append(v)
    adjacency = {node: set() for node in dist}
    for u, v in edges:
        adjacency[u].add(v)
        adjacency[v].add(u)

    def joined(us, vs):
        return all(v in adjacency[u] for u in us for v in vs if u != v)

    return (
        all(len(level) == 1 for level in levels[:-2])
        and all(joined(level, level) for level in levels)
        and all(joined(a, b) for a, b in zip(levels, levels[1:]))
    )


def oracle_connected_count(p):
    """Number of labeled connected graphs on p nodes, by union-find."""
    pairs = list(combinations(range(p), 2))
    count = 0
    for mask in range(1 << len(pairs)):
        parent = list(range(p))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        components = p
        for k, (i, j) in enumerate(pairs):
            if mask >> k & 1:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
                    components -= 1
        if components == 1:
            count += 1
    return count


def oracle_canonical_word(p, edges):
    """The least adjacency word of a graph on nodes 0..p-1 over all p!
    relabelings; bit i*p + j of a word is the pair (i, j), i < j."""
    return min(
        sum(1 << min(perm[u], perm[v]) * p + max(perm[u], perm[v]) for u, v in edges)
        for perm in permutations(range(p))
    )


def oracle_connected_edge_count(n, k):
    """Number of labeled connected graphs with n nodes and k edges: all
    C(C(n,2), k) graphs minus those whose component at node 1 has m < n
    nodes, which are C(n-1, m-1) node sets times a connected graph with j
    edges on them times any graph with the k - j others on the rest."""
    total = comb(comb(n, 2), k)
    for m in range(1, n):
        for j in range(m - 1, min(k, comb(m, 2)) + 1):
            total -= (
                comb(n - 1, m - 1)
                * oracle_connected_edge_count(m, j)
                * comb(comb(n - m, 2), k - j)
            )
    return total


def oracle_automorphisms(p, edges):
    """The permutations of the nodes 0..p-1 (perm[v] the image of v) that
    map the edge set onto itself, in lexicographic order: every partial
    map of 0..v-1 is extended by each unused image of v that keeps each
    pair u, v (u < v) an edge exactly when its image is one."""
    adjacent = set(edges) | {(v, u) for u, v in edges}
    found = []

    def extend(perm):
        v = len(perm)
        if v == p:
            found.append(tuple(perm))
            return
        for target in range(p):
            if target not in perm and all(
                ((u, v) in adjacent) == ((perm[u], target) in adjacent) for u in range(v)
            ):
                extend(perm + [target])

    extend([])
    return found


def oracle_automorphism_count(p, edges):
    """Number of automorphisms of a graph on nodes 0..p-1, by brute force."""
    return len(oracle_automorphisms(p, edges))


def oracle_generated_group(p, generators):
    """Every permutation of 0..p-1, as a tuple, that is a product of the
    generators (sequences, g[v] the image of v), found by closing the
    identity under them."""
    group = {tuple(range(p))}
    frontier = list(group)
    while frontier:
        element = frontier.pop()
        for g in generators:
            product = tuple(g[element[v]] for v in range(p))
            if product not in group:
                group.add(product)
                frontier.append(product)
    return group


def oracle_node_set_orbits(p, perms):
    """The orbits of a permutation group, given by all its elements, on
    the non-empty node sets of 0..p-1, each a frozenset of bitmasks."""
    return {
        frozenset(sum(1 << perm[v] for v in range(p) if mask >> v & 1) for perm in perms)
        for mask in range(1, 1 << p)
    }


def oracle_replacement(doc):
    """(nodes, edges) of the replacement graph, from the raw document dict."""
    representative = {s["id"]: s["representative"] for s in doc["sections"]}
    nonsingleton = [m for m in doc["mu_nodes"] if len(m["tips"]) >= 2]
    included = doc.get("include_singletons", [])
    nodes = [m["id"] for m in nonsingleton]
    nodes += [representative[s["id"]] for s in doc["sections"]]
    nodes += list(included)
    edges = set()
    for m in nonsingleton:
        for tip in m["tips"]:
            edges.add(frozenset((m["id"], representative[tip["section"]])))
    by_id = {m["id"]: m for m in doc["mu_nodes"]}
    for w in included:
        home = by_id[w]["tips"][0]["section"]
        edges.add(frozenset((w, representative[home])))
    return nodes, sorted(tuple(sorted(e)) for e in edges)


def oracle_simple_paths(doc):
    """Every simple path over sections, nonsingleton mu-nodes and included
    singletons, as a set of id tuples, single elements included."""
    included = set(doc.get("include_singletons", []))
    neighbours = {s["id"]: set() for s in doc["sections"]}
    for m in doc["mu_nodes"]:
        if len(m["tips"]) >= 2 or m["id"] in included:
            neighbours[m["id"]] = {tip["section"] for tip in m["tips"]}
            for section in neighbours[m["id"]]:
                neighbours[section].add(m["id"])
    paths = set()

    def extend(path):
        paths.add(path)
        for nxt in neighbours[path[-1]] - set(path):
            extend(path + (nxt,))

    for start in neighbours:
        extend((start,))
    return paths


def oracle_ordinal_text(mu, n):
    """Canonical text of w^mu * n, formatted without the package."""
    if n == 0:
        return "0"
    if mu == 0:
        return str(n)
    base = "w" if mu == 1 else f"w^{mu}"
    return base if n == 1 else f"{base}*{n}"


def oracle_ordinal_sum(summands):
    """Cantor normal form terms of the ordinal sum of summands, each a
    sequence of (exponent, coefficient) terms in normal form.

    The summands are spread into single terms w^e * c.  A term is
    absorbed when a later one has a larger exponent; the survivors then
    come in non-increasing exponent order, and equal exponents merge.
    """
    singles = [tuple(term) for terms in summands for term in terms]
    survivors = [
        (exp, coeff)
        for i, (exp, coeff) in enumerate(singles)
        if all(later <= exp for later, _ in singles[i + 1:])
    ]
    merged = []
    for exp, coeff in survivors:
        if merged and merged[-1][0] == exp:
            merged[-1] = (exp, merged[-1][1] + coeff)
        else:
            merged.append((exp, coeff))
    return tuple(merged)


def random_document(rng: random.Random, *, max_mu=3, max_k=8, max_m=8, small=False):
    """A random valid document dict with a connected replacement graph.

    Sections and nonsingleton mu-nodes are wired by attaching each new
    element to one already reached, so connectivity holds by
    construction; extra tips, extra internal nodes, singleton mu-nodes
    (included or not) and benign nondisconnectable pairs are sprinkled
    on top.
    """
    if small:
        max_k, max_m = 3, 3
    mu = rng.randint(1, max_mu)
    k = rng.randint(0, max_k)
    m = 1 if k == 0 else rng.randint(1, max_m)

    sections = []
    for i in range(1, m + 1):
        internal = [{"id": f"y{i}", "rank": rng.randrange(mu), "nonsingleton": True}]
        for j in range(rng.choice([0, 0, 0, 1, 2])):
            internal.append(
                {
                    "id": f"z{i}_{j}",
                    "rank": rng.randrange(mu),
                    "nonsingleton": rng.random() < 0.5,
                }
            )
        sections.append(
            {"id": f"S{i}", "internal_nodes": internal, "representative": f"y{i}"}
        )

    tip_serial = [0]

    def new_tip(section_id):
        tip_serial[0] += 1
        return {"id": f"t{tip_serial[0]}", "section": section_id}

    mu_nodes = []
    tips_of = {}
    if k > 0:
        reached_sections = ["S1"]
        tips_of["X1"] = [new_tip("S1")]
        for i in range(2, k + 1):
            tips_of[f"X{i}"] = [new_tip(rng.choice(reached_sections))]
        for i in range(2, m + 1):
            owner = f"X{rng.randint(1, k)}"
            tips_of[owner].append(new_tip(f"S{i}"))
            reached_sections.append(f"S{i}")
        for name, tips in tips_of.items():
            while len(tips) < 2:
                tips.append(new_tip(f"S{rng.randint(1, m)}"))
            for _ in range(rng.choice([0, 0, 1])):
                tips.append(new_tip(f"S{rng.randint(1, m)}"))
        for i in range(1, k + 1):
            mu_nodes.append({"id": f"X{i}", "tips": tips_of[f"X{i}"]})

    include = []
    for i in range(rng.choice([0, 0, 0, 1, 2])):
        name = f"W{i + 1}"
        mu_nodes.append({"id": name, "tips": [new_tip(f"S{rng.randint(1, m)}")]})
        if rng.random() < 0.7:
            include.append(name)

    pairs = []
    seen_pairs = set()
    for mu_node in mu_nodes:
        if len(mu_node["tips"]) >= 2 and rng.random() < 0.2:
            a, b = rng.sample([t["id"] for t in mu_node["tips"]], 2)
            key = tuple(sorted((a, b)))
            if key not in seen_pairs:
                seen_pairs.add(key)
                pairs.append(list(key))

    return {
        "rank": mu,
        "sections": sections,
        "mu_nodes": mu_nodes,
        "nondisconnectable_pairs": pairs,
        "include_singletons": include,
    }


def large_documents(seed, count, min_p=500):
    """count random documents whose replacement has at least min_p 0-nodes."""
    rng = random.Random(seed)
    docs = []
    while len(docs) < count:
        doc = random_document(rng, max_k=700, max_m=700)
        if len(oracle_replacement(doc)[0]) >= min_p:
            docs.append(doc)
    return docs


def chain_document(sections, rank=1):
    """Sections S1..Sn in a line, mu-node Xi joining Si to Si+1: a
    replacement path of 2 * sections - 1 0-nodes."""
    return {
        "rank": rank,
        "sections": [
            {
                "id": f"S{i}",
                "internal_nodes": [{"id": f"y{i}", "rank": rank - 1, "nonsingleton": True}],
                "representative": f"y{i}",
            }
            for i in range(1, sections + 1)
        ],
        "mu_nodes": [
            {
                "id": f"X{i}",
                "tips": [
                    {"id": f"a{i}", "section": f"S{i}"},
                    {"id": f"b{i}", "section": f"S{i + 1}"},
                ],
            }
            for i in range(1, sections)
        ],
        "nondisconnectable_pairs": [],
        "include_singletons": [],
    }


def wide_document(sections, seed, rank=2, max_tips=4):
    """Sections S1..Sn strung on a shuffled chain: mu-node Xi joins the
    i-th and (i+1)-th sections of the chain (the last one a random
    section) and has up to max_tips - 2 more tips in random sections,
    repeats allowed.  With max_tips=2 the chain closes onto a random
    section and nothing else joins it: a ring with a tail, whose BFS
    depth from the tail's end is at least the number of sections.  A
    quarter of the sections hold a second, singleton internal
    node; every 50th section has a singleton mu-node, every other one
    included.  The replacement has 2 * sections + sections // 100
    0-nodes."""
    rng = random.Random(seed)
    section_records = []
    for i in range(1, sections + 1):
        internal = [{"id": f"y{i}", "rank": rng.randrange(rank), "nonsingleton": True}]
        if i % 4 == 0:
            internal.append({"id": f"z{i}", "rank": rng.randrange(rank), "nonsingleton": False})
        section_records.append(
            {"id": f"S{i}", "internal_nodes": internal, "representative": f"y{i}"}
        )
    order = [f"S{i}" for i in range(1, sections + 1)]
    rng.shuffle(order)
    serial = 0
    mu_nodes = []
    for i in range(sections):
        homes = [order[i], order[i + 1] if i + 1 < sections else rng.choice(order)]
        homes += [rng.choice(order) for _ in range(rng.randrange(max_tips - 1))]
        tips = []
        for home in homes:
            serial += 1
            tips.append({"id": f"t{serial}", "section": home})
        mu_nodes.append({"id": f"X{i + 1}", "tips": tips})
    include = []
    for j in range(1, sections // 50 + 1):
        serial += 1
        tip = {"id": f"t{serial}", "section": rng.choice(order)}
        mu_nodes.append({"id": f"W{j}", "tips": [tip]})
        if j % 2:
            include.append(f"W{j}")
    return {
        "rank": rank,
        "sections": section_records,
        "mu_nodes": mu_nodes,
        "nondisconnectable_pairs": [],
        "include_singletons": include,
    }


# Values an edit may write: every JSON type, ids of the sample documents,
# an undeclared id, and ids that break the id rule.
_EDIT_VALUES = (
    None, True, False, 0, 1, 2, -1, 1.5, "", "0", "S1", "S2", "y1", "z1", "X1", "X2", "W1",
    "t1", "t2", "t5", "v1", "S9", "a b", "a\tb", [], ["S1"], ["t1", "t2"], {}, {"id": "Q1"},
)
_EDIT_KEYS = ("id", "rank", "section", "tips", "representative", "nonsingleton", "extra")


def mutated_documents(texts, seed, count):
    """count documents, each one of the JSON texts, picked at random, read
    and given 1-3 random edits.  An edit picks a random object or array
    anywhere in the document and sets, deletes or adds one of its
    entries from a fixed pool, or appends a copy of one of an array's
    entries (a duplicate id)."""
    rng = random.Random(seed)
    for _ in range(count):
        doc = json.loads(rng.choice(texts))
        for _ in range(rng.randint(1, 3)):
            target = rng.choice(_containers(doc))
            value = rng.choice(_EDIT_VALUES)
            if isinstance(value, (dict, list)):
                value = json.loads(json.dumps(value))
            edit = rng.randrange(4)
            if isinstance(target, dict):
                keys = list(target)
                if edit == 0 and keys:
                    target[rng.choice(keys)] = value
                elif edit == 1 and keys:
                    del target[rng.choice(keys)]
                else:
                    target[rng.choice(_EDIT_KEYS)] = value
            elif edit == 0 and target:
                target[rng.randrange(len(target))] = value
            elif edit == 1 and target:
                del target[rng.randrange(len(target))]
            elif edit == 2 and target:
                target.append(json.loads(json.dumps(rng.choice(target))))
            else:
                target.insert(rng.randint(0, len(target)), value)
        yield doc


def _containers(value):
    """value, an object or array, and every object and array in it, in
    document order."""
    found = [value]
    for child in value.values() if isinstance(value, dict) else value:
        if isinstance(child, (dict, list)):
            found += _containers(child)
    return found


def document_text(doc):
    return json.dumps(doc)


def run_fresh(code, *args):
    """Run Python code in a new interpreter that imports tgstatus from
    this checkout's src directory."""
    path = os.environ.get("PYTHONPATH")
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )


_CLI_SCRIPT = """
import json, sys
from tgstatus.cli import main
codes = []
for args in json.loads(sys.argv[1]):
    try:
        main(args)
    except SystemExit as exc:
        codes.append(exc.code)
print(json.dumps([codes, sorted(m for m in sys.modules if m.split(".")[0] == "tgstatus")]))
"""


def run_fresh_cli(*command_lines):
    """Run CLI command lines in turn in one new interpreter.  Returns
    their exit codes, the tgstatus modules loaded after the last one,
    and the interpreter's stderr."""
    done = run_fresh(_CLI_SCRIPT, json.dumps(command_lines))
    assert done.returncode == 0, done.stderr
    codes, loaded = json.loads(done.stdout.splitlines()[-1])
    return codes, loaded, done.stderr
