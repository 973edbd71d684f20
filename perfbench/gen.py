"""Seeded transfinite document generator for the benchmark.

A document has S sections and S nonsingleton mu-nodes.  A connecting
chain over a random permutation of the sections keeps the replacement
0-graph connected; extra tips, extra internal nodes, a few singleton
mu-nodes (some included) and benign nondisconnectable pairs vary the
structure.  Everything is drawn from one ``random.Random``, so the same
seed gives byte-identical document text.
"""

from __future__ import annotations

import json
import random


def document(rng: random.Random, n_sections: int, max_tips: int) -> dict:
    """A valid document dict with ``n_sections`` sections and as many
    nonsingleton mu-nodes, each holding 2 to ``max_tips`` tips."""
    if n_sections < 2 or max_tips < 2:
        raise ValueError("need at least 2 sections and 2 tips per mu-node")
    mu = rng.randint(1, 3)
    sections = []
    for i in range(1, n_sections + 1):
        internal = [{"id": f"y{i}", "rank": rng.randrange(mu), "nonsingleton": True}]
        if rng.random() < 0.25:
            internal.append({"id": f"z{i}", "rank": rng.randrange(mu), "nonsingleton": False})
        sections.append({"id": f"S{i}", "internal_nodes": internal, "representative": f"y{i}"})

    order = [f"S{i}" for i in range(1, n_sections + 1)]
    rng.shuffle(order)
    serial = 0
    mu_nodes = []
    pairs = []
    for i in range(n_sections):
        # Mu-node i links chain neighbours order[i] and order[i + 1]; the
        # last one closes onto a random section.
        homes = [order[i], order[i + 1] if i + 1 < n_sections else rng.choice(order)]
        homes += [rng.choice(order) for _ in range(rng.randint(2, max_tips) - 2)]
        tips = []
        for home in homes:
            serial += 1
            tips.append({"id": f"t{serial}", "section": home})
        mu_nodes.append({"id": f"X{i + 1}", "tips": tips})
        if rng.random() < 0.05:
            first, second = rng.sample(tips, 2)
            pairs.append([first["id"], second["id"]])

    include = []
    for j in range(1, n_sections // 50 + 2):
        serial += 1
        mu_nodes.append({"id": f"W{j}", "tips": [{"id": f"t{serial}", "section": rng.choice(order)}]})
        if j % 2:
            include.append(f"W{j}")

    return {
        "rank": mu,
        "sections": sections,
        "mu_nodes": mu_nodes,
        "nondisconnectable_pairs": pairs,
        "include_singletons": include,
    }


def document_text(doc: dict) -> str:
    return json.dumps(doc, separators=(",", ":"))


def checked_document_text(rng: random.Random, n_sections: int, max_tips: int) -> str:
    """Generate a document and confirm with the package that it validates."""
    from tgstatus import parse_document, validate

    text = document_text(document(rng, n_sections, max_tips))
    report = validate(parse_document(text))
    if not report.passed:
        raise RuntimeError(f"generated document fails validation: {report.violations}")
    return text


# Workload sizes.  Ops stay well under a second on a 2-vCPU VM so that a
# run collects enough samples for a tail percentile.
REPORT_SECTIONS = 150
REPORT_TIPS = (4, 2, 4, 2)  # max tips per mu-node; 2 gives a sparse replacement graph
SESSION_SECTIONS = 500
SESSION_DOCS = 4
SESSION_QUERIES = {"distance": 100, "geodesic": 20, "status": 20}
EJS_VERIFY_MAX_P = 6
EJS_EXTREMAL_P = 7


def session_queries(rng: random.Random, doc: dict) -> dict:
    """A seeded query mix whose every query has an answer.

    Distance endpoints range over mu-nodes, internal nodes and included
    singletons; geodesic endpoints stand at distinct 0-nodes; status
    sources are nonsingleton nodes.
    """
    home = {m["id"]: m["id"] for m in doc["mu_nodes"] if len(m["tips"]) >= 2}
    sources = list(home)
    for section in doc["sections"]:
        for internal in section["internal_nodes"]:
            home[internal["id"]] = section["id"]
            if internal["nonsingleton"]:
                sources.append(internal["id"])
    home.update((w, w) for w in doc["include_singletons"])
    targets = list(home)

    def distinct_pair() -> list[str]:
        while True:
            a, b = rng.sample(targets, 2)
            if home[a] != home[b]:
                return [a, b]

    return {
        "distance": [rng.sample(targets, 2) for _ in range(SESSION_QUERIES["distance"])],
        "geodesic": [distinct_pair() for _ in range(SESSION_QUERIES["geodesic"])],
        "status": [rng.choice(sources) for _ in range(SESSION_QUERIES["status"])],
    }


def workload_inputs(name: str, seed: int) -> tuple[dict, dict[str, str]]:
    """The op cycle of a workload and the document texts it reads.

    Returns (spec, documents): spec holds the workload name, the cycle
    of ops and the index of the warm-up op; documents maps file names
    to text.
    """
    rng = random.Random(f"{name}:{seed}")
    docs: dict[str, str] = {}
    cycle: list[dict] = []
    warmup = 0
    if name == "report_large":
        for i, tips in enumerate(REPORT_TIPS):
            docs[f"doc{i}.json"] = checked_document_text(rng, REPORT_SECTIONS, tips)
            cycle.append({"doc": f"doc{i}.json"})
    elif name == "session_queries":
        for i in range(SESSION_DOCS):
            docs[f"doc{i}.json"] = checked_document_text(rng, SESSION_SECTIONS, 4)
            cycle.append({"doc": f"doc{i}.json", "queries": session_queries(rng, json.loads(docs[f"doc{i}.json"]))})
    elif name == "ejs_exhaustive":
        p = EJS_EXTREMAL_P
        cycle = [{"args": ["extremal", "--p", str(p), "--q", str(q)]} for q in range(p - 1, p * (p - 1) // 2 + 1)]
        cycle.append({"args": ["verify-ejs", "--max-p", str(EJS_VERIFY_MAX_P)]})
        rng.shuffle(cycle)
        warmup = next(i for i, entry in enumerate(cycle) if entry["args"][0] == "verify-ejs")
    else:
        raise ValueError(f"unknown workload {name!r}")
    return {"workload": name, "cycle": cycle, "warmup": warmup}, docs
