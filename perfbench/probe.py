"""A fixed pure-Python task that measures how fast the host runs right now.

On a shared VM the speed of the same Python code drifts by tens of
percent within seconds and minutes, so raw wall times from different
runs are not comparable.  The worker times this probe between ops, and
run.py scales each op time by ``REFERENCE_S`` over the mean of the
probes just before and just after it: the op time as it would read on
a host that runs the probe in ``REFERENCE_S``.  The probe does what
tgstatus spends its time on, dict BFS and the building of small
immutable objects, in code of its own, so a change to the package
cannot move it.
"""

from __future__ import annotations

import random
from time import perf_counter

REFERENCE_S = 0.008
NODES = 1000


class _Terms:
    """A sum of (exponent, coefficient) terms, added the ordinal way."""

    __slots__ = ("terms",)

    def __init__(self, terms) -> None:
        terms = tuple((exp, coeff) for exp, coeff in terms)
        previous = None
        for exp, coeff in terms:
            if not isinstance(exp, int) or not isinstance(coeff, int) or coeff < 1:
                raise ValueError("bad term")
            if previous is not None and exp >= previous:
                raise ValueError("exponents must decrease")
            previous = exp
        self.terms = terms

    def __add__(self, other: "_Terms") -> "_Terms":
        lead = other.terms[0][0]
        kept = [t for t in self.terms if t[0] > lead]
        if len(kept) < len(self.terms) and self.terms[len(kept)][0] == lead:
            merged = (lead, self.terms[len(kept)][1] + other.terms[0][1])
            return _Terms((*kept, merged, *other.terms[1:]))
        return _Terms((*kept, *other.terms))


class HostProbe:
    def __init__(self) -> None:
        rng = random.Random(0)
        adj: list[list[int]] = [[] for _ in range(NODES)]
        for v in range(1, NODES):
            u = rng.randrange(v)
            adj[u].append(v)
            adj[v].append(u)
        for _ in range(NODES):
            u, v = rng.randrange(NODES), rng.randrange(NODES)
            adj[u].append(v)
            adj[v].append(u)
        self.adj = adj

    def sample(self) -> float:
        """Seconds taken by one fixed round of BFS and term sums."""
        adj = self.adj
        start = perf_counter()
        for source in range(2):
            dist = {source: 0}
            frontier = [source]
            while frontier:
                nxt = []
                for u in frontier:
                    d = dist[u] + 1
                    for v in adj[u]:
                        if v not in dist:
                            dist[v] = d
                            nxt.append(v)
                frontier = nxt
            total = _Terms(())
            for d in dist.values():
                if d:
                    total = total + _Terms(((2, d),))
        return perf_counter() - start


def scaled(times: list[float], probes: list[float]) -> list[float]:
    """Op times at the reference host speed; probes[i] and probes[i + 1]
    were taken just before and just after op i."""
    return [t * 2 * REFERENCE_S / (probes[i] + probes[i + 1]) for i, t in enumerate(times)]
