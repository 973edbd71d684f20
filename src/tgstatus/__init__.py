"""Statuses (sums of distances) in finite and transfinite graphs.

The rank-0 layer covers ordinary finite graphs: BFS distances, the status
of a node, and the sharp bounds p - 1 <= s(x) <= (p - 1)(p + 2)/2 - q on
connected graphs.  The transfinite layer models rank-mu graphs built from
sections and mu-nodes, replaces them by a finite 0-graph, and computes
statuses as ordinals of the form w^mu * n with the scaled bounds
w^mu * (p - 1) <= s(x) <= w^mu * ((p - 1)(p + 2)/2 - q).
"""

from . import finite_graph, model, ordinal, replacement, status
from .finite_graph import *
from .model import *
from .ordinal import *
from .replacement import *
from .status import *

__version__ = "0.1.0"

__all__ = [
    *finite_graph.__all__,
    *model.__all__,
    *ordinal.__all__,
    *replacement.__all__,
    *status.__all__,
    "__version__",
]
