"""Dual graphs of stable curves and the fibre structure of their theta covers.

A nodal curve is encoded by its dual graph: one vertex per component
(with its geometric genus), one edge per node, self-loops allowed.  The
fibre of the spin compactification over such a curve decomposes by
*even* edge sets — subsets meeting every vertex in an even number of
edge-ends — and this module computes that decomposition, its component
counts and multiplicities.  Connectivity, the even sets (the cycle space)
and the Betti number of each even set all come from one spanning-forest
pass, _forest.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import InvariantError
from .gf2 import _span

__all__ = [
    "Vertex",
    "Edge",
    "DualGraph",
    "betti_and_genus",
    "even_edge_sets",
    "ThComponentReport",
    "th_components",
    "boundary_degrees_odd",
]


@dataclass(frozen=True)
class Vertex:
    id: str
    genus: int

    def __post_init__(self) -> None:
        if not isinstance(self.id, str) or not self.id:
            raise ValueError(f"vertex id must be a nonempty string, got {self.id!r}")
        if isinstance(self.genus, bool) or not isinstance(self.genus, int) or self.genus < 0:
            raise ValueError(f"vertex {self.id!r}: genus must be a nonnegative integer")


@dataclass(frozen=True)
class Edge:
    """A node of the curve; u == v is a self-loop (non-separating node)."""

    id: str
    u: str
    v: str

    def __post_init__(self) -> None:
        if not isinstance(self.id, str) or not self.id:
            raise ValueError(f"edge id must be a nonempty string, got {self.id!r}")
        if not (isinstance(self.u, str) and isinstance(self.v, str)):
            raise ValueError(f"edge {self.id!r}: endpoints must be vertex ids")


@dataclass(frozen=True)
class DualGraph:
    vertices: tuple[Vertex, ...]
    edges: tuple[Edge, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "edges", tuple(self.edges))
        if not self.vertices:
            raise ValueError("graph needs at least one vertex")
        vids = [v.id for v in self.vertices]
        if len(set(vids)) != len(vids):
            raise ValueError("duplicate vertex ids")
        eids = [e.id for e in self.edges]
        if len(set(eids)) != len(eids):
            raise ValueError("duplicate edge ids")
        known = set(vids)
        for e in self.edges:
            if e.u not in known or e.v not in known:
                raise ValueError(f"edge {e.id!r} touches unknown vertices ({e.u!r}, {e.v!r})")
        if _forest(vids, [(e.u, e.v) for e in self.edges])[0] != 1:
            raise ValueError("graph is not connected")

    @classmethod
    def from_json_dict(cls, data: dict) -> "DualGraph":
        if not isinstance(data, dict) or set(data) != {"vertices", "edges"}:
            raise ValueError("graph JSON must be an object with keys vertices/edges")
        vertices = [Vertex(*entry) for entry in _entries(data, "vertices", ("id", "genus"))]
        edges = [Edge(*entry) for entry in _entries(data, "edges", ("id", "u", "v"))]
        return cls(tuple(vertices), tuple(edges))


def _entries(data: dict, key: str, fields: tuple[str, ...]) -> list[tuple]:
    """Field values of each entry of data[key], a list of objects with these keys."""
    entries = data[key]
    if not isinstance(entries, list):
        raise ValueError(f"graph JSON {key} must be a list, got {entries!r}")
    for entry in entries:
        if not isinstance(entry, dict) or set(entry) != set(fields):
            raise ValueError(f"{key} entries need keys {'/'.join(fields)}, got {entry!r}")
    return [tuple(entry[f] for f in fields) for entry in entries]


def _forest(vertex_ids, edges) -> tuple[int, list[int]]:
    """(component count, cycle basis) of a multigraph, in one pass over edges.

    edges is a sequence of (u, v) pairs; bit j of a mask is edges[j].
    tree[v] is the member list of v's tree, one list shared by all its
    members, and path[v] the edge mask of v's path from the tree's root.
    Edge j inside one tree closes the cycle 1<<j ^ path[u] ^ path[v]
    (a self-loop closes 1<<j).  Edge j between two trees grafts the smaller
    tree onto the larger, and the grafted paths change by that same mask.
    Each cycle holds its own closing edge and no other, so the cycles are
    independent: there are E - V + components of them, a basis of the
    cycle space.
    """
    tree = {v: [v] for v in vertex_ids}
    path = dict.fromkeys(tree, 0)
    components = len(tree)
    cycles = []
    for j, (u, v) in enumerate(edges):
        mask = 1 << j ^ path[u] ^ path[v]
        big, small = tree[u], tree[v]
        if big is small:
            cycles.append(mask)
            continue
        if len(big) < len(small):
            big, small = small, big
        for w in small:
            tree[w] = big
            path[w] ^= mask
        big += small
        components -= 1
    return components, cycles


def betti_and_genus(graph: DualGraph) -> tuple[int, int]:
    """(b, g): first Betti number and total arithmetic genus."""
    b = len(graph.edges) - len(graph.vertices) + 1
    return b, sum(v.genus for v in graph.vertices) + b


# even_edge_sets lists all 2^b even sets, so it refuses a larger Betti
# number b: time and memory grow 4x per two cycles, past half a GB at b = 18.
BETTI_CAP = 16


def even_edge_sets(graph: DualGraph) -> list[tuple[str, ...]]:
    """The even edge sets = the cycle space of the graph, all 2^b of them.

    A set is even when every vertex meets it in an even number of
    edge-ends (a self-loop contributes two, hence never obstructs); these
    are the sums of subsets of the cycle basis from _forest, each checked
    to be even.  Each set is the sorted tuple of its edge ids, and the
    sets are returned in lexicographic order.  A graph with more than
    BETTI_CAP independent cycles is refused before any set is built.
    """
    b, _ = betti_and_genus(graph)
    if b > BETTI_CAP:
        raise ValueError(f"need b <= {BETTI_CAP} to list the 2^b even edge sets, got b = {b}")
    ends = [(e.u, e.v) for e in graph.edges]
    _, cycles = _forest([v.id for v in graph.vertices], ends)
    for cycle in cycles:
        odd = set()
        for j, (u, v) in enumerate(ends):
            if cycle >> j & 1:
                odd ^= {u} ^ {v}  # a self-loop meets its vertex twice
        if odd:
            raise InvariantError(f"cycle {cycle:#x} has odd degree at {sorted(odd)}")
    sets = sorted(
        tuple(sorted(e.id for j, e in enumerate(graph.edges) if (mask >> j) & 1))
        for mask in _span(cycles)
    )
    if len(sets) != 1 << b:
        raise InvariantError(f"{len(sets)} even edge sets, expected 2^{b}")
    return sets


@dataclass(frozen=True)
class FibreStratum:
    even_set: tuple[str, ...]
    b1: int
    component_count: int
    multiplicity: int


@dataclass(frozen=True)
class ThComponentReport:
    b: int
    g: int
    entries: tuple[FibreStratum, ...]
    total_components: int
    total_length: int
    reduced: bool


def th_components(graph: DualGraph) -> ThComponentReport:
    """Component/multiplicity decomposition of the theta fibre.

    Each even set Delta contributes 2^(2g-2b) * 2^(b1(Delta)) components
    of multiplicity 2^(b - b1(Delta)); the total length is always the
    fibre degree 2^(2g), which is checked, as is b1 >= 1 for nonempty
    Delta.  The fibre is reduced exactly for compact-type curves (b = 0).
    """
    b, g = betti_and_genus(graph)
    if g < 1:
        raise ValueError(f"need total genus >= 1, got {g}")
    ends = {e.id: (e.u, e.v) for e in graph.edges}
    entries = []
    for delta in even_edge_sets(graph):
        chosen = [ends[i] for i in delta]
        b1 = len(_forest({x for pair in chosen for x in pair}, chosen)[1])
        if chosen and not b1:
            raise InvariantError(f"even set {list(delta)} has b1 = 0")
        entries.append(
            FibreStratum(
                even_set=delta,
                b1=b1,
                component_count=1 << (2 * g - 2 * b + b1),
                multiplicity=1 << (b - b1),
            )
        )
    total_components = sum(e.component_count for e in entries)
    total_length = sum(e.component_count * e.multiplicity for e in entries)
    if total_length != 1 << (2 * g):
        raise InvariantError(f"fibre length {total_length} is not 2^(2g) at g={g}")
    return ThComponentReport(
        b=b,
        g=g,
        entries=tuple(entries),
        total_components=total_components,
        total_length=total_length,
        reduced=all(e.multiplicity == 1 for e in entries),
    )


def boundary_degrees_odd(g: int, i: int) -> tuple[int, int]:
    """Degrees (deg A_i, deg B_i) of the odd boundary divisors over Delta_i.

    For i >= 1 the two add up to the number 2^(g-1) (2^g - 1) of odd
    theta characteristics; over Delta_0 the covering is simply ramified
    along B_0, so deg A_0 + 2 deg B_0 hits the same total.  Both
    identities are checked.
    """
    if g < 2:
        raise ValueError(f"need g >= 2, got {g}")
    if not 0 <= i <= g // 2:
        raise ValueError(f"need 0 <= i <= g//2 = {g // 2}, got i={i}")
    odd_total = (1 << (g - 1)) * ((1 << g) - 1)
    quarter = 1 << (g - 2)
    if i == 0:
        deg_a = 1 << (2 * g - 2)
        deg_b = quarter * ((1 << (g - 1)) - 1)
        total = deg_a + 2 * deg_b
    else:
        deg_a = quarter * ((1 << i) - 1) * ((1 << (g - i)) + 1)
        deg_b = quarter * ((1 << i) + 1) * ((1 << (g - i)) - 1)
        total = deg_a + deg_b
    if total != odd_total:
        raise InvariantError(f"boundary degrees at (g, i) = ({g}, {i}) miss the odd count")
    return deg_a, deg_b
