"""Dual graphs, even node sets, and the spin-fibre component counts."""

import hashlib
import inspect
import json
import random

import pytest

from oracles import oracle_b1, oracle_connected, oracle_even_edge_sets
from thetachar import boundary
from thetachar.boundary import (
    DualGraph,
    Edge,
    EvenEdgeSet,
    Vertex,
    betti_and_genus,
    boundary_degrees_odd,
    even_edge_sets,
    pullback_relations,
    th_components,
)
from thetachar.config import InvariantError
from thetachar.picard import DivClass
from thetachar.verify import run_acceptance


def graph(vertex_genera, edge_pairs):
    vertices = tuple(Vertex(f"v{k}", gk) for k, gk in enumerate(vertex_genera))
    edges = tuple(
        Edge(f"e{k}", f"v{u}", f"v{v}") for k, (u, v) in enumerate(edge_pairs)
    )
    return DualGraph(vertices, edges)


def test_betti_and_genus_examples():
    assert betti_and_genus(graph([1, 3], [(0, 1)])) == (0, 4)  # compact type
    assert betti_and_genus(graph([3], [(0, 0)])) == (1, 4)  # one self-loop
    assert betti_and_genus(graph([1, 2], [(0, 1), (0, 1)])) == (1, 4)  # banana


def test_graph_validation():
    with pytest.raises(ValueError):
        DualGraph(())
    with pytest.raises(ValueError):
        graph([1, 1], [])  # disconnected
    with pytest.raises(ValueError):
        DualGraph((Vertex("a", 1), Vertex("a", 2)))  # duplicate id
    with pytest.raises(ValueError):
        DualGraph((Vertex("a", 1),), (Edge("e", "a", "zzz"),))
    with pytest.raises(ValueError):
        Vertex("v", -1)
    with pytest.raises(ValueError):
        Vertex("", 0)


def test_even_edge_sets_small_graphs():
    sep = graph([1, 2], [(0, 1)])
    assert [s.edges for s in even_edge_sets(sep)] == [()]

    loop = graph([2], [(0, 0)])
    assert [s.edges for s in even_edge_sets(loop)] == [(), ("e0",)]

    banana = graph([1, 2], [(0, 1), (0, 1)])
    assert [s.edges for s in even_edge_sets(banana)] == [(), ("e0", "e1")]


def test_even_edge_sets_match_the_cycle_space_oracle():
    rnd = random.Random(6)
    for _ in range(60):
        n = rnd.randrange(1, 5)
        pairs = [(k, rnd.randrange(k)) for k in range(1, n)]  # spanning tree
        pairs += [
            (rnd.randrange(n), rnd.randrange(n)) for _ in range(rnd.randrange(4))
        ]
        g = graph([1] * n, pairs)
        b, _ = betti_and_genus(g)
        got = {s.edges for s in even_edge_sets(g)}
        want = {
            tuple(f"e{k}" for k in sorted(subset))
            for subset in oracle_even_edge_sets(n, pairs)
        }
        assert got == want
        assert len(got) == 1 << b


def test_th_components_compact_type_is_reduced():
    g = graph([1, 3], [(0, 1)])
    report = th_components(g)
    assert report.b == 0 and report.g == 4
    assert len(report.entries) == 1
    assert report.entries[0].component_count == 256
    assert report.entries[0].multiplicity == 1
    assert report.reduced
    assert report.total_length == 256


def test_th_components_one_nodal_irreducible():
    for genus in (2, 3, 4, 5):
        report = th_components(graph([genus - 1], [(0, 0)]))
        assert report.total_components == 3 * (1 << (2 * genus - 2))
        assert not report.reduced


def test_th_components_banana_worked_example():
    report = th_components(graph([1, 2], [(0, 1), (0, 1)]))
    assert report.g == 4
    by_set = {e.even_set.edges: e for e in report.entries}
    empty = by_set[()]
    assert (empty.component_count, empty.multiplicity) == (64, 2)
    both = by_set[("e0", "e1")]
    assert (both.b1, both.component_count, both.multiplicity) == (1, 128, 1)
    assert report.total_length == 256


def test_th_components_length_invariant_on_random_graphs():
    rnd = random.Random(31)
    for _ in range(200):
        n = rnd.randrange(1, 5)
        pairs = [(k, rnd.randrange(k)) for k in range(1, n)]
        pairs += [
            (rnd.randrange(n), rnd.randrange(n)) for _ in range(rnd.randrange(4))
        ]
        genera = [rnd.randrange(3) for _ in range(n)]
        g = graph(genera, pairs)
        b, total_genus = betti_and_genus(g)
        if total_genus < 1:
            continue
        report = th_components(g)
        assert report.total_length == 1 << (2 * total_genus)
        assert report.reduced == (b == 0)
        for e in report.entries:
            assert e.multiplicity & (e.multiplicity - 1) == 0  # power of two
            assert 1 <= e.multiplicity <= 1 << b
            # b1 of the sub-edge-set agrees with the naive union-find oracle
            ids = {int(i[1:]) for i in e.even_set.edges}
            assert e.b1 == oracle_b1(ids, pairs)


def test_connectivity_and_cycles_match_the_oracles_on_random_multigraphs():
    # edges in random order, so trees of any size get grafted onto each other
    rnd = random.Random(17)
    for _ in range(400):
        n = rnd.randrange(1, 8)
        pairs = [(rnd.randrange(n), rnd.randrange(n)) for _ in range(rnd.randrange(10))]
        if not oracle_connected(n, pairs):
            with pytest.raises(ValueError, match="not connected"):
                graph([1] * n, pairs)
            continue
        report = th_components(graph([1] * n, pairs))
        got = {e.even_set.edges: e.b1 for e in report.entries}
        want = {
            tuple(f"e{j}" for j in sorted(subset)): oracle_b1(subset, pairs)
            for subset in oracle_even_edge_sets(n, pairs)
        }
        assert got == want


def test_th_components_is_frozen_on_random_multigraphs():
    # sha256 over 2,400 seeded multigraphs (1..6 vertices, 0..8 edges,
    # self-loops and disconnected ones included) of each report's JSON or
    # error text; frozen from the DFS / kernel-mask / union-find version
    rnd = random.Random(2024)
    h = hashlib.sha256()
    for _ in range(2400):
        n = rnd.randrange(1, 7)
        pairs = [(rnd.randrange(n), rnd.randrange(n)) for _ in range(rnd.randrange(9))]
        genera = [rnd.randrange(3) for _ in range(n)]
        try:
            line = json.dumps(th_components(graph(genera, pairs)).to_json_dict(), sort_keys=True)
        except ValueError as exc:
            line = f"error: {exc}"
        h.update(line.encode() + b"\n")
    assert h.hexdigest() == "6841422a81f0b152b3ac8ac5731313e4e92632f72f686d287ab37d5de9d600d4"


def test_th_components_on_a_3000_vertex_graph():
    # a random tree, its edges in shuffled order so many trees get grafted,
    # plus six extra edges (one a self-loop): b = 6, 64 even sets
    rnd = random.Random(8)
    n = 3000
    pairs = [(rnd.randrange(k), k) for k in range(1, n)]
    rnd.shuffle(pairs)
    pairs += [(rnd.randrange(n), rnd.randrange(n)) for _ in range(5)] + [(7, 7)]
    g = graph([0] * n, pairs)
    report = th_components(g)
    assert (report.b, report.g) == (6, 6)
    assert len({e.even_set.edges for e in report.entries}) == 64
    assert report.total_length == 1 << 12
    for e in report.entries:
        ids = {int(i[1:]) for i in e.even_set.edges}
        degree = [0] * n
        for j in ids:
            u, v = pairs[j]
            degree[u] += 1
            degree[v] += 1
        assert not any(d & 1 for d in degree)
        assert e.b1 == oracle_b1(ids, pairs)
    with pytest.raises(ValueError, match="not connected"):
        graph([0] * (n + 1), pairs)  # one isolated vertex more


def test_a_wrong_cycle_basis_is_caught_at_run_time(monkeypatch):
    # the mutant drops path[u] from the graft shift: its cycles stay
    # independent, so only the degree and b1 checks can see them
    source = inspect.getsource(boundary._forest)
    assert source.count("path[w] ^= mask") == 1
    namespace = {}
    exec(source.replace("path[w] ^= mask", "path[w] ^= 1 << j ^ path[v]"), vars(boundary), namespace)
    monkeypatch.setattr(boundary, "_forest", namespace["_forest"])
    # e2 grafts {v2, v3} onto {v0, v1} through v1, whose path e0 the mutant
    # leaves out, so e3 closes e1 + e3 instead of the whole square
    square = graph([0, 0, 0, 0], [(0, 1), (2, 3), (1, 2), (3, 0)])
    with pytest.raises(InvariantError, match=r"cycle 0xa has odd degree at \['v0', 'v2'\]"):
        th_components(square)
    (result,) = run_acceptance(only=[9]).results
    assert not result.passed
    assert result.details.startswith("InvariantError: ")
    # a nonempty set with no cycle is not even, whatever produced it
    odd_sets = [EvenEdgeSet(()), EvenEdgeSet(("e0",))]
    monkeypatch.setattr(boundary, "even_edge_sets", lambda _: odd_sets)
    with pytest.raises(InvariantError, match=r"even set \['e0'\] has b1 = 0"):
        th_components(square)


def test_boundary_degrees_odd_examples():
    assert boundary_degrees_odd(3, 1) == (10, 18)
    assert boundary_degrees_odd(3, 0) == (16, 6)
    for g in range(2, 11):
        odd_total = 1 << (g - 1)
        odd_total *= (1 << g) - 1
        a0, b0 = boundary_degrees_odd(g, 0)
        assert a0 + 2 * b0 == odd_total
        for i in range(1, g // 2 + 1):
            a, b = boundary_degrees_odd(g, i)
            assert a + b == odd_total
    with pytest.raises(ValueError):
        boundary_degrees_odd(3, 2)
    with pytest.raises(ValueError):
        boundary_degrees_odd(1, 0)


def test_pullback_relations_emit_divisor_identities():
    rel = dict(
        (delta.coeffs, image) for delta, image in pullback_relations(4)
    )
    d0 = rel[(("delta_0", 1),)]
    assert d0.coeff("alpha_0") == 1 and d0.coeff("beta_0") == 2
    d1 = rel[(("delta_1", 1),)]
    assert d1.coeff("alpha_1") == 1 and d1.coeff("beta_1") == 1
    # linearity through the DivClass algebra
    combo = 2 * DivClass("Mbar", 4, {"delta_0": 1}) + DivClass(
        "Mbar", 4, {"delta_1": 1}
    )
    from thetachar.picard import pullback

    image = pullback(combo)
    assert image.coeff("alpha_0") == 2
    assert image.coeff("beta_0") == 4
    assert image.coeff("alpha_1") == 1
    assert image.coeff("beta_1") == 1


def test_json_round_trip():
    g = graph([0, 2], [(0, 1), (0, 1), (1, 1)])
    data = g.to_json_dict()
    assert DualGraph.from_json_dict(data) == g
    with pytest.raises(ValueError):
        DualGraph.from_json_dict({"vertices": []})
    with pytest.raises(ValueError):
        DualGraph.from_json_dict({"vertices": [{"id": "a", "genus": 1}], "edges": [], "x": 1})
