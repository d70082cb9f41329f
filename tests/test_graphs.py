import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from neumaier.errors import Graph6Error
from neumaier.graphs import (
    complement,
    complete,
    complete_multipartite,
    components,
    cycle,
    decode_graph6,
    diameter,
    edge_mask,
    encode_graph6,
    from_edge_mask,
    from_edges,
    generate,
    is_complete,
    is_connected,
    johnson2,
    line_graph,
    petersen,
    rook,
)


def masks(n):
    return range(1 << (n * (n - 1) // 2))


# ---------------------------------------------------------------------------
# graph6 codec


def test_decode_known_records():
    # hand-encoded via the format definition
    g = decode_graph6("B?")
    assert g.n == 3 and g.edge_count() == 0
    g = decode_graph6("Bw")
    assert g == complete(3)
    g = decode_graph6("C~")
    assert g == complete(4)


def test_encode_known_records():
    assert encode_graph6(complete(3)) == "Bw"
    assert encode_graph6(from_edges(3, [])) == "B?"
    assert encode_graph6(complete(4)) == "C~"


def test_decode_header_errors():
    with pytest.raises(Graph6Error):
        decode_graph6("")
    err = pytest.raises(Graph6Error, decode_graph6, chr(20) + "w")
    assert err.value.offset == 0
    # long-form header rejected by design
    err = pytest.raises(Graph6Error, decode_graph6, "~??")
    assert err.value.offset == 0


def test_decode_payload_errors():
    # K_3 needs one payload byte
    err = pytest.raises(Graph6Error, decode_graph6, "B")
    assert err.value.offset == 1
    err = pytest.raises(Graph6Error, decode_graph6, "Bww")
    assert "trailing" in str(err.value)
    # byte below 63 in the payload
    err = pytest.raises(Graph6Error, decode_graph6, "B" + chr(40))
    assert err.value.offset == 1
    # n=2 has one significant bit; '@' sets a padding bit instead
    err = pytest.raises(Graph6Error, decode_graph6, "A@")
    assert "padding" in str(err.value)


def test_encode_size_limit():
    g = from_edges(63, [])
    with pytest.raises(Graph6Error):
        encode_graph6(g)


def test_roundtrip_exhaustive_small():
    for n in range(0, 6):
        for m in masks(n):
            g = from_edge_mask(n, m)
            assert decode_graph6(encode_graph6(g)) == g


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 20), st.randoms())
def test_roundtrip_random(n, rnd):
    m = rnd.getrandbits(n * (n - 1) // 2) if n > 1 else 0
    g = from_edge_mask(n, m)
    text = encode_graph6(g)
    assert decode_graph6(text) == g
    assert encode_graph6(decode_graph6(text)) == text
    assert edge_mask(g) == m


def test_header_prefix_stripped():
    assert decode_graph6(">>graph6<<Bw") == complete(3)


# ---------------------------------------------------------------------------
# families


def test_rook_structure():
    g = rook(3)
    assert g.n == 9
    assert all(g.degree(u) == 4 for u in range(9))
    # rook(side) is the line graph of K_{side,side}, labels included
    for side in range(2, 9):
        assert line_graph(complete_multipartite(2, side)) == rook(side)
        assert oracles.rook_closed_form(side) == rook(side)


def test_johnson_octahedron():
    g = johnson2(4)
    assert g.n == 6
    assert all(g.degree(u) == 4 for u in range(6))
    assert oracles.perm_isomorphic(g, complete_multipartite(3, 2))


def test_multipartite_is_cycle():
    assert oracles.perm_isomorphic(complete_multipartite(2, 2), cycle(4))


def test_johnson_parameters():
    for n in range(4, 9):
        g = johnson2(n)
        assert g.n == n * (n - 1) // 2
        assert all(g.degree(u) == 2 * (n - 2) for u in range(g.n))


def test_petersen_structure():
    g = petersen()
    assert g.n == 10
    assert all(g.degree(u) == 3 for u in range(10))
    # triangle-free
    assert all(
        (g.adj[u] & g.adj[v]).bit_count() == 0 for u, v in g.edges()
    )


def test_family_parameter_errors():
    for bad in [lambda: rook(1), lambda: johnson2(3),
                lambda: complete_multipartite(1, 2),
                lambda: complete_multipartite(2, 0),
                lambda: cycle(2), lambda: complete(0)]:
        with pytest.raises(ValueError):
            bad()
    # just above the 512-vertex cap; each one builds if its check is missing
    for bad, n in [(lambda: complete(513), 513),
                   (lambda: complete_multipartite(2, 257), 514),
                   (lambda: rook(23), 529), (lambda: johnson2(33), 528)]:
        with pytest.raises(ValueError, match=rf"^vertex count {n} outside \[0, 512\]$"):
            bad()
    with pytest.raises(ValueError):
        generate("nosuch", 3)
    with pytest.raises(ValueError):
        generate("rook", 3, 3)


def test_generate_dispatch():
    assert generate("rook", 3) == rook(3)
    assert generate("petersen") == petersen()


# ---------------------------------------------------------------------------
# complement / line graph / diameter


def test_complement_examples():
    assert complement(complete(4)).edge_count() == 0
    c5 = cycle(5)
    assert oracles.perm_isomorphic(complement(c5), c5)
    assert complement(petersen()) == johnson2(5)
    assert oracles.petersen_closed_form() == petersen()


def test_complement_involution_small():
    for n in range(0, 6):
        for m in masks(n):
            g = from_edge_mask(n, m)
            assert complement(complement(g)) == g


def test_line_graph_examples():
    assert oracles.perm_isomorphic(line_graph(complete(4)), complete_multipartite(3, 2))
    # J(m,2) is the line graph of K_m, labels included
    for m in range(4, 12):
        assert line_graph(complete(m)) == johnson2(m)
        assert oracles.johnson2_closed_form(m) == johnson2(m)
    assert line_graph(complete(3)) == complete(3)
    with pytest.raises(ValueError):
        line_graph(from_edges(3, []))


def test_line_graph_size_and_degrees():
    for n in range(2, 6):
        for m in masks(n):
            g = from_edge_mask(n, m)
            if g.edge_count() == 0:
                continue
            lg = line_graph(g)
            edges = list(g.edges())
            assert lg.n == len(edges)
            for idx, (u, v) in enumerate(edges):
                assert lg.degree(idx) == g.degree(u) + g.degree(v) - 2


def test_diameter_examples():
    assert diameter(petersen()) == 2
    assert diameter(cycle(6)) == 3
    two_triangles = from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert diameter(two_triangles) == math.inf


def test_diameter_oracle_and_completeness():
    for n in range(1, 5):
        for m in masks(n):
            g = from_edge_mask(n, m)
            assert diameter(g) == oracles.floyd_warshall_diameter(g)
            assert (diameter(g) <= 1) == is_complete(g)


def test_components_and_connectivity():
    g = from_edges(5, [(0, 1), (2, 3)])
    comps = components(g)
    assert [c.bit_count() for c in comps] == [2, 2, 1]
    assert not is_connected(g)
    assert is_connected(petersen())


