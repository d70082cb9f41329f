import random
from itertools import islice

import pytest

import oracles
from neumaier.cliques import (
    cliques_of_order,
    extension_hypothesis_holds,
    max_clique_order,
    maximal_cliques,
    regular_cliques,
)
from neumaier.graphs import (
    complete,
    complement,
    complete_multipartite,
    cycle,
    from_edge_mask,
    from_edges,
    is_complete,
    johnson2,
    petersen,
    rook,
)
from neumaier.errors import ConsistencyError
from neumaier.regularity import (
    edge_regular_params,
    exact_clique_s,
    is_complete_multipartite,
    is_regular,
)


def masks(n):
    return range(1 << (n * (n - 1) // 2))


def as_sets(bitsets):
    return {oracles.bitset_to_set(c) for c in bitsets}


def small_graphs():
    """Every labeled graph with n <= 6."""
    return [from_edge_mask(n, m) for n in range(7) for m in range(1 << (n * (n - 1) // 2))]


def family_members():
    """Rook, Johnson and complete multipartite graphs with complements."""
    base = (
        [rook(n) for n in range(2, 6)]
        + [johnson2(n) for n in range(4, 8)]
        + [complete_multipartite(p, m) for p in range(2, 5) for m in range(2, 4)]
    )
    return base + [complement(g) for g in base]


def dense_regular(n, d, seed):
    """Complement of a seeded d-regular graph on n vertices, built from d
    edge-disjoint random perfect matchings (n even)."""
    rng = random.Random(seed)
    edges = set()
    for _ in range(d):
        while True:
            order = list(range(n))
            rng.shuffle(order)
            pairs = {tuple(sorted(order[i:i + 2])) for i in range(0, n, 2)}
            if not pairs & edges:
                edges |= pairs
                break
    return complement(from_edges(n, edges))


def test_maximal_cliques_examples():
    assert list(maximal_cliques(complete(4))) == [0b1111]
    c5 = as_sets(maximal_cliques(cycle(5)))
    assert c5 == {frozenset(e) for e in cycle(5).edges()}
    pet = as_sets(maximal_cliques(petersen()))
    assert len(pet) == 15
    assert pet == {frozenset(e) for e in petersen().edges()}


def test_maximal_cliques_against_subset_oracle():
    rng = random.Random(5)
    for _ in range(80):
        n = rng.randint(1, 7)
        nb = n * (n - 1) // 2
        g = from_edge_mask(n, rng.getrandbits(nb) if nb else 0)
        got = list(maximal_cliques(g))
        assert len(got) == len(set(got))  # exactly-once emission
        assert as_sets(got) == oracles.brute_maximal_cliques(g)


def test_maximal_cliques_order_matches_reference():
    graphs = (
        small_graphs()
        + family_members()
        + [dense_regular(40, 6, seed) for seed in range(3)]
    )
    for g in graphs:
        assert list(maximal_cliques(g)) == list(oracles.reference_maximal_cliques(g))


def test_regular_cliques_rook():
    reports = regular_cliques(rook(3))
    assert len(reports) == 6
    assert all(r.order == 3 and r.nexus == 1 and r.is_regular for r in reports)
    # rows and columns of the 3x3 grid
    expected = {frozenset({0, 1, 2}), frozenset({3, 4, 5}), frozenset({6, 7, 8}),
                frozenset({0, 3, 6}), frozenset({1, 4, 7}), frozenset({2, 5, 8})}
    assert {oracles.bitset_to_set(r.members) for r in reports} == expected


def test_regular_cliques_petersen_and_octahedron():
    assert regular_cliques(petersen()) == []
    reports = regular_cliques(complete_multipartite(3, 2))
    assert len(reports) == 8
    assert all(r.order == 3 and r.nexus == 2 for r in reports)
    with pytest.raises(ValueError):
        regular_cliques(complete(5))


def test_outside_counts():
    g = rook(3)
    row = 0b111  # vertices 0,1,2
    assert oracles.outside_counts(g, row) == [1] * 6


def test_equitable_bipartition_rook_row():
    res = oracles.is_equitable_bipartition(rook(3), 0b111)
    assert res.equitable
    assert res.quotient == ((2, 2), (1, 3))
    assert sorted(res.eigenvalues) == [1.0, 4.0]


def test_equitable_bipartition_negative_cases():
    pet = petersen()
    edge = 0b11 if pet.has_edge(0, 1) else None
    first_edge = next(iter(pet.edges()))
    c = (1 << first_edge[0]) | (1 << first_edge[1])
    assert not oracles.is_equitable_bipartition(pet, c).equitable
    assert not oracles.is_equitable_bipartition(pet, 1).equitable  # single vertex
    with pytest.raises(ValueError):
        oracles.is_equitable_bipartition(pet, 0)
    with pytest.raises(ValueError):
        oracles.is_equitable_bipartition(pet, (1 << 10) - 1)


def test_cliques_of_order_examples():
    assert len(list(cliques_of_order(complete(4), 2))) == 6
    triangles = as_sets(cliques_of_order(rook(3), 3))
    assert len(triangles) == 6  # rows and columns only
    assert triangles == oracles.brute_cliques_of_order(rook(3), 3)
    assert list(cliques_of_order(petersen(), 3)) == []
    with pytest.raises(ValueError):
        list(cliques_of_order(petersen(), 0))


def test_cliques_of_order_oracle():
    rng = random.Random(6)
    for _ in range(40):
        n = rng.randint(1, 7)
        nb = n * (n - 1) // 2
        g = from_edge_mask(n, rng.getrandbits(nb) if nb else 0)
        for t in range(1, 5):
            assert as_sets(cliques_of_order(g, t)) == oracles.brute_cliques_of_order(
                g, t
            )


def test_extension_hypothesis_families():
    assert extension_hypothesis_holds(rook(3), 1, 2).holds
    assert extension_hypothesis_holds(rook(4), 1, 3).holds
    assert extension_hypothesis_holds(complete_multipartite(3, 2), 2, 2).holds
    assert extension_hypothesis_holds(complete_multipartite(4, 3), 3, 3).holds


def test_extension_hypothesis_johnson_fails():
    # triangular graphs have two kinds of 3-cliques; the ones formed by
    # the three pairs inside a 3-set are maximal at order 3, so they do
    # not extend to the (s+1)=4 stars (verified by subset brute force)
    res = extension_hypothesis_holds(johnson2(5), 2, 3)
    assert not res.holds
    witness = oracles.bitset_to_set(res.witness)
    g = johnson2(5)
    big = oracles.brute_cliques_of_order(g, 4)
    assert not any(witness <= c for c in big)


def test_extension_hypothesis_failure_witness():
    # triangle plus a hanging edge: the edge (3,4) extends to no triangle
    g = from_edges(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
    res = extension_hypothesis_holds(g, 1, 2)
    assert not res.holds
    assert oracles.bitset_to_set(res.witness) == frozenset({3, 4})


def test_extension_hypothesis_argument_errors():
    with pytest.raises(ValueError):
        extension_hypothesis_holds(rook(3), 0, 2)
    with pytest.raises(ValueError):
        extension_hypothesis_holds(petersen(), 1, 2)  # no 3-cliques at all


def extension_outcome(check, g, e, s):
    try:
        return check(g, e, s)
    except (ValueError, ConsistencyError) as exc:
        return type(exc)


def test_extension_hypothesis_matches_pairing_reference():
    for g in small_graphs() + family_members():
        for s in range(1, 6):
            for e in range(1, s + 1):
                got = extension_outcome(extension_hypothesis_holds, g, e, s)
                want = extension_outcome(oracles.pairing_extension_hypothesis, g, e, s)
                assert got == want, (g.adj, e, s)


def test_extension_read_off_regular_cliques_matches_both_checks(monkeypatch):
    """``Analysis.extension`` reads the report off the regular cliques when
    every maximal clique is regular, and runs the general check
    otherwise; both paths must give the general check's report and the
    pairing reference's."""
    import sys

    from neumaier.classify import Analysis

    module = sys.modules["neumaier.classify"]
    general = []
    original = module.extension_hypothesis_holds

    def counted(g, e, s):
        general.append(g)
        return original(g, e, s)

    monkeypatch.setattr(module, "extension_hypothesis_holds", counted)
    cayley = oracles.cayley_z2z8_lambda4()
    assert len(cayley) == 8
    graphs = [g for g in small_graphs() + family_members() if Analysis(g).is_neumaier]
    read_off = 0
    for g in graphs + cayley:
        ctx = Analysis(g)
        s, e = ctx.s_e
        before = len(general)
        got = extension_outcome(lambda *_: ctx.extension, g, e, s)
        assert got == extension_outcome(extension_hypothesis_holds, g, e, s)
        assert got == extension_outcome(oracles.pairing_extension_hypothesis, g, e, s)
        found = ctx.regular_cliques
        all_regular = found.maximal_count == len(found)
        assert len(general) == before + (not all_regular)
        read_off += all_regular
        if g in cayley:
            assert (found.maximal_count, len(found)) == (72, 8)
    assert read_off > 0
    assert all(g in general for g in cayley)


def test_clique_order_bound_small_sweep():
    # edge-regular non-multipartite graphs: every clique has order at most
    # s+1, and a clique attains s+1 exactly when its outside-adjacency
    # counts are constant (Cauchy-Schwarz equality).  Those cliques are
    # the regular cliques precisely when the forced nexus is positive,
    # i.e. k > s; for k = s the constant is 0 and no clique is regular.
    for n in range(3, 7):
        for m in masks(n):
            g = from_edge_mask(n, m)
            if g.edge_count() == 0:
                continue
            erg = edge_regular_params(g)
            if erg is None or is_complete_multipartite(g)[0]:
                continue
            s = oracles.clique_bound_s(erg)
            omega = max_clique_order(g)
            assert omega <= int(s) + 1
            s_int = exact_clique_s(erg)
            constant = {
                c
                for t in range(1, omega + 1)
                for c in cliques_of_order(g, t)
                if len(set(oracles.outside_counts(g, c))) == 1
            }
            if s_int is None:
                # irrational s is never attained, so no clique anywhere in
                # the graph can have constant outside counts
                assert constant == set()
            else:
                attained = set(cliques_of_order(g, s_int + 1))
                assert constant == attained
                regs = {r.members for r in regular_cliques(g)}
                if erg.k > s_int:
                    assert regs == attained
                else:
                    assert regs == set()


def test_multipartite_transversal_cliques():
    # complete multipartite: regular cliques = transversals, e = s = parts-1
    for p in range(2, 5):
        for size in range(2, 4):
            g = complete_multipartite(p, size)
            reports = regular_cliques(g)
            assert len(reports) == size**p
            assert all(r.order == p and r.nexus == p - 1 for r in reports)


def test_regular_iff_equitable_positive_on_regular_graphs():
    for n in range(2, 7):
        for m in masks(n):
            g = from_edge_mask(n, m)
            if not is_regular(g) or g.edge_count() == 0:
                continue
            from neumaier.graphs import is_complete

            if is_complete(g):
                continue
            for c in maximal_cliques(g):
                counts = oracles.outside_counts(g, c)
                reg = counts[0] > 0 and len(set(counts)) == 1
                eq = oracles.is_equitable_bipartition(g, c)
                assert reg == (eq.equitable and eq.quotient[1][0] > 0)


def test_regular_cliques_carry_the_largest_maximal_clique_order():
    rng = random.Random(44)
    graphs = [rook(5), petersen(), cycle(5), complement(rook(4)), complete_multipartite(4, 3)]
    graphs += [from_edge_mask(8, rng.getrandbits(28)) for _ in range(60)]
    for g in graphs:
        from neumaier.graphs import is_complete

        if g.n == 0 or is_complete(g):
            continue
        assert regular_cliques(g).max_order == max_clique_order(g)


def regular_by_outside_counts(g, maximal):
    """(members, order, nexus) of each clique in ``maximal`` whose outside
    counts are one positive constant, and how many have every count 0."""
    found, isolated = set(), 0
    for c in maximal:
        counts = oracles.outside_counts(g, c)
        if len(set(counts)) == 1:
            if counts[0]:
                found.add((c, c.bit_count(), counts[0]))
            else:
                isolated += 1
    return found, isolated


def test_packed_regularity_check_matches_outside_counts(monkeypatch):
    """Every labeled graph with n <= 6 and seeded random graphs with
    n = 7..20 at three densities.  The maximal cliques come from subset
    brute force up to n = 16 and from ``oracles.reference_maximal_cliques``
    above that, where brute force would take seconds a graph.  With no
    probes after the first and last outside vertex, the packed comparison
    also has to reject the irregular cliques that the probes would."""
    import neumaier.cliques as cq

    rng = random.Random(25)
    graphs = small_graphs()
    for n in range(7, 21):
        p = (0.25, 0.5, 0.85)[n % 3]
        graphs.append(
            from_edge_mask(n, sum(1 << t for t in range(n * (n - 1) // 2) if rng.random() < p))
        )
    cases = []
    isolated = regular = 0
    for g in graphs:
        if g.n == 0 or is_complete(g):
            continue
        if g.n <= 16:
            maximal = [sum(1 << v for v in c) for c in oracles.brute_maximal_cliques(g)]
        else:
            maximal = list(oracles.reference_maximal_cliques(g))
        want, none_seen = regular_by_outside_counts(g, maximal)
        cases.append((g, maximal, want))
        isolated += none_seen
        regular += len(want)
    for probes in (cq._PROBES, 0):
        monkeypatch.setattr(cq, "_PROBES", probes)
        for g, maximal, want in cases:
            got = regular_cliques(g)
            assert len(got) == len(want)
            assert {(r.members, r.order, r.nexus) for r in got} == want
            assert got.maximal_count == len(maximal)
            assert got.max_order == max(c.bit_count() for c in maximal)
    # cliques that see no outside vertex (a clique component) must be
    # skipped at e == 0, or the packed comparison would accept them
    assert isolated > 1000 and regular > 10000


@pytest.mark.parametrize("probes", ["default", 0])
@pytest.mark.parametrize("dense", ["gnp", "multipartite"])
def test_packed_regularity_check_on_the_widest_lanes(monkeypatch, dense, probes):
    """62 lanes, on a prefix of the maximal cliques: a non-regular
    G(62, 0.9), where no clique is regular, and K_{31x2}, where every one
    is, with nexus 30; with the default probes, and with none after the
    first and last outside vertex."""
    import neumaier.cliques as cq

    if dense == "gnp":
        rng = random.Random(1)
        g = from_edge_mask(62, sum(1 << t for t in range(1891) if rng.random() < 0.9))
        assert not is_regular(g)
    else:
        g = complete_multipartite(31, 2)
    if probes != "default":
        monkeypatch.setattr(cq, "_PROBES", probes)
    original = cq.maximal_cliques
    maximal = list(islice(original(g), 300))
    monkeypatch.setattr(cq, "maximal_cliques", lambda h: islice(original(h), 300))
    want, _ = regular_by_outside_counts(g, maximal)
    got = regular_cliques(g)
    assert {(r.members, r.order, r.nexus) for r in got} == want
    assert len(got) == len(want) == (0 if dense == "gnp" else 300)
    assert got.maximal_count == 300
    assert got.max_order == max(c.bit_count() for c in maximal)


def test_classify_enumerates_maximal_cliques_once_per_graph(monkeypatch):
    """The regular cliques, the largest clique order and the number of
    maximal cliques come from one enumeration, made only where the
    spectrum admits a regular clique.  A Neumaier graph whose maximal
    cliques are all regular gets that one pass and nothing else: the
    extension check reads its answer off the regular cliques.  Where some
    maximal clique is not regular, the extension check enumerates
    cliques of its own.  A graph the spectrum rules out gets no pass, or
    one when Hoffman reads its clique number (edge-regular graphs)."""
    import neumaier.cliques as cq
    from neumaier.classify import Analysis, classify

    passes = []
    by_order = []
    original = cq.maximal_cliques
    original_by_order = cq.cliques_of_order

    def counted(g):
        passes.append(g)
        return original(g)

    def counted_by_order(g, t):
        by_order.append(t)
        return original_by_order(g, t)

    monkeypatch.setattr(cq, "maximal_cliques", counted)
    monkeypatch.setattr(cq, "cliques_of_order", counted_by_order)
    expected = [
        (petersen(), 1, 0),  # ruled out; edge-regular, so Hoffman's own pass
        (dense_regular(40, 6, 0), 0, 0),  # ruled out; not edge-regular
        (johnson2(6), 1, 2),  # extension hypothesis fails
        (rook(4), 1, 0),
        (complement(rook(4)), 1, 0),
        (complete_multipartite(3, 3), 1, 0),
    ]
    for g, want, want_by_order in expected:
        passes.clear()
        by_order.clear()
        classify(g)
        assert len(passes) == want
        assert len(by_order) == want_by_order
    ctx = Analysis(complement(petersen()))
    passes.clear()
    assert ctx.max_clique_order == max_clique_order(complement(petersen())) == 4
    assert len(passes) == 2  # the Analysis pass and the reference one


# ---------------------------------------------------------------------------
# the spectral gate in front of the regular-clique search


def test_gated_search_matches_full_search_on_regular_graphs(sweep_results, sweep7):
    from neumaier.classify import Analysis

    checked = 0
    for n, res in [*sweep_results.items(), (7, sweep7)]:
        for mask in res.regular_masks:
            g = from_edge_mask(n, mask)
            if is_complete(g):
                continue
            ctx = Analysis(g)
            assert ctx.regular_cliques == regular_cliques(g)
            assert ctx.max_clique_order == max_clique_order(g)
            checked += 1
    assert checked == 1124  # 1 + 1 + 7 + 13 + 171 + 931 for n = 2..7


def test_neumaier_graphs_pass_the_gate_at_s_minus_e():
    from neumaier.classify import Analysis, regular_clique_orders

    graphs = [g for g in family_members() if Analysis(g).is_neumaier]
    graphs += oracles.cayley_z2z8_lambda4()
    assert len(graphs) > 20
    for g in graphs:
        ctx = Analysis(g)
        s, e = ctx.s_e
        p = ctx.spectrum.charpoly
        assert (s + 1, e) in set(regular_clique_orders(g.n, g.adj[0].bit_count(), p))
        assert p.eval_int(s - e) == 0


def test_gate_skips_the_search_when_no_order_is_admitted(monkeypatch):
    import neumaier.cliques as cq
    from neumaier.classify import Analysis

    def refuse(g):
        raise AssertionError("maximal cliques enumerated behind a closed gate")

    graphs = [petersen(), dense_regular(40, 6, 1)]
    monkeypatch.setattr(cq, "maximal_cliques", refuse)
    for g in graphs:
        ctx = Analysis(g)
        assert ctx.regular_cliques == [] and ctx.regular_cliques.max_order == 0
    monkeypatch.undo()
    for g in graphs:
        assert regular_cliques(g) == []


def test_regular_cliques_give_the_quotient_eigenvalue_c_minus_1_minus_e():
    found = 0
    for g in family_members():
        if g.n == 0 or is_complete(g) or not is_regular(g):
            continue
        k = g.adj[0].bit_count()
        for r in regular_cliques(g):
            c, e = r.order, r.nexus
            eq = oracles.is_equitable_bipartition(g, r.members)
            assert eq.equitable
            assert eq.quotient == ((c - 1, k - c + 1), (e, k - e))
            assert eq.eigenvalues == (k, c - 1 - e)
            found += 1
    assert found > 100
