import itertools

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from schemedouble.errors import DimensionMismatch, NotConstant
from schemedouble.fields import QQ, make_field
from schemedouble.appendix import b_lambda
from schemedouble.doubles import drinfeld_double
from schemedouble.groupschemes import (
    GroupScheme,
    constant_group,
    direct_product,
    full_subgroup,
    ga_frobenius_subgroup,
    ga_kernel,
    inclusion,
    mu_p_kernel,
    subgroup_from_generators,
    trivial_subgroup,
)
from schemedouble.lattice import (
    beta_pairing,
    block_data,
    centralizer_triple,
    classify,
    enumerate_triples,
    hasse_dot,
    normal_subgroups,
)
from schemedouble.hopf import verify_hopf
from schemedouble.linalg import mat_key, unit_vec
from schemedouble.quotients import Triple, build_quotient, trivial_hopf_map

from conftest import D4_GENS, make_borel, make_s3, make_v4, make_z2, make_z3, permutation_table
import oracles
from oracles import (
    centralizer_certificate,
    contains,
    hasse_edges_pairwise,
    intersect,
    intersect_by_recognition,
    sub_inclusion_reduced,
)

F2 = make_field("prime", p=2)
F3 = make_field("prime", p=3)
F7 = make_field("prime", p=7)
Z6_GENS = [(1, 2, 3, 4, 5, 0)]


def canonical_triples(G):
    one = trivial_subgroup(G)
    full = full_subgroup(G)
    bottom = Triple(G, one, full, trivial_hopf_map(full, one))
    top = Triple(G, full, one, trivial_hopf_map(one, full))
    rep = Triple(G, one, one, trivial_hopf_map(one, one))
    return bottom, top, rep


def test_centralizer_swaps_canonical_triples():
    G = make_z2(QQ)
    bottom, top, rep = canonical_triples(G)
    assert centralizer_triple(bottom).key() == top.key()
    assert centralizer_triple(top).key() == bottom.key()
    assert centralizer_triple(centralizer_triple(rep)).key() == rep.key()


def test_centralizer_involution_and_certificate():
    G = ga_kernel(1, F3)
    nodes, edges = enumerate_triples(G)
    by_key = {n.triple.key(): n for n in nodes}
    for n in nodes:
        tbar = centralizer_triple(n.triple)
        assert centralizer_triple(tbar).key() == n.triple.key()
        assert centralizer_certificate(build_quotient(n.triple), build_quotient(tbar))
        assert by_key[tbar.key()].fp_dimension == \
            n.triple.H.order * (G.order // n.triple.K.order)


def test_self_centralizing_lagrangian():
    """A central commutative subgroup with the trivial bicharacter is
    self-centralizing, hence Lagrangian."""
    S3 = make_s3(F7)
    A3 = subgroup_from_generators(S3, [unit_vec(4, F7)])
    t = Triple(S3, A3, A3, trivial_hopf_map(A3, A3))
    assert centralizer_triple(t).key() == t.key()
    flags = classify(t)
    assert flags["lagrangian"] and flags["symmetric"] and not flags["nondegenerate"]


def test_contains_laws():
    G = make_z2(QQ)
    bottom, top, rep = canonical_triples(G)
    b_sign = None
    nodes, _ = enumerate_triples(G)
    for n in nodes:
        assert contains(n.triple, bottom.__class__(G, bottom.K, bottom.H, bottom.B))
        assert contains(top, n.triple)
        assert contains(n.triple, n.triple)
    # distinct bicharacters are incomparable
    big = [n.triple for n in nodes if n.triple.K.order == 2 and n.triple.H.order == 2]
    assert len(big) == 2
    assert not contains(big[0], big[1]) and not contains(big[1], big[0])


def test_classified_flags_on_height_one_family():
    """nondegenerate iff the doubled parameter is a unit; at p = 2 every
    member is Lagrangian because the bicharacter is self-dual there."""
    for F, p in ((F3, 3), (F2, 2)):
        G = ga_kernel(1, F)
        full = full_subgroup(G)
        for lam in range(p):
            t = Triple(G, full, full, b_lambda(full, full, F.from_int(lam)))
            flags = classify(t)
            nondeg_expected = (2 * lam) % p != 0
            assert flags["nondegenerate"] == nondeg_expected
            assert flags["lagrangian"] == ((2 * lam) % p == 0)
    # at p = 3 the classification in terms of the raw parameter:
    G = ga_kernel(1, F3)
    full = full_subgroup(G)
    assert classify(Triple(G, full, full, b_lambda(full, full, F3.from_int(0))))["lagrangian"]
    assert classify(Triple(G, full, full, b_lambda(full, full, F3.from_int(1))))["nondegenerate"]


def test_beta_pairing_doubles_the_parameter():
    G = ga_kernel(1, F3)
    full = full_subgroup(G)
    t = Triple(G, full, full, b_lambda(full, full, F3.from_int(1)))
    beta = beta_pairing(t, centralizer_triple(t))
    expect = b_lambda(full, full, F3.from_int(2))
    assert beta.mat == expect.mat


def test_intersect_certifies_each_recognized_pair_once(monkeypatch):
    """Intersecting all 36 ordered pairs of the 6 nodes of Ga_1 over GF(3)
    builds and certifies each recognized D(K,H,B) once on the same D(G):
    at most 6 verify_hopf calls, one per distinct result.  Each map, the
    projection onto D(G)/joint of every pair included, is certified once."""
    import schemedouble.hopf
    import schemedouble.quotients

    G = ga_kernel(1, F3)
    nodes, _ = enumerate_triples(G)
    assert len(nodes) == 6
    verify = schemedouble.quotients.verify_hopf
    recognize = oracles.recognize_triple
    calls, recognized = [], []
    monkeypatch.setattr(schemedouble.quotients, "verify_hopf",
                        lambda D: calls.append(D) or verify(D))
    monkeypatch.setattr(oracles, "recognize_triple",
                        lambda *a: recognized.append(1) or recognize(*a))
    results = {intersect(a.triple, b.triple).key() for a in nodes for b in nodes}
    assert len(calls) <= len(results) <= 6
    assert len(recognized) == len(nodes) ** 2

    # On Ga_1 over GF(5), visited backwards, no map object reaches
    # is_hopf_morphism twice, and each pair's projection once.
    nodes5, _ = enumerate_triples(ga_kernel(1, make_field("prime", p=5)))
    morphism = schemedouble.hopf.is_hopf_morphism
    certified = []
    for module in (schemedouble.hopf, schemedouble.quotients):
        monkeypatch.setattr(module, "is_hopf_morphism",
                            lambda f: certified.append(f) or morphism(f))
    for a in reversed(nodes5):
        for b in reversed(nodes5):
            intersect(a.triple, b.triple)
    assert [(f.source.name, f.target.name) for f in certified].count(
        ("D(Ga_1)", "D(Ga_1)/I")) == len(nodes5) ** 2
    assert len({id(f) for f in certified}) == len(certified)


def test_intersect_equals_recognition_in_both_orders():
    """On every ordered pair of nodes of Ga_1 over GF(3) and S3 over GF(7),
    the checked intersection of (t, t2) is the triple that recognizing the
    projection onto D(G)/joint returns for (t2, t), and visiting the pairs
    forwards and backwards on a fresh G gives the same keys, so no result
    depends on what G has kept before."""
    for make in (lambda: ga_kernel(1, F3), lambda: make_s3(F7)):
        seen = []
        for backwards in (False, True):
            nodes, _ = enumerate_triples(make())
            order = [(a.triple, b.triple) for a in nodes for b in nodes]
            meets = {}
            for t, t2 in reversed(order) if backwards else order:
                meet = meets[t.key(), t2.key()] = intersect(t, t2)
                assert meet is intersect_by_recognition(t2, t)
            seen.append({k: m.key() for k, m in meets.items()})
        assert seen[0] == seen[1]


def test_contains_and_intersect_refuse_two_group_schemes(monkeypatch):
    """contains and intersect on triples of two copies of Ga_1 over GF(3)
    raise DimensionMismatch, intersect before any theta is built."""
    import schemedouble.quotients
    G1, G2 = ga_kernel(1, F3), ga_kernel(1, F3)
    _, top1, _ = canonical_triples(G1)
    bottom2, _, _ = canonical_triples(G2)
    with pytest.raises(DimensionMismatch):
        contains(top1, bottom2)
    with pytest.raises(DimensionMismatch):
        inclusion(full_subgroup(G1), full_subgroup(G2))
    built = []
    build_theta = schemedouble.quotients.build_theta
    monkeypatch.setattr(schemedouble.quotients, "build_theta",
                        lambda qp: built.append(qp) or build_theta(qp))
    with pytest.raises(DimensionMismatch):
        intersect(top1, bottom2)
    assert built == []


def test_intersection_laws_exhaustive():
    G = ga_kernel(1, F3)
    nodes, edges = enumerate_triples(G)
    by_key = {n.triple.key(): n for n in nodes}
    for a in nodes:
        r = intersect(a.triple, a.triple)
        assert r.key() == a.triple.key()
    top = next(n for n in nodes
               if n.triple.K.order == G.order and n.triple.H.order == 1)
    for a in nodes:
        r = intersect(a.triple, top.triple)
        assert r.key() == a.triple.key()
    bottom_key = next(n for n in nodes
                      if n.triple.K.order == 1 and n.triple.H.order == G.order).triple.key()
    for a in nodes:
        tbar = by_key[centralizer_triple(a.triple).key()]
        r = intersect(a.triple, tbar.triple)
        assert (r.key() == bottom_key) == a.flags["nondegenerate"]
    # maximum lower bound over all pairs
    for a in nodes:
        for b in nodes:
            r = intersect(a.triple, b.triple)
            assert contains(a.triple, r) and contains(b.triple, r)
            for s in nodes:
                if contains(a.triple, s.triple) and contains(b.triple, s.triple):
                    assert contains(r, s.triple)


def test_enumeration_counts_with_oracles():
    # Z/2 over the rationals: oracle = exhaustive sign bicharacter table
    G = make_z2(QQ)
    nodes, edges = enumerate_triples(G)
    assert len(nodes) == 5
    sign_bichars = 0
    for val in (1, -1):
        # beta(s, s) = val must be multiplicative: always is for Z/2
        sign_bichars += 1
    assert sign_bichars == 2  # matches the two (G, G, B) nodes
    assert sum(1 for n in nodes
               if n.triple.K.order == 2 and n.triple.H.order == 2) == 2

    # height-one kernel over GF(p): p + 3 triples, oracle = the B_lambda family
    for F, p in ((F2, 2), (F3, 3)):
        nodes, _ = enumerate_triples(ga_kernel(1, F))
        assert len(nodes) == p + 3
        family = [n for n in nodes
                  if n.triple.K.order == p and n.triple.H.order == p]
        assert len(family) == p


def test_s3_count_with_bicharacter_oracle():
    S3 = make_s3(F7)
    nodes, edges = enumerate_triples(S3)
    assert len(nodes) == 8
    # oracle: brute force over all 3^4 candidate pairings on the generators
    # of A3 x A3, keeping bicharacters invariant under transposition
    omega = [1, 2, 4]  # cube roots of unity in GF(7)
    count = 0
    for vals in itertools.product(range(3), repeat=4):
        b11, b12, b21, b22 = vals
        # bicharacter on Z/3 x Z/3 determined by beta(a, a); the other three
        # values must be the forced powers
        lam = b11
        if (b12, b21, b22) != ((2 * lam) % 3, (2 * lam) % 3, (4 * lam) % 3):
            continue
        # invariance under inverting both arguments is automatic; count it
        count += 1
    assert count == 3
    a3_nodes = [n for n in nodes
                if n.triple.K.order == 3 and n.triple.H.order == 3]
    assert len(a3_nodes) == 3
    # exactly one of them carries the trivial map
    assert sum(1 for n in a3_nodes if n.triple.is_trivial_B()) == 1


def test_enumeration_is_stable():
    G = ga_kernel(1, F3)
    nodes1, edges1 = enumerate_triples(G)
    nodes2, edges2 = enumerate_triples(G)
    assert [n.triple.key() for n in nodes1] == [n.triple.key() for n in nodes2]
    assert edges1 == edges2
    dot1 = hasse_dot(nodes1, edges1)
    dot2 = hasse_dot(nodes2, edges2)
    assert dot1 == dot2


def test_lagrangian_nodes_have_commutative_equal_subgroups():
    for G in (make_z2(QQ), ga_kernel(1, F3), make_s3(F7)):
        nodes, _ = enumerate_triples(G)
        for n in nodes:
            if n.flags["lagrangian"]:
                assert n.triple.K.key() == n.triple.H.key()
                assert n.triple.K.own.group_algebra.is_commutative


def test_subgroup_enumeration_complete_on_rank_three():
    # (Z/2)^3 has 16 subgroups (all normal); generator subsets up to log2(8)
    # are required and sufficient
    from schemedouble.lattice import normal_subgroups
    from schemedouble.groupschemes import constant_group
    table = [[a ^ b for b in range(8)] for a in range(8)]
    G = constant_group([f"g{i}" for i in range(8)], table, QQ, name="C2^3")
    assert len(normal_subgroups(G)) == 16


F4 = make_field("extension", p=2, k=2)
F5 = make_field("prime", p=5)
F9 = make_field("extension", p=3, k=2)


@pytest.mark.parametrize("make, count", [
    *[(lambda F=F: direct_product(ga_kernel(1, F), ga_kernel(1, F)), F.size + 3)
      for F in (F2, F3, F4, F9)],
    (lambda: direct_product(mu_p_kernel(F3), mu_p_kernel(F3)), 6),
    (lambda: direct_product(ga_kernel(1, F3), mu_p_kernel(F3)), 4),
    (lambda: make_borel(F5), 3),
], ids=["Ga1xGa1-GF2", "Ga1xGa1-GF3", "Ga1xGa1-GF4", "Ga1xGa1-GF9", "mu3xmu3", "Ga1xmu3",
        "Borel-GF5"])
def test_normal_subgroup_counts(make, count):
    """Ga1 x Ga1 over GF(q) has q + 3 normal subgroups: 1, G and the q + 1
    lines of its Lie algebra.  mu3 x mu3 has 6 (its 4 lines are all
    restricted), Ga1 x mu3 has 4 (its only restricted lines are the two
    factors) and Borel over GF(5) has 3 (1, the line of y, G)."""
    assert len(normal_subgroups(make())) == count


def test_ga_kernel_4_has_its_frobenius_kernels_in_under_a_second():
    """ga_kernel(4) over GF(2) has the 5 Frobenius kernels Ga_0, ..., Ga_4,
    found by the closures of grouplikes and defect vectors alone."""
    import time
    G = ga_kernel(4, F2)
    start = time.perf_counter()
    subs = normal_subgroups(G)
    assert time.perf_counter() - start < 1.0
    assert [s.order for s in subs] == [1, 2, 4, 8, 16]


def test_borel_lattice_counts():
    nodes2, _ = enumerate_triples(make_borel(F2))
    assert len(nodes2) == 7
    nodes3, _ = enumerate_triples(make_borel(F3))
    assert len(nodes3) == 6


def test_hasse_dot_output():
    G = make_z2(QQ)
    nodes, edges = enumerate_triples(G)
    dot = hasse_dot(nodes, edges)
    assert dot.startswith("digraph")
    assert dot.count("label=") == 5


def test_block_data_s3():
    S3 = make_s3(F7)
    full = full_subgroup(S3)
    one = trivial_subgroup(S3)
    t = Triple(S3, full, one, trivial_hopf_map(one, full))
    blocks = block_data(t)
    dims = sorted(b.fp_dimension for b in blocks)
    assert dims == [6, 12, 18]
    assert sum(dims) == 36
    t2 = Triple(S3, one, one, trivial_hopf_map(one, one))
    blocks2 = block_data(t2)
    assert len(blocks2) == 1 and blocks2[0].fp_dimension == 6


def test_block_data_requires_constant():
    G = ga_kernel(1, F3)
    full = full_subgroup(G)
    t = Triple(G, full, full, b_lambda(full, full, F3.from_int(0)))
    with pytest.raises(NotConstant):
        block_data(t)


def test_subgroup_count_of_z2_to_the_fourth(monkeypatch):
    """(Z/2)^4 over GF(3) has 67 subgroups, 1, 15, 35, 15 and 1 of orders
    1, 2, 4, 8 and 16 (the Gaussian binomials), all normal.  Extension needs
    at most 67 * 16 closures, against the 2,516 generator subsets of size at
    most 4, and builds each subgroup once."""
    import schemedouble.lattice as lattice
    from schemedouble.groupschemes import constant_group
    calls = {"hopf_closure": 0, "subgroup_from_subspace": 0}
    for name in calls:
        real = getattr(lattice, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(lattice, name, counted)
    G = constant_group([f"g{i}" for i in range(16)],
                       [[a ^ b for b in range(16)] for a in range(16)], F3, name="C2^4")
    subs = lattice.normal_subgroups(G)
    orders = [s.order for s in subs]
    assert [orders.count(m) for m in (1, 2, 4, 8, 16)] == [1, 15, 35, 15, 1]
    assert calls["subgroup_from_subspace"] == 65  # trivial and full built first
    assert calls["hopf_closure"] <= 67 * 16


def _lattice_invariants(G):
    nodes, edges = enumerate_triples(G)
    return len(nodes), len(edges), sorted(
        (n.fp_dimension, n.flags["symmetric"], n.flags["nondegenerate"], n.flags["lagrangian"])
        for n in nodes)


@pytest.mark.parametrize("make, nodes, covers", [
    (lambda: constant_group([f"g{i}" for i in range(4)],
                            [[(i + j) % 4 for j in range(4)] for i in range(4)], F2), 9, 12),
    (lambda: direct_product(ga_kernel(2, F2), mu_p_kernel(F2)), 52, 132),
    (lambda: make_z2(F2), 4, 4),
    (lambda: ga_kernel(2, F2), 13, 20),
    (lambda: ga_kernel(2, F3), 17, 28),
    (lambda: direct_product(make_z2(F2), ga_kernel(1, F2)), 20, 44),
    (lambda: direct_product(make_z2(F2), ga_kernel(2, F2)), 52, 132),
    (lambda: direct_product(ga_kernel(1, F3), mu_p_kernel(F3)), 24, 56),
    (lambda: make_z3(F7), 6, 8),
    (lambda: ga_kernel(3, F2), 25, 42),
], ids=["Z4-GF2", "Ga2xmu2-GF2", "Z2-GF2", "Ga2-GF2", "Ga2-GF3", "Z2xGa1-GF2",
        "Z2xGa2-GF2", "Ga1xmu3-GF3", "Z3-GF7", "Ga3-GF2"])
def test_cartier_dual_has_the_same_lattice(make, nodes, covers):
    """For a commutative G, O(G) is cocommutative and GroupScheme(O(G)) is
    the Cartier dual G^D.  Rep(G^D) is the dual of Rep(G) with respect to
    Vec, so Z(G) and Z(G^D) are braided equivalent (Etingof-Gelaki-
    Nikshych-Ostrik, Tensor Categories, Ch. 7-8): the two lattices have
    the same node and cover counts and the same (fp_dimension, symmetric,
    nondegenerate, lagrangian) multiset.  k[mu_4] and k[Ga_2 x mu_2] need
    generators from the defect-space complement that are neither primitive
    nor basis vectors."""
    G = make()
    mine = _lattice_invariants(G)
    assert mine[:2] == (nodes, covers)
    assert _lattice_invariants(GroupScheme(G.coordinate_algebra)) == mine


@pytest.mark.parametrize("make1, make2, p, nodes, covers", [
    (make_z2, make_z3, 7, 30, 76),
    (make_z2, lambda F: constant_group(*permutation_table([(1, 2, 3, 4, 0)]), F), 11, 40, 108),
    (lambda F: ga_kernel(1, F), make_z2, 3, 30, 76),
    (lambda F: ga_kernel(1, F), make_z3, 2, 20, 44),
    (mu_p_kernel, make_z2, 3, 20, 44),
], ids=["Z2xZ3-GF7", "Z2xZ5-GF11", "Ga1xZ2-GF3", "Ga1xZ3-GF2", "mu3xZ2-GF3"])
def test_coprime_product_has_the_product_lattice(make1, make2, p, nodes, covers):
    """When |G1| and |G2| are coprime, every normal subgroup of G1 x G2 is
    a product, every equivariant B pairs factor with factor (the cross
    pairings are Hopf maps between algebras of coprime dimension, so
    trivial) and D(G1 x G2) = D(G1) (x) D(G2): the lattice is the product
    of the two.  So |N| = |N1| |N2|, a cover moves one factor along a
    cover and keeps the other (|E1| |N2| + |N1| |E2| covers), FP
    dimensions multiply and each flag is the AND of the two (``classify``
    checks that triangular and factorizable equal symmetric and
    nondegenerate)."""
    F = make_field("prime", p=p)
    G1, G2 = make1(F), make2(F)
    n1, e1, v1 = _lattice_invariants(G1)
    n2, e2, v2 = _lattice_invariants(G2)
    n, e, v = _lattice_invariants(direct_product(G1, G2))
    assert (n, e) == (nodes, covers) == (n1 * n2, e1 * n2 + n1 * e2)
    assert v == sorted((a[0] * b[0],) + tuple(x and y for x, y in zip(a[1:], b[1:]))
                       for a in v1 for b in v2)


def _strictly_above(n, edges):
    """above[i]: the nodes strictly above node i in the order with these
    covers."""
    covers = [[] for _ in range(n)]
    for i, j in edges:
        covers[i].append(j)
    above = [None] * n

    def reach(i):
        if above[i] is None:
            above[i] = set()
            for j in covers[i]:
                above[i] |= {j} | reach(j)
        return above[i]

    for i in range(n):
        reach(i)
    return above


def _entries(t):
    """The K rows, the H rows and the matrix of B of a triple."""
    return mat_key(t.K.subspace.rows), mat_key(t.H.subspace.rows), mat_key(t.B.mat)


@pytest.mark.parametrize("make", [
    make_s3, lambda F: direct_product(ga_kernel(1, F), ga_kernel(1, F)), make_z2,
], ids=["S3", "Ga1xGa1", "Z2"])
def test_galois_descent_from_gf4_to_gf2(make):
    """The GF(4) nodes fixed by the Frobenius c -> c^2 are those whose K
    rows, H rows and B have every entry in GF(2): reduced row echelon form
    is unique, so a subspace is Frobenius-stable exactly when its RREF rows
    are fixed.  These nodes are the GF(2) lattice, node for node under
    c -> (c, 0), with the same flags, FP dimensions and containment
    order."""
    F2, F4 = make_field("prime", p=2), make_field("extension", p=2, k=2)
    nodes2, edges2 = enumerate_triples(make(F2))
    nodes4, edges4 = enumerate_triples(make(F4))
    by_entries = {_entries(n.triple): n for n in nodes4}
    fixed = sorted(n.index for key, n in by_entries.items()
                   if all(c[1] == 0 for part in key for _, row in part for _, c in row))
    lift = lambda key: tuple(tuple((j, tuple((i, (c, 0)) for i, c in row)) for j, row in part)
                             for part in key)
    match = [by_entries[lift(_entries(n.triple))] for n in nodes2]
    assert sorted(m.index for m in match) == fixed
    for a, b in zip(nodes2, match):
        assert (a.flags, a.fp_dimension) == (b.flags, b.fp_dimension)
    above2 = _strictly_above(len(nodes2), edges2)
    above4 = _strictly_above(len(nodes4), edges4)
    for i, a in enumerate(match):
        assert {match[j].index for j in above2[i]} == above4[a.index] & set(fixed)


def test_enumerate_refuses_above_the_double_ceiling_before_any_subgroup(monkeypatch):
    """A cyclic group of order 26 has the node (G, 1, 1) with D(K,H,B) of
    dimension 676 > 625: BudgetExceeded before normal_subgroups runs."""
    import schemedouble.lattice as lattice
    from schemedouble.errors import BudgetExceeded
    from schemedouble.groupschemes import constant_group

    def no_subgroups(*args, **kwargs):
        raise AssertionError("subgroups enumerated")

    monkeypatch.setattr(lattice, "normal_subgroups", no_subgroups)
    n = 26
    G = constant_group([f"g{i}" for i in range(n)],
                       [[(i + j) % n for j in range(n)] for i in range(n)], F3)
    with pytest.raises(BudgetExceeded, match="26\\^2 = 676"):
        lattice.enumerate_triples(G)


def test_enumerate_builds_sections_centralizers_and_certificates_once(monkeypatch):
    """On S3/GF(7), enumerate finds one section per normal subgroup and one
    quotient and cleaving per normal subgroup H, validates each node once
    (its centralizer is another node, looked up on G), and runs the Hopf
    verifier only on each node's D(K,H,B), built once (one
    ``crossed_product`` per node) and kept on its triple."""
    import schemedouble.groupschemes as gs
    import schemedouble.hopf as hopf
    import schemedouble.quotients as quotients
    calls = {"section_mu": 0, "quotient_by_normal": 0, "cleaving_gamma": 0,
             "verify_hopf": 0, "validate": 0, "crossed_product": 0}
    real_verify = quotients.verify_hopf
    real_validate = quotients.Triple.validate
    real_crossed = quotients.crossed_product

    def counted(name):
        real = getattr(gs, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(gs, name, wrapper)

    def verify(H):
        calls["verify_hopf"] += 1
        return real_verify(H)

    def validate(self):
        calls["validate"] += 1
        return real_validate(self)

    def crossed(*args):
        calls["crossed_product"] += 1
        return real_crossed(*args)

    def elsewhere(H):
        raise AssertionError("verify_hopf outside build_quotient")

    for name in ("section_mu", "quotient_by_normal", "cleaving_gamma"):
        counted(name)
    monkeypatch.setattr(quotients, "verify_hopf", verify)
    monkeypatch.setattr(quotients.Triple, "validate", validate)
    monkeypatch.setattr(quotients, "crossed_product", crossed)
    monkeypatch.setattr(gs, "verify_hopf", elsewhere)
    monkeypatch.setattr(hopf, "verify_hopf", elsewhere)
    nodes, _ = enumerate_triples(make_s3(F7))
    assert len(nodes) == 8
    assert calls == {"section_mu": 3, "quotient_by_normal": 3, "cleaving_gamma": 3,
                     "verify_hopf": 8, "validate": 8, "crossed_product": 8}
    assert all(centralizer_triple(n.triple) is centralizer_triple(n.triple) for n in nodes)
    assert all(build_quotient(n.triple) is build_quotient(n.triple) for n in nodes)
    assert calls["verify_hopf"] == calls["crossed_product"] == 8


@pytest.mark.parametrize("gens, field, name, count", [
    (D4_GENS, "p3", "D4", 43), (Z6_GENS, "p7", "Z6", 30),
], ids=["D4-GF3", "Z6-GF7"])
def test_enumerate_with_twisted_sigma_exits_0(gens, field, name, count,
                                              tmp_path, monkeypatch):
    """enumerate on D4/GF(3) and Z6/GF(7), which have nodes whose sigma is
    no multiple of 1, exits 0 under three relabelings, and the antipode of
    every D(K,H,B) is the convolution inverse of the identity."""
    import json
    from schemedouble import cli
    from schemedouble.hopf import _unit_multiple, convolution_inverse, identity_map

    runs = []
    real = cli.enumerate_triples

    def enumerate_kept(G):
        runs.append(real(G))
        return runs[-1]

    monkeypatch.setattr(cli, "enumerate_triples", enumerate_kept)
    twisted = 0
    for seed in (0, 1, 2):
        labels, table = permutation_table(gens, seed=seed)
        spec, out = tmp_path / f"group{seed}.json", tmp_path / f"lattice{seed}.json"
        spec.write_text(json.dumps({"constant": {"elements": labels, "table": table,
                                                 "name": name}}))
        assert cli.main(["enumerate", "--group", str(spec), "--field", field,
                         "-o", str(out)]) == 0
        nodes, _ = runs[-1]
        assert json.loads(out.read_text())["count"] == len(nodes) == count
        for n in nodes:
            OK = n.triple.K.own.coordinate_algebra
            qp = build_quotient(n.triple)
            twisted += any(v and _unit_multiple(OK.field, OK.unit, v) is None
                           for v in qp.sigma.values())
            assert qp.D.antipode == convolution_inverse(identity_map(qp.D)).mat
    assert twisted > 0


def d4_gf3():
    labels, table = permutation_table(D4_GENS)
    return constant_group(labels, table, F3, name="D4")


@pytest.mark.parametrize("factory", [
    d4_gf3, lambda: direct_product(ga_kernel(1, F3), ga_kernel(1, F3)),
], ids=["D4-GF3", "Ga1xGa1-GF3"])
def test_hasse_covers_equal_the_pairwise_oracle(factory):
    """The covers of the bucketed containment order equal those of
    ``contains`` on every ordered pair of nodes, reduced by the O(n^3)
    loop, on lattices of 43 and 212 nodes."""
    nodes, edges = enumerate_triples(factory())
    assert edges == hasse_edges_pairwise(nodes)
    assert len(edges) > len(nodes)


def test_grouplikes_and_source_chains_are_searched_once_per_algebra(monkeypatch):
    """enumerate on Ga_1 x Ga_1 over GF(3) searches the grouplikes of each
    of its 13 algebras (k[G], and k[H] and O(K) of its 6 normal subgroups)
    once, and the source chain of each k[H] once, however many pairs
    (K, H) read them; the lattice keeps its 212 nodes and 1,120 covers."""
    import schemedouble.hopf as hopf
    calls = {"grouplikes": [], "_source_chain": []}

    def counted(name):
        real = getattr(hopf, name)

        def wrapper(A, *args):
            calls[name].append(A)
            return real(A, *args)
        monkeypatch.setattr(hopf, name, wrapper)

    counted("grouplikes")
    counted("_source_chain")
    nodes, edges = enumerate_triples(direct_product(ga_kernel(1, F3), ga_kernel(1, F3)))
    assert (len(nodes), len(edges)) == (212, 1120)
    assert len(calls["grouplikes"]) == len(set(map(id, calls["grouplikes"]))) == 13
    assert len(calls["_source_chain"]) == len(set(map(id, calls["_source_chain"]))) == 6


@pytest.mark.parametrize("factory", [
    d4_gf3, lambda: ga_kernel(2, F3), lambda: make_borel(F3),
], ids=["D4-GF3", "Ga2-GF3", "Borel-GF3"])
def test_inclusion_table_equals_reduced_coordinates(factory):
    """The inclusion G keeps for each ordered pair of its subgroups, read at
    the pivots of the outer span, equals the coordinates found by reducing
    every inner basis vector, and is None exactly when one does not reduce
    to 0."""
    G = factory()
    subs = normal_subgroups(G)
    for inner in subs:
        for outer in subs:
            inc = inclusion(inner, outer)
            assert inc == sub_inclusion_reduced(inner, outer)
            assert inclusion(inner, outer) is inc


def test_intersections_build_each_span_once(monkeypatch):
    """Enumerating Ga_1 over GF(3) and intersecting all 36 ordered pairs of
    its 6 nodes extracts the structure of each span once: every path that
    asks for a subgroup (normal_subgroups, the K and H of recognition,
    intersect_subgroup, product_subgroup, agreement_subgroup) gets the one
    G keeps."""
    import schemedouble.groupschemes as gs
    spans = []
    real = gs._extract_sub_hopf

    def extract(G, ech, name=""):
        spans.append(ech.key())
        return real(G, ech, name)

    monkeypatch.setattr(gs, "_extract_sub_hopf", extract)
    G = ga_kernel(1, F3)
    nodes, _ = enumerate_triples(G)
    for a in nodes:
        for b in nodes:
            intersect(a.triple, b.triple)
    assert len(spans) == len(set(spans)) == len(G.subgroups) == 2


def test_enumerate_validates_each_key_once(monkeypatch):
    """enumerate on D4/GF(3) validates each triple key once, the 43 nodes
    and the maps that fail equivariance alike: a centralizer is a node
    already kept on G."""
    import schemedouble.quotients as quotients
    keys = []
    real = quotients.Triple.validate

    def validate(self):
        keys.append(self.key())
        return real(self)

    monkeypatch.setattr(quotients.Triple, "validate", validate)
    G = d4_gf3()
    nodes, _ = enumerate_triples(G)
    assert len(nodes) == 43
    assert len(keys) == len(set(keys)) > len(nodes)
    assert all(G.triples[n.triple.key()] is n.triple for n in nodes)


def test_product_and_meet_are_formed_once_per_pair(monkeypatch):
    """enumerate on Ga1 x Ga1 over GF(4) asks for the product of 49 pairs
    of subgroups 529 times and for the meet of 33 pairs 996 times; each
    product is closed once and each meet's dual cross-check runs once,
    both kept on G."""
    import schemedouble.groupschemes as gs
    import schemedouble.lattice as lattice
    asked = {"product": 0, "meet": 0}
    closures, checks = [], []
    inside = []

    def counted(kind, real):
        def wrapper(*args, **kwargs):
            asked[kind] += 1
            inside.append(kind)
            try:
                return real(*args, **kwargs)
            finally:
                inside.pop()
        return wrapper

    real_closure, real_meet = gs.hopf_closure, gs.subspace_intersection
    monkeypatch.setattr(lattice, "product_subgroup", counted("product", gs.product_subgroup))
    monkeypatch.setattr(lattice, "intersect_subgroup", counted("meet", gs.intersect_subgroup))
    monkeypatch.setattr(gs, "hopf_closure", lambda *a, **k: (
        closures.append(inside[-1:] == ["product"]) or real_closure(*a, **k)))
    monkeypatch.setattr(gs, "subspace_intersection", lambda U, V: (
        checks.append(1) or real_meet(U, V)))
    F4 = make_field("extension", p=2, k=2)
    G = direct_product(ga_kernel(1, F4), ga_kernel(1, F4))
    nodes, _ = enumerate_triples(G)
    assert len(nodes) == 529
    assert asked == {"product": 529, "meet": 996}
    assert sum(closures) == len(G.products) == 49
    assert len(checks) == len(G.meets) == 33


# Every group of order at most 6, as a permutation group.
SMALL_GROUPS = {
    "1": [(0,)], "Z2": [(1, 0)], "Z3": [(1, 2, 0)], "Z4": [(1, 2, 3, 0)],
    "V4": [(1, 0, 3, 2), (2, 3, 0, 1)], "Z5": [(1, 2, 3, 4, 0)],
    "Z6": [(1, 2, 3, 4, 5, 0)], "S3": [(1, 0, 2), (1, 2, 0)],
}


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(sorted(SMALL_GROUPS)), st.sampled_from([F7, QQ]),
       st.integers(0, 1000), st.data())
def test_lattice_laws_on_relabeled_small_groups(name, F, seed, data):
    """On a relabeled Cayley table of a group of order at most 6, over GF(7)
    or Q: D(G) passes verify_hopf; every node t has C(C(t)) = t and
    FPdim(t) FPdim(C(t)) = |G|^2; and for two nodes, intersect(t, t2) is
    intersect(t2, t) and lies below both."""
    G = constant_group(*permutation_table(SMALL_GROUPS[name], seed=seed), F, name=name)
    assert verify_hopf(drinfeld_double(G).D).ok
    nodes, _ = enumerate_triples(G)
    for n in nodes:
        tbar = centralizer_triple(n.triple)
        assert centralizer_triple(tbar) is n.triple
        assert n.triple.fp_dimension() * tbar.fp_dimension() == G.order ** 2
    pick = st.sampled_from(nodes)
    t, t2 = data.draw(pick).triple, data.draw(pick).triple
    meet = intersect(t, t2)
    assert intersect(t2, t) is meet
    assert contains(t, meet) and contains(t2, meet)
