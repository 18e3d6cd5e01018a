import itertools

import pytest

from schemedouble.errors import NotConstant
from schemedouble.fields import QQ, make_field
from schemedouble.appendix import b_lambda
from schemedouble.groupschemes import (
    constant_group,
    direct_product,
    full_subgroup,
    ga_frobenius_subgroup,
    ga_kernel,
    inclusion,
    subgroup_from_generators,
    trivial_subgroup,
)
from schemedouble.lattice import (
    agreement_subgroup,
    beta_pairing,
    block_data,
    centralizer_certificate,
    centralizer_triple,
    classify,
    contains,
    enumerate_triples,
    hasse_dot,
    intersect,
    normal_subgroups,
)
from schemedouble.linalg import unit_vec
from schemedouble.quotients import Triple, build_quotient, trivial_hopf_map

from conftest import D4_GENS, make_borel, make_s3, make_v4, make_z2, permutation_table
from oracles import hasse_edges_pairwise, sub_inclusion_reduced

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
        assert centralizer_certificate(n.qp, by_key[tbar.key()].qp)
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
    at most 6 verify_hopf calls, one per distinct result."""
    import schemedouble.quotients

    G = ga_kernel(1, F3)
    nodes, _ = enumerate_triples(G)
    assert len(nodes) == 6
    verify = schemedouble.quotients.verify_hopf
    calls = []
    monkeypatch.setattr(schemedouble.quotients, "verify_hopf",
                        lambda D: calls.append(D) or verify(D))
    results = {intersect(a.triple, b.triple).key() for a in nodes for b in nodes}
    assert len(calls) <= len(results) <= 6


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
                assert n.triple.K.own.group_algebra.is_commutative()


def test_subgroup_enumeration_complete_on_rank_three():
    # (Z/2)^3 has 16 subgroups (all normal); generator subsets up to log2(8)
    # are required and sufficient
    from schemedouble.lattice import normal_subgroups
    from schemedouble.groupschemes import constant_group
    table = [[a ^ b for b in range(8)] for a in range(8)]
    G = constant_group([f"g{i}" for i in range(8)], table, QQ, name="C2^3")
    assert len(normal_subgroups(G)) == 16


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
    verifier only
    on each node's D(K,H,B), built once and kept on its triple."""
    import schemedouble.groupschemes as gs
    import schemedouble.hopf as hopf
    import schemedouble.quotients as quotients
    calls = {"section_mu": 0, "quotient_by_normal": 0, "cleaving_gamma": 0,
             "verify_hopf": 0, "validate": 0}
    real_verify = quotients.verify_hopf
    real_validate = quotients.Triple.validate

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

    def elsewhere(H):
        raise AssertionError("verify_hopf outside build_quotient")

    for name in ("section_mu", "quotient_by_normal", "cleaving_gamma"):
        counted(name)
    monkeypatch.setattr(quotients, "verify_hopf", verify)
    monkeypatch.setattr(quotients.Triple, "validate", validate)
    monkeypatch.setattr(gs, "verify_hopf", elsewhere)
    monkeypatch.setattr(hopf, "verify_hopf", elsewhere)
    nodes, _ = enumerate_triples(make_s3(F7))
    assert len(nodes) == 8
    assert calls == {"section_mu": 3, "quotient_by_normal": 3, "cleaving_gamma": 3,
                     "verify_hopf": 8, "validate": 8}
    assert all(centralizer_triple(n.triple) is centralizer_triple(n.triple) for n in nodes)
    assert all(build_quotient(n.triple) is n.qp for n in nodes)
    assert calls["verify_hopf"] == 8


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

    def enumerate_kept(G, budget):
        runs.append(real(G, budget=budget))
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
            twisted += any(v and _unit_multiple(OK.field, OK.unit, v) is None
                           for v in n.qp.sigma.values())
            assert n.qp.D.antipode == convolution_inverse(identity_map(n.qp.D)).mat
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
    loop, on lattices of 43 and 171 nodes."""
    nodes, edges = enumerate_triples(factory())
    assert edges == hasse_edges_pairwise(nodes)
    assert len(edges) > len(nodes)


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
    """enumerate on Ga1 x Ga1 over GF(4) asks for the product of 25 pairs
    of subgroups 397 times and for the meet of 15 pairs 756 times; each
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
    assert len(nodes) == 397
    assert asked == {"product": 397, "meet": 756}
    assert sum(closures) == len(G.products) == 25
    assert len(checks) == len(G.meets) == 15
