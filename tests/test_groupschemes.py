import itertools

import pytest

from schemedouble.errors import ClosureNotHopf, NoSection, NotAGroup, NotNormal, NotRestrictedLie
from schemedouble.fields import QQ, make_field
from schemedouble.groupschemes import (
    CleavingData,
    _finish_cleaving,
    _colinear_section_ok,
    ad_l,
    ad_r,
    centralize,
    cleaving_gamma,
    coadjoint_matrices,
    constant_group,
    direct_product,
    full_subgroup,
    ga_frobenius_subgroup,
    ga_kernel,
    intersect_subgroup,
    is_normal,
    mu_p_kernel,
    product_subgroup,
    quotient_by_normal,
    restricted_enveloping,
    section_mu,
    subgroup_from_generators,
    trivial_subgroup,
)
from schemedouble.hopf import (
    LinMap,
    convolution_inverse,
    grouplikes,
    is_hopf_morphism,
    t2_outer,
    verify_hopf,
)
from schemedouble.linalg import mat_apply, unit_vec, v_axpy

from conftest import S3_LABELS, make_borel, make_s3, make_z2, s3_cayley

F2 = make_field("prime", p=2)
F3 = make_field("prime", p=3)
F5 = make_field("prime", p=5)
F7 = make_field("prime", p=7)


# -- constructors -----------------------------------------------------------

def test_constant_z2_delta_functions_sum_to_one():
    G = make_z2(QQ)
    O = G.coordinate_algebra
    total = {}
    for i in range(2):
        v_axpy(QQ, total, QQ.one(), unit_vec(i, QQ))
    assert total == O.unit


def test_constant_s3_idempotents():
    G = make_s3(F7)
    O = G.coordinate_algebra
    for i in range(6):
        assert O.product(unit_vec(i, F7), unit_vec(i, F7)) == unit_vec(i, F7)
        for j in range(6):
            if j != i:
                assert O.product(unit_vec(i, F7), unit_vec(j, F7)) == {}


def test_abelian_table_gives_commutative_cocommutative():
    G = make_z2(QQ)
    assert G.group_algebra.is_commutative()
    assert G.group_algebra.is_cocommutative()


def test_not_a_group_witness():
    with pytest.raises(NotAGroup):
        constant_group(["a", "b"], [[0, 0], [0, 0]], QQ)
    with pytest.raises(NotAGroup):
        constant_group(["a", "b"], [[0, 1], [1, 1]], QQ)


def test_frobenius_kernel_structure_constants():
    G = ga_kernel(1, F2)
    kg = G.group_algebra
    assert kg.product(unit_vec(1, F2), unit_vec(1, F2)) == {}  # d1^2 = 0
    O = G.coordinate_algebra
    assert O.product(unit_vec(1, F2), unit_vec(1, F2)) == {}  # t^2 = 0
    G3 = ga_kernel(2, F3)
    for n in range(9):
        expect = {(a, n - a): F3.one() for a in range(n + 1)}
        assert G3.group_algebra.comult[n] == expect


def test_divided_power_algebra_isomorphism():
    # X_i -> d_{p^i} extends to an algebra isomorphism from the truncated
    # polynomial algebra: d_n * coefficient-product of generator powers
    for F in (F2, F3):
        p = F.char
        G = ga_kernel(2, F)
        kg = G.group_algebra
        for n in range(p * p):
            a0, a1 = n % p, n // p
            word = [1] * a0 + [p] * a1
            prod = dict(kg.unit)
            for w in word:
                prod = kg.product(prod, unit_vec(w, F))
            fact = 1
            for m in range(2, a0 + 1):
                fact *= m
            for m in range(2, a1 + 1):
                fact *= m
            assert prod == {n: F.from_int(fact)} or (
                F.from_int(fact) == F.zero() and prod == {})


def test_mu_p_structure():
    G = mu_p_kernel(F3)
    assert G.order == 3
    assert verify_hopf(G.group_algebra).ok
    O = G.coordinate_algebra
    # s is grouplike so its coproduct is multiplicative automatically; check
    # dual side: p orthogonal idempotents summing to 1
    kg = G.group_algebra
    total = {}
    for i in range(3):
        assert kg.product(unit_vec(i, F3), unit_vec(i, F3)) == unit_vec(i, F3)
        v_axpy(F3, total, F3.one(), unit_vec(i, F3))
    assert total == kg.unit
    gl = grouplikes(O)
    assert len(gl) == 3  # 1, s, s^2


def test_direct_product_orders_and_tags():
    A = ga_kernel(1, F2)
    P = direct_product(A, A)
    assert P.order == 4
    assert P.order_connected == 4 and P.order_points == 1
    Z2 = make_z2(F2)
    M = direct_product(Z2, A)
    assert M.order_connected == 2 and M.order_points == 2
    # oracle: closed points = grouplikes of k[G]
    assert len(grouplikes(M.group_algebra)) == 2


def test_restricted_enveloping_two_dimensional():
    G = make_borel(F2)
    assert G.order == 4
    kg = G.group_algebra
    x, y = 1, 2  # PBW labels: 1, x, y, x*y
    assert kg.labels == ["1", "y", "x", "x*y"] or kg.labels == ["1", "x", "y", "x*y"]
    # locate generators by labels
    ix = kg.labels.index("x")
    iy = kg.labels.index("y")
    ixy = kg.labels.index("x*y")
    # y x = x y - y
    yx = kg.product(unit_vec(iy, F2), unit_vec(ix, F2))
    expect = {ixy: F2.one(), iy: F2.neg(F2.one())}
    assert yx == {k: v for k, v in expect.items() if v != F2.zero()}


def test_restricted_enveloping_abelian_matches_frobenius_kernel():
    for F in (F2, F3):
        L = restricted_enveloping(1, [[{}]], [{}], F)
        G = ga_kernel(1, F)
        # x <-> d1: x^a = a! d_a, so structure constants agree after scaling;
        # compare via the Hopf morphism d1 -> x
        f = LinMap(G.group_algebra, L.group_algebra, _d1_to_x_matrix(F))
        ok, _ = is_hopf_morphism(f)
        assert ok


def _d1_to_x_matrix(F):
    p = F.char
    mat = {}
    fact = 1
    for n in range(p):
        if n > 1:
            fact *= n
        mat[n] = {n: F.from_int(fact)}
    return mat


def test_heisenberg_is_local_and_verifies():
    from schemedouble.errors import FieldTooLargeForEnumeration
    G = restricted_enveloping(
        3, [[{}, {2: 1}, {}], [{2: -1}, {}, {}], [{}, {}, {}]],
        [{}, {}, {}], F3, name="Heis")
    assert G.order == 27
    # connected: the grouplike search, with at most 27^2 * 3 branches, finds
    # the unit alone, as the structural count says; a budget below that
    # bound is refused up front
    assert G.points_order() == 1 and G.connected_order() == 27
    assert grouplikes(G.group_algebra, budget=10**6) == [G.group_algebra.unit]
    with pytest.raises(FieldTooLargeForEnumeration):
        grouplikes(G.group_algebra, budget=27**2 * 3 - 1)


def test_bad_bracket_rejected():
    with pytest.raises(NotRestrictedLie):
        restricted_enveloping(2, [[{}, {1: 1}], [{1: 1}, {}]], [{}, {}], F2)
    # Jacobi failure needs dim >= 3: [x,y]=z, [y,z]=x, [x,z]=x breaks it
    with pytest.raises(NotRestrictedLie):
        restricted_enveloping(
            3, [[{}, {2: 1}, {0: 1}], [{2: -1}, {}, {0: 1}],
                [{0: -1}, {0: -1}, {}]], [{}, {}, {}], F3)


# -- subgroups --------------------------------------------------------------

def test_subgroup_generated_by_first_deltas():
    G = ga_kernel(2, F3)
    sub = subgroup_from_generators(G, [unit_vec(0, F3), unit_vec(1, F3)])
    assert sub.order == 3
    assert sub.subspace.pivots() == [0, 1, 2]


def test_trivial_and_full_subgroups():
    G = make_s3(F7)
    one = trivial_subgroup(G)
    assert one.order == 1
    assert one.own.coordinate_algebra.dim == 1
    full = full_subgroup(G)
    assert full.order == 6
    assert full.q.mat == {i: {i: F7.one()} for i in range(6)}


def test_adjoint_actions():
    # commutative ambient: coadjoint action is trivial
    G = ga_kernel(2, F3)
    coad = coadjoint_matrices(G)
    for i in range(G.order):
        eps = G.group_algebra.counit.get(i, F3.zero())
        for b in range(G.order):
            img = mat_apply(F3, coad[i], unit_vec(b, F3))
            expect = {b: eps} if eps != F3.zero() else {}
            assert img == expect
    # ad_l by the unit is the identity
    S3 = make_s3(F7)
    for w in range(6):
        assert ad_l(S3, S3.group_algebra.unit, unit_vec(w, F7)) == unit_vec(w, F7)
    # a transposition conjugates one 3-cycle to the other
    t12, c123, c132 = 1, 4, 5
    out = ad_l(S3, unit_vec(t12, F7), unit_vec(c123, F7))
    assert out == unit_vec(c132, F7)


def test_coadjoint_duality_on_all_basis_pairs():
    for G in (make_s3(F7), make_borel(F3)):
        F = G.field
        coad = coadjoint_matrices(G)
        n = G.order
        for i in range(n):
            for b in range(n):
                img = mat_apply(F, coad[i], unit_vec(b, F))
                for w in range(n):
                    lhs = img.get(w, F.zero())
                    rhs = ad_r(G, unit_vec(i, F), unit_vec(w, F)).get(b, F.zero())
                    assert lhs == rhs


def test_normality_examples():
    S3 = make_s3(F7)
    A3 = subgroup_from_generators(S3, [unit_vec(4, F7)])
    T = subgroup_from_generators(S3, [unit_vec(1, F7)])
    assert is_normal(A3) and not is_normal(T)
    G = ga_kernel(2, F3)
    A = ga_frobenius_subgroup(G, 1)
    assert is_normal(A)
    # subgroups of a commutative ambient centralize everything
    assert centralize(A, full_subgroup(G))


def test_quotient_projection_formula():
    for F in (F2, F3):
        p = F.char
        G = ga_kernel(2, F)
        A = ga_frobenius_subgroup(G, 1)
        q = quotient_by_normal(G, A)
        assert q.hopf.dim == p
        for n in range(p * p):
            col = q.pi.mat.get(n, {})
            if n % p == 0:
                assert col == {n // p: F.one()}
            else:
                assert col == {}
        # quotient is its own height-one kernel
        G1 = ga_kernel(1, F)
        assert q.hopf.mult == G1.group_algebra.mult
        assert q.hopf.comult == G1.group_algebra.comult


def test_quotient_by_trivial_and_full():
    G = make_s3(F7)
    one = trivial_subgroup(G)
    q = quotient_by_normal(G, one)
    assert q.hopf.dim == 6
    assert q.pi.mat == {i: {i: F7.one()} for i in range(6)}
    full = full_subgroup(G)
    q2 = quotient_by_normal(G, full)
    assert q2.hopf.dim == 1
    for i in range(6):
        assert q2.pi.mat.get(i) == {0: F7.one()}  # counit pattern


def test_quotient_by_non_normal_raises():
    S3 = make_s3(F7)
    T = subgroup_from_generators(S3, [unit_vec(1, F7)])
    with pytest.raises(NotNormal):
        quotient_by_normal(S3, T)


def test_section_closed_forms():
    G = ga_kernel(2, F3)
    A = ga_frobenius_subgroup(G, 1)
    sec = section_mu(A)
    for i in range(3):
        assert sec.mu.mat.get(i) == {i: F3.one()}
    # L = G: identity section
    sec_full = section_mu(full_subgroup(G))
    assert sec_full.mu.mat == {i: {i: F3.one()} for i in range(9)}
    # constant: extension by zero, colinearity re-verified
    S3 = make_s3(F7)
    A3 = subgroup_from_generators(S3, [unit_vec(4, F7)])
    secc = section_mu(A3)
    assert _colinear_section_ok(secc.mu, A3.q)


def test_inconsistent_section_system_raises_no_section(monkeypatch):
    """A colinear section system with no solution ends in NoSection."""
    import schemedouble.groupschemes as gs
    G = direct_product(ga_kernel(1, F3), ga_kernel(1, F3))
    # the line of d0(x)d1 + d1(x)d0: a row that is no unit vector, no closed form
    L = subgroup_from_generators(G, [{1: F3.one(), 3: F3.one()}])
    assert L.order == 3 and L.subspace.basis()[1] == {1: F3.one(), 3: F3.one()}
    equations = gs._colinear_section_equations

    def inconsistent(F, *args):
        return equations(F, *args) + [({}, F.one())]  # 0 = 1

    monkeypatch.setattr(gs, "_colinear_section_equations", inconsistent)
    with pytest.raises(NoSection):
        section_mu(L)


def test_second_section_gives_same_star_action():
    """The measuring action q_K(u ->> mu(a)) does not depend on the section."""
    from schemedouble.quotients import Triple, trivial_hopf_map
    G = ga_kernel(2, F3)
    A = ga_frobenius_subgroup(G, 1)
    t = Triple(G, A, A, trivial_hopf_map(A, A))
    mu2_mat = {}
    # mu'(t^i) = (t + t^p)^i is another colinear section
    OG = G.coordinate_algebra
    base = {1: F3.one(), 3: F3.one()}
    acc = dict(OG.unit)
    mu2_mat[0] = dict(acc)
    for i in range(1, 3):
        acc = OG.product(acc, base)
        mu2_mat[i] = dict(acc)
    mu2 = LinMap(A.own.coordinate_algebra, OG, mu2_mat)
    assert _colinear_section_ok(mu2, A.q)
    sec1 = t.section
    from schemedouble.groupschemes import SectionData
    for i in range(G.order):
        for b in range(A.order):
            lhs = t.star(unit_vec(i, F3), unit_vec(b, F3))
            A._section = SectionData(mu2, None)
            rhs = t.star(unit_vec(i, F3), unit_vec(b, F3))
            A._section = sec1
            assert lhs == rhs


def test_cleaving_closed_form_and_identities():
    for F in (F2, F3):
        p = F.char
        G = ga_kernel(2, F)
        A = ga_frobenius_subgroup(G, 1)
        cl = cleaving_gamma(G, A)
        for n in range(p):
            assert cl.gamma.mat.get(n) == {p * n: F.one()}
        # eta is the projection onto the first p coordinates
        for n in range(p * p):
            col = cl.eta.mat.get(n, {})
            assert col == ({n: F.one()} if n < p else {})


def test_cleaving_when_kernel_is_trivial_or_full():
    G = make_s3(F7)
    cl = cleaving_gamma(G, trivial_subgroup(G))
    assert cl.gamma.mat == {i: {i: F7.one()} for i in range(6)}
    assert cl.eta.mat == {i: {0: F7.one()} for i in range(6)}  # eta = unit.counit
    cl2 = cleaving_gamma(G, full_subgroup(G))
    assert cl2.gamma.mat == {0: {0: F7.one()}}
    assert cl2.eta.mat == {i: {i: F7.one()} for i in range(6)}  # eta = id


def test_constant_cleaving_retraction_lands_in_kernel():
    S3 = make_s3(F7)
    A3 = subgroup_from_generators(S3, [unit_vec(4, F7)])
    cl = cleaving_gamma(S3, A3)
    table = s3_cayley()
    inv = constant_group(S3_LABELS, table, F7).payload["inverse"]
    # eta(g) = g gamma(pi(g))^{-1} for group elements
    for g in range(6):
        pi_g = cl.quotient.pi.apply(unit_vec(g, F7))
        r = max(pi_g)
        rep = max(cl.gamma.mat[r])
        expect = table[g][inv[rep]]
        assert cl.eta.mat.get(g, {}) == {expect: F7.one()}
        assert A3.subspace.contains(unit_vec(expect, F7))


def _check_gcphgh(G, H_sub, cl):
    F = G.field
    kg = G.group_algebra
    Q = cl.quotient.hopf
    # (1) eta(gamma(x)) = counit(x) 1
    for r in range(Q.dim):
        expect = {}
        v_axpy(F, expect, Q.counit.get(r, F.zero()), kg.unit)
        assert cl.eta.apply(cl.gamma.apply(unit_vec(r, F))) == expect
    for i in range(G.order):
        # (2) u = eta(u_1) gamma(pi(u_2))
        acc = {}
        for (a, b), c in kg.comult[i].items():
            term = kg.product(cl.eta.apply(unit_vec(a, F)),
                              cl.gamma.apply(cl.quotient.pi.apply(unit_vec(b, F))))
            v_axpy(F, acc, c, term)
        assert acc == unit_vec(i, F)
        # (4) gamma(pi(u)) = eta^{-1}(u_1) u_2
        acc = {}
        for (a, b), c in kg.comult[i].items():
            term = kg.product(cl.eta_inv.apply(unit_vec(a, F)), unit_vec(b, F))
            v_axpy(F, acc, c, term)
        assert acc == cl.gamma.apply(cl.quotient.pi.apply(unit_vec(i, F)))
        # (5) eta^{-1}(u) = gamma(pi(u_1)) S(u_2)
        acc = {}
        for (a, b), c in kg.comult[i].items():
            term = kg.product(cl.gamma.apply(cl.quotient.pi.apply(unit_vec(a, F))),
                              kg.antipode_of(unit_vec(b, F)))
            v_axpy(F, acc, c, term)
        assert acc == cl.eta_inv.apply(unit_vec(i, F))


def test_retraction_identities():
    S3 = make_s3(F7)
    A3 = subgroup_from_generators(S3, [unit_vec(4, F7)])
    _check_gcphgh(S3, A3, cleaving_gamma(S3, A3))
    for F in (F2, F3):
        G = ga_kernel(2, F)
        A = ga_frobenius_subgroup(G, 1)
        _check_gcphgh(G, A, cleaving_gamma(G, A))
    Gb = make_borel(F3)
    y_idx = Gb.group_algebra.labels.index("y")
    N = subgroup_from_generators(Gb, [unit_vec(y_idx, F3)])
    _check_gcphgh(Gb, N, cleaving_gamma(Gb, N))


def test_smash_decomposition_bijection():
    """f(u) = eta(u_1) # pi(u_2) and f^{-1}(v # x) = v gamma(x) are mutually
    inverse between k[G] and k[H] (x) k[G/H]."""
    G = ga_kernel(2, F3)
    A = ga_frobenius_subgroup(G, 1)
    cl = cleaving_gamma(G, A)
    kg = G.group_algebra
    Q = cl.quotient.hopf
    for i in range(G.order):
        # f(u) as pairs (ambient kernel part, class part)
        pairs = {}
        for (a, b), c in kg.comult[i].items():
            ea = cl.eta.apply(unit_vec(a, F3))
            pb = cl.quotient.pi.apply(unit_vec(b, F3))
            if ea and pb:
                v_axpy(F3, pairs, c, t2_outer(F3, ea, pb))
        # f^{-1}: v gamma(x)
        back = {}
        for (v, x), c in pairs.items():
            v_axpy(F3, back, c,
                   kg.product(unit_vec(v, F3), cl.gamma.apply(unit_vec(x, F3))))
        assert back == unit_vec(i, F3)


def test_second_cleaving_same_dot_action_and_kernel():
    """Two coset-representative cleavings of the symmetric group modulo its
    rotation subgroup induce the same measuring action and the same quotient
    pair kernel."""
    from schemedouble.quotients import Triple, build_quotient, trivial_hopf_map
    from schemedouble.doubles import drinfeld_double
    from schemedouble.linalg import mat_kernel

    S3 = make_s3(F7)
    A3 = subgroup_from_generators(S3, [unit_vec(4, F7)])
    cl1 = A3.cleaving
    q = cl1.quotient
    # replace the transposition representative by a different one
    gamma2_mat = {}
    for r in range(2):
        col = cl1.gamma.mat[r]
        rep = max(col)
        if rep == 0 or rep >= 4:
            gamma2_mat[r] = dict(col)
        else:
            gamma2_mat[r] = {rep % 3 + 1: F7.one()}
    gamma2 = LinMap(q.hopf, S3.group_algebra, gamma2_mat)
    assert gamma2.mat != cl1.gamma.mat
    cl2 = _finish_cleaving(S3, A3, q, gamma2, convolution_inverse(gamma2))

    B3 = subgroup_from_generators(S3, [unit_vec(4, F7)])
    t = Triple(S3, B3, A3, trivial_hopf_map(A3, B3))
    for r in range(q.hopf.dim):
        for b in range(B3.order):
            lhs = t.star(cl1.gamma.apply(unit_vec(r, F7)), unit_vec(b, F7))
            rhs = t.star(cl2.gamma.apply(unit_vec(r, F7)), unit_vec(b, F7))
            assert lhs == rhs

    dd = drinfeld_double(S3)
    qp1 = build_quotient(t)
    A3._cleaving = cl2
    qp2 = build_quotient(Triple(S3, B3, A3, trivial_hopf_map(A3, B3)))
    assert qp2.cleaving is cl2
    k1 = mat_kernel(F7, qp1.theta().mat, dd.D.dim)
    k2 = mat_kernel(F7, qp2.theta().mat, dd.D.dim)
    assert k1.key() == k2.key()


def test_constant_groups_have_trivial_cococycle():
    """Coset-representative cleavings of constant groups are coalgebra maps,
    so the retraction is one too and the co-cocycle collapses, even for a
    nontrivial bicharacter."""
    from schemedouble.hopf import hopf_algebra_maps
    from schemedouble.groupschemes import characters, group_elements
    from schemedouble.quotients import Triple, build_tau
    S3 = make_s3(F7)
    A3 = subgroup_from_generators(S3, [unit_vec(4, F7)])
    cl = cleaving_gamma(S3, A3)
    kg = S3.group_algebra
    # eta of a constant cleaving is a coalgebra map
    for i in range(6):
        img = cl.eta.apply(unit_vec(i, F7))
        lhs = kg.coproduct(img)
        rhs = {}
        for (a, b), c in kg.comult[i].items():
            ea = cl.eta.apply(unit_vec(a, F7))
            eb = cl.eta.apply(unit_vec(b, F7))
            v_axpy(F7, rhs, c, t2_outer(F7, ea, eb))
        assert lhs == rhs
    maps = hopf_algebra_maps(A3.own.group_algebra, A3.own.coordinate_algebra,
                             src_grouplikes=group_elements(A3),
                             tgt_grouplikes=characters(A3))
    assert len(maps) == 3
    OK = A3.own.coordinate_algebra
    Q = cl.quotient.hopf
    for B in maps:
        t = Triple(S3, A3, A3, B)
        tau = build_tau(t, cl)
        for r, val in tau.items():
            eps = Q.counit.get(r, F7.zero())
            expect = {}
            if eps != F7.zero():
                v_axpy(F7, expect, eps, t2_outer(F7, OK.unit, OK.unit))
            assert val == expect


def test_product_and_intersection_of_subgroups():
    S3 = make_s3(F7)
    A3 = subgroup_from_generators(S3, [unit_vec(4, F7)])
    T = subgroup_from_generators(S3, [unit_vec(1, F7)])
    one = trivial_subgroup(S3)
    assert product_subgroup(A3, one).key() == A3.key()
    assert intersect_subgroup(A3, full_subgroup(S3)).key() == A3.key()
    assert intersect_subgroup(A3, T).order == 1
    assert product_subgroup(A3, T).order == 6
    G = ga_kernel(2, F2)
    A = ga_frobenius_subgroup(G, 1)
    assert product_subgroup(A, A).key() == A.key()


def test_closure_not_hopf_guard():
    from schemedouble.groupschemes import subgroup_from_subspace
    from schemedouble.linalg import span
    G = ga_kernel(2, F2)
    bad = span(F2, 4, [unit_vec(0, F2), unit_vec(2, F2)])  # not a subcoalgebra
    with pytest.raises(ClosureNotHopf):
        subgroup_from_subspace(G, bad)
