import pytest

from schemedouble.errors import NotInvertible
from schemedouble.fields import QQ, make_field
from schemedouble.groupschemes import (
    constant_group,
    direct_product,
    ga_frobenius_subgroup,
    ga_kernel,
    cleaving_gamma,
    mu_p_kernel,
)
from schemedouble.doubles import drinfeld_double
from schemedouble.hopf import (
    HopfAlgebra,
    LinMap,
    convolution,
    convolution_inverse,
    convolution_unit,
    dual_hopf,
    grouplikes,
    identity_map,
    is_hopf_morphism,
    tensor_hopf,
    verify_hopf,
)
from schemedouble.linalg import mat_identity, unit_vec

from conftest import make_borel, make_s3, make_z2, make_z3
from oracles import primitives

F2 = make_field("prime", p=2)
F3 = make_field("prime", p=3)
F7 = make_field("prime", p=7)


def test_verify_height_two_kernel_p3():
    G = ga_kernel(2, F3)
    rep = verify_hopf(G.group_algebra)
    assert rep.ok
    assert rep.flags["cocommutative"]
    assert rep.flags["involutive"]


def test_fault_injection_reports_witness():
    G = ga_kernel(1, F3)
    H = G.group_algebra
    import copy
    bad_cells = [{j: dict(v) for j, v in row.items()} for row in H.cells]
    bad_cells[1][1] = {2: F3.one()}  # should be 2*d2
    bad = HopfAlgebra(F3, H.labels, bad_cells, dict(H.unit), H.comult, dict(H.counit),
                      H.antipode)
    rep = verify_hopf(bad)
    assert not rep.ok
    failed = dict((n, w) for n, w in rep.failures())
    assert any("mult" in n or "assoc" in n for n in failed)
    assert any(w for w in failed.values())


def test_dual_of_coordinate_algebra_has_binomial_products():
    G = ga_kernel(1, F3)
    D = dual_hopf(G.coordinate_algebra)
    # dual basis of t^i multiplies with binomial coefficients
    assert D.cells[1].get(1) == {2: 2}
    assert D.cells[1].get(2, {}) == {}


def test_double_dual_recovers_structure():
    G = make_s3(F7)
    H = G.group_algebra
    DD = dual_hopf(dual_hopf(H))
    assert DD.cells == H.cells
    assert DD.comult == H.comult
    assert DD.antipode == H.antipode
    assert DD.unit == H.unit and DD.counit == H.counit


def test_dual_of_group_algebra_is_pointwise_functions():
    Z2 = make_z2(QQ)
    O = dual_hopf(Z2.group_algebra)
    one = QQ.one()
    for i in range(2):
        for j in range(2):
            expect = {i: one} if i == j else {}
            assert O.cells[i].get(j, {}) == expect


COORDINATE_ALGEBRAS = {
    "S3-GF7": lambda: make_s3(F7),
    "Ga2-GF3": lambda: ga_kernel(2, F3),
    "mu3-GF3": lambda: mu_p_kernel(F3),
    "Borel-GF3": lambda: make_borel(F3),
    "Z2xmu2-GF2": lambda: direct_product(make_z2(F2), mu_p_kernel(F2)),
}


@pytest.mark.parametrize("name", sorted(COORDINATE_ALGEBRAS))
def test_antipode_of_coordinate_algebra_is_an_involution(name):
    """k[G] is cocommutative, so O(G) is commutative and S o S = id on it:
    the antipode S^-1 of O(G)^cop is S, as drinfeld_double builds it."""
    G = COORDINATE_ALGEBRAS[name]()
    O, F = G.coordinate_algebra, G.field
    assert O.is_commutative
    for i in range(O.dim):
        assert O.antipode_of(O.antipode_of(unit_vec(i, F))) == unit_vec(i, F)


@pytest.mark.parametrize("make", [lambda: make_s3(F7), lambda: ga_kernel(1, F3)],
                         ids=["S3-GF7", "Ga1-GF3"])
def test_a_wrong_antipode_on_o_cop_fails_the_embedding(make):
    """The embedding of O(G)^cop into D(G) is a Hopf map; with the antipode
    of O(G)^cop replaced by the identity it fails, at the first basis
    vector that S moves."""
    G = make()
    dd = drinfeld_double(G)
    O_cop, F = dd.embed_O.source, G.field
    assert O_cop.antipode is G.coordinate_algebra.antipode
    assert is_hopf_morphism(dd.embed_O) == (True, "")
    fake = HopfAlgebra(F, O_cop.labels, O_cop.cells, O_cop.unit, O_cop.comult, O_cop.counit,
                       mat_identity(O_cop.dim, F))
    moved = next(i for i in range(O_cop.dim) if O_cop.antipode_of(unit_vec(i, F)) != unit_vec(i, F))
    assert is_hopf_morphism(LinMap(fake, dd.D, dd.embed_O.mat)) == (
        False, f"antipode at {O_cop.labels[moved]}")


def test_tensor_dimensions_and_unit():
    A = make_z2(QQ).group_algebra
    B = make_z3(QQ).group_algebra
    T = tensor_hopf(A, B)
    assert T.dim == 6
    assert T.unit == {0: QQ.one()}
    assert verify_hopf(T).ok


def test_tensor_matches_cayley_oracle():
    # k[Z2] (x) k[Z3] = k[Z6] with the product Cayley table
    A = make_z2(QQ)
    B = make_z3(QQ)
    T = tensor_hopf(A.group_algebra, B.group_algebra)
    table = [[0] * 6 for _ in range(6)]
    for a1 in range(2):
        for b1 in range(3):
            for a2 in range(2):
                for b2 in range(3):
                    i = a1 * 3 + b1
                    j = a2 * 3 + b2
                    table[i][j] = ((a1 + a2) % 2) * 3 + (b1 + b2) % 3
    Z6 = constant_group([f"g{i}" for i in range(6)], table, QQ)
    assert T.cells == Z6.group_algebra.cells


def test_hopf_morphism_examples():
    G = ga_kernel(2, F3)
    A = ga_frobenius_subgroup(G, 1)
    ok, _ = is_hopf_morphism(A.q)  # t -> t restriction
    assert ok
    cl = A.cleaving
    ok, wit = is_hopf_morphism(cl.gamma)
    assert not ok and "comult" in wit  # cleaving is not a coalgebra map
    ok, _ = is_hopf_morphism(identity_map(G.group_algebra))
    assert ok


def test_convolution_inverse_of_cleaving_has_sign_pattern():
    G = ga_kernel(2, F3)
    A = ga_frobenius_subgroup(G, 1)
    cl = cleaving_gamma(G, A)
    p = 3
    for n in range(3):
        sign = F3.one() if n % 2 == 0 else F3.neg(F3.one())
        assert cl.gamma.mat.get(n) == {p * n: F3.one()}
        assert cl.gamma_inv.mat.get(n) == {p * n: sign}


def test_retraction_inverse_vanishes_above_the_kernel():
    G = ga_kernel(2, F3)
    A = ga_frobenius_subgroup(G, 1)
    cl = cleaving_gamma(G, A)
    p = 3
    for n in range(9):
        col = cl.eta_inv.mat.get(n, {})
        if n < p:
            sign = F3.one() if n % 2 == 0 else F3.neg(F3.one())
            assert col == {n: sign}
        else:
            assert col == {}


def test_convolution_unit_is_self_inverse():
    H = make_z3(F7).group_algebra
    ue = convolution_unit(H, H)
    assert convolution_inverse(ue).mat == ue.mat


def test_convolution_associativity_and_identity():
    H = ga_kernel(2, F2).group_algebra
    f = identity_map(H)
    g = LinMap(H, H, H.antipode)
    ue = convolution_unit(H, H)
    lhs = convolution(convolution(f, g), f)
    rhs = convolution(f, convolution(g, f))
    assert lhs.mat == rhs.mat
    assert convolution(f, ue).mat == f.mat
    assert convolution(ue, g).mat == g.mat
    # id * S = unit.counit (the antipode law in convolution form)
    assert convolution(f, g).mat == ue.mat


def test_convolution_inverse_failure():
    # the zero map has no convolution inverse
    H = make_z2(QQ).group_algebra
    zero = LinMap(H, H, {})
    with pytest.raises(NotInvertible):
        convolution_inverse(zero)


def test_grouplikes_of_group_algebra_are_group_elements():
    G = make_z3(F7)
    gls = grouplikes(G.group_algebra)
    assert len(gls) == 3
    assert all(len(v) == 1 for v in gls)


def test_grouplikes_of_coordinate_algebra_are_characters():
    G = make_z3(F7)
    gls = grouplikes(G.coordinate_algebra)
    assert len(gls) == 3
    values = set()
    for g in gls:
        values.update(g.values())
    assert values <= {1, 2, 4}  # the cube roots of unity in GF(7)


def test_grouplikes_over_extension_field():
    # GF(4)^x is cyclic of order 3, so the cyclic group of order three has
    # three characters over GF(4)
    F4 = make_field("extension", p=2, k=2)
    G = make_z3(F4)
    gls = grouplikes(G.coordinate_algebra)
    assert len(gls) == 3


@pytest.mark.parametrize("p", [2, 3])
def test_grouplikes_of_frobenius_kernel_trivial(p):
    F = make_field("prime", p=p)
    G = ga_kernel(1, F)
    gls = grouplikes(G.group_algebra)
    assert gls == [{0: F.one()}]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_grouplikes_of_mu_p(p):
    """O(mu_p) = k[s]/(s^p - 1) has the p grouplikes s^i, one per character
    of the Cartier dual Z/p; k[mu_p], spanned by p orthogonal idempotents,
    has only its unit."""
    F = make_field("prime", p=p)
    G = mu_p_kernel(F)
    assert grouplikes(G.coordinate_algebra) == [{i: F.one()} for i in range(p)]
    assert grouplikes(G.group_algebra) == [{i: F.one() for i in range(p)}]


def test_primitives_of_frobenius_kernel():
    G = ga_kernel(2, F3)
    P = primitives(G.group_algebra)
    assert P.dim == 1 and P.contains(unit_vec(1, F3))
    PO = primitives(G.coordinate_algebra)
    assert PO.dim == 2  # t and t^p
    assert PO.contains(unit_vec(1, F3)) and PO.contains(unit_vec(3, F3))


def test_dual_respects_morphisms():
    G = ga_kernel(2, F3)
    A = ga_frobenius_subgroup(G, 1)
    ok, _ = is_hopf_morphism(A.iota)
    assert ok
    # its transpose q: O(G) -> O(A) between the duals is again a morphism
    ok, _ = is_hopf_morphism(A.q)
    assert ok
