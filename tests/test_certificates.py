"""Differential tests of the certified checks against the exhaustive oracles
in oracles.py: verify_hopf over a certified generating set, grouplikes from
linear eigen-constraints, the hexagons leg by leg, and the worklist ideal
closure."""

import itertools
import random

import pytest

import schemedouble.quotients
from schemedouble.appendix import b_lambda
from schemedouble.doubles import (
    QuasiHopfData,
    canonical_r_and_v,
    drinfeld_double,
    hexagon_products,
    verify_quasitriangular,
)
from schemedouble.fields import make_field
from schemedouble.groupschemes import (
    constant_group,
    direct_product,
    ga_frobenius_subgroup,
    ga_kernel,
    mu_p_kernel,
    subgroup_from_generators,
)
from schemedouble.hopf import (
    HopfAlgebra,
    certified_generators,
    grouplikes,
    verify_hopf,
)
from schemedouble.linalg import Echelon, unit_vec, v_axpy
from schemedouble.quotients import Triple, build_quotient, theta_kernel_matches_ideal, trivial_hopf_map

from conftest import make_borel, make_s3, make_v4, make_z2, make_z3
from oracles import (
    grouplikes_sweep,
    hexagon_products_t3,
    ideal_closure_rounds,
    verify_hopf_exhaustive,
)

F2 = make_field("prime", p=2)
F3 = make_field("prime", p=3)
F4 = make_field("extension", p=2, k=2)
F5 = make_field("prime", p=5)
F7 = make_field("prime", p=7)


def _mutants(H):
    """H with one added to one structure constant: every cell of mult, then
    every cell of comult."""
    F = H.field
    one = F.one()
    cells = list(itertools.product(range(H.dim), repeat=3))
    for i, j, k in cells:
        mult = {key: dict(cell) for key, cell in H.mult.items()}
        cell = v_axpy(F, mult.setdefault((i, j), {}), one, {k: one})
        if not cell:
            del mult[(i, j)]
        yield HopfAlgebra(F, H.labels, mult, H.unit, H.comult, H.counit, H.antipode)
    for i, j, k in cells:
        comult = {key: dict(t) for key, t in H.comult.items()}
        v_axpy(F, comult[i], one, {(j, k): one})
        yield HopfAlgebra(F, H.labels, H.mult, H.unit, comult, H.counit, H.antipode)


MUTATED = {
    "kS3-GF3": lambda: make_s3(F3).group_algebra,
    "OS3-GF3": lambda: make_s3(F3).coordinate_algebra,
    "kBorel-GF2": lambda: make_borel(F2).group_algebra,
    "OBorel-GF2": lambda: make_borel(F2).coordinate_algebra,
    "kGa2-GF2": lambda: ga_kernel(2, F2).group_algebra,
    "OGa2-GF2": lambda: ga_kernel(2, F2).coordinate_algebra,
    "DGa1-GF2": lambda: drinfeld_double(ga_kernel(1, F2)).D,
}


@pytest.mark.parametrize("name", sorted(MUTATED))
def test_verify_hopf_rejects_exactly_what_the_sweep_rejects(name):
    """On every single-constant mutant the certified verifier and the
    exhaustive sweep agree on `ok`; where the mutant is associative (so every
    certificate applies) they agree on every row."""
    H = MUTATED[name]()
    assert verify_hopf(H).ok and verify_hopf_exhaustive(H).ok
    count = rejected = 0
    for M in _mutants(H):
        count += 1
        mine, oracle = verify_hopf(M), verify_hopf_exhaustive(M)
        assert mine.ok == oracle.ok, mine.failures()
        if oracle.checks[0][1]:
            assert [c[:2] for c in mine.checks] == [c[:2] for c in oracle.checks]
        rejected += not oracle.ok
    assert count == 2 * H.dim**3
    assert rejected > 0


def _right_closure_rounds(H, gens):
    """span(gens) closed under right multiplication by gens, by rounds."""
    F = H.field
    S = Echelon(F, H.dim)
    for a in gens:
        S.insert(unit_vec(a, F))
    grew = True
    while grew:
        grew = False
        for row in list(S.basis()):
            for a in gens:
                if S.insert(H.product(row, unit_vec(a, F))):
                    grew = True
    return S


@pytest.mark.parametrize("G", [make_s3(F7), make_borel(F3), ga_kernel(2, F3)],
                         ids=["S3-GF7", "Borel-GF3", "Ga2-GF3"])
def test_certified_generators_close_to_the_whole_algebra(G):
    """The generating set's right-multiplication closure is all of D(G), and
    the set is smaller than the basis."""
    D = drinfeld_double(G).D
    gens = certified_generators(D)
    assert gens == sorted(set(gens))
    assert _right_closure_rounds(D, gens).dim == D.dim
    assert len(gens) < D.dim


def _families():
    groups = [
        ("Z2", make_z2), ("Z3", make_z3), ("S3", make_s3), ("V4", make_v4),
        ("Ga1", lambda F: ga_kernel(1, F)), ("Ga2", lambda F: ga_kernel(2, F)),
        ("mu_p", mu_p_kernel), ("Borel", make_borel),
        ("Z2xGa1", lambda F: direct_product(make_z2(F), ga_kernel(1, F))),
    ]
    for (gname, make), (fname, F) in itertools.product(
            groups, [("GF2", F2), ("GF3", F3), ("GF4", F4), ("GF5", F5), ("GF7", F7)]):
        G = make(F)
        if F.size ** G.order <= 10**5:
            for side, H in (("k", G.group_algebra), ("O", G.coordinate_algebra)):
                yield f"{side}[{gname}]-{fname}", H


FAMILIES = dict(_families())


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_grouplikes_equal_the_sweep(name):
    H = FAMILIES[name]
    assert grouplikes(H) == grouplikes_sweep(H)


def _perturbations(D, R, extra):
    """R, then R with one added to each of its entries and to `extra` entries
    outside its support."""
    F = D.field
    yield R
    outside = [(i, j) for i in range(D.dim) for j in range(D.dim) if (i, j) not in R]
    for key in list(R) + outside[::max(1, len(outside) // extra)][:extra]:
        yield v_axpy(F, dict(R), F.one(), {key: F.one()})


@pytest.mark.parametrize("G, extra", [(make_s3(F3), 12), (ga_kernel(1, F3), 81)],
                         ids=["D(S3)-GF3", "D(Ga1)-GF3"])
def test_hexagons_equal_the_ten3_product(G, extra):
    dd = drinfeld_double(G)
    D = dd.D
    R = canonical_r_and_v(dd).R
    failing = 0
    for Rp in _perturbations(D, R, extra):
        r13r23, r13r12 = hexagon_products(D, Rp)
        o13r23, o13r12 = hexagon_products_t3(D, Rp)
        assert (r13r23, r13r12) == (o13r23, o13r12)
        rows = dict(c[:2] for c in verify_quasitriangular(QuasiHopfData(D, Rp)).checks)
        assert rows["(Delta(x)id)R = R13 R23"] == (D.delta_leg(Rp, 0) == o13r23)
        assert rows["(id(x)Delta)R = R13 R12"] == (D.delta_leg(Rp, 1) == o13r12)
        failing += not rows["(Delta(x)id)R = R13 R23"]
    assert failing > 0


def test_hexagons_equal_the_ten3_product_on_random_tensors():
    """The leg-by-leg sums equal the Ten3 products for arbitrary R on the
    non-commutative D(S3), whose unit has six terms."""
    rng = random.Random(6)
    D = drinfeld_double(make_s3(F3)).D
    for _ in range(8):
        R = {}
        for _ in range(30):
            v_axpy(F3, R, F3.from_int(rng.randrange(1, 3)),
                   {(rng.randrange(D.dim), rng.randrange(D.dim)): F3.one()})
        assert hexagon_products(D, R) == hexagon_products_t3(D, R)


def _a4(F):
    perms = [p for p in itertools.permutations(range(4))
             if sum(p[i] > p[j] for i in range(4) for j in range(i)) % 2 == 0]
    idx = {p: i for i, p in enumerate(perms)}
    table = [[idx[tuple(p[q[i]] for i in range(4))] for q in perms] for p in perms]
    G = constant_group([str(p) for p in perms], table, F, name="A4")
    V4 = subgroup_from_generators(G, [unit_vec(idx[(1, 0, 3, 2)], F),
                                      unit_vec(idx[(2, 3, 0, 1)], F)])
    return Triple(G, V4, V4, trivial_hopf_map(V4, V4))


def _ga2_triple():
    G = ga_kernel(2, F3)
    A = ga_frobenius_subgroup(G, 1)
    return Triple(G, A, A, b_lambda(A, A, F3.one()))


@pytest.mark.parametrize("make", [_ga2_triple, lambda: _a4(F5)], ids=["ga2-GF3", "A4-GF5"])
def test_ideal_closure_worklist_equals_rounds(make, monkeypatch):
    """The ideals theta_kernel_matches_ideal closes: the worklist closure and
    the round-based one give the same subspace."""
    seen = []
    real = schemedouble.quotients.ideal_closure

    def recording(H, ech):
        seen.append((H, ech.copy()))
        return real(H, ech)

    monkeypatch.setattr(schemedouble.quotients, "ideal_closure", recording)
    triple = make()
    assert theta_kernel_matches_ideal(build_quotient(triple), drinfeld_double(triple.G))
    assert seen
    for H, ech in seen:
        assert real(H, ech.copy()).key() == ideal_closure_rounds(H, ech.copy()).key()


def test_ideal_closure_is_two_sided():
    """In k[S3] the left and the right ideal of e - (12) have dimension 3;
    the two-sided ideal is the augmentation ideal, of dimension 5."""
    kg = make_s3(F7).group_algebra
    ech = Echelon(F7, kg.dim)
    ech.insert({0: F7.one(), 1: F7.neg(F7.one())})
    closed = schemedouble.quotients.ideal_closure(kg, ech.copy())
    assert closed.dim == 5
    assert closed.key() == ideal_closure_rounds(kg, ech.copy()).key()
