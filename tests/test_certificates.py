"""Differential tests of the certified checks against the exhaustive oracles
in oracles.py: verify_hopf over a certified generating set, grouplikes from
linear eigen-constraints, the hexagons leg by leg, the worklist ideal
closure with the generator-first kernel certificate, the morphism check
with its images formed once, the D(G) structure constants assembled
from products formed once per (a, x, b), the crossed product of
D(K, H, B) with non-trivial sigma or tau against the term-by-term loop,
the two-phase subgroup closure against the rounds, sub- and quotient Hopf
algebras certified by their inclusion or projection against the builds
that also run the exhaustive verifier, and normal_subgroups by extension
against the generator-subset sweep."""

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
    verify_ribbon,
)
from schemedouble.errors import ClosureNotHopf, InvalidTriple, VerificationFailure
from schemedouble.fields import QQ, make_field
from schemedouble.groupschemes import (
    centralize,
    constant_group,
    direct_product,
    cleaving_gamma,
    full_subgroup,
    ga_frobenius_subgroup,
    ga_kernel,
    hopf_closure,
    is_normal,
    mu_p_kernel,
    section_mu,
    subgroup_from_generators,
    subgroup_from_subspace,
    trivial_subgroup,
)
from schemedouble.hopf import (
    HopfAlgebra,
    LinMap,
    certified_generators,
    convolution_inverse,
    grouplikes,
    hopf_algebra_maps,
    identity_map,
    is_hopf_morphism,
    quotient_by_hopf_ideal,
    t2_outer,
    t2_swap,
    verify_hopf,
)
from schemedouble.lattice import equivariant_maps, normal_subgroups
from schemedouble.linalg import Echelon, mat_kernel, span, unit_vec, v_axpy, v_scale
from schemedouble.quotients import (
    Triple,
    build_quotient,
    dot_action,
    theta_kernel_matches_ideal,
    trivial_hopf_map,
)

from conftest import (
    A4_GENS,
    D4_GENS,
    make_borel,
    make_s3,
    make_v4,
    make_z2,
    make_z3,
    permutation_table,
)
from oracles import (
    cleaving_gamma_by_tag,
    crossed_product_loop,
    drinfeld_double_mult_loop,
    grouplikes_sweep,
    hexagon_products_t3,
    ideal_closure_rounds,
    is_hopf_morphism_exhaustive,
    light_associativity_dense,
    normal_subgroups_sweep,
    quotient_by_hopf_ideal_verified,
    r_delta_all_basis,
    ribbon_coproduct_law_with_check,
    section_mu_by_tag,
    subgroup_closure_rounds,
    subgroup_from_subspace_verified,
    tensor_square_product_pairs,
    triple_validate_all_basis,
    v_central_all_basis,
    verify_hopf_exhaustive,
)

F2 = make_field("prime", p=2)
F3 = make_field("prime", p=3)
F4 = make_field("extension", p=2, k=2)
F5 = make_field("prime", p=5)
F7 = make_field("prime", p=7)
F9 = make_field("extension", p=3, k=2)


def _mult_mutants(H):
    """H with one added to one structure constant of mult, every cell in
    turn."""
    F = H.field
    one = F.one()
    for i, j, k in itertools.product(range(H.dim), repeat=3):
        mult = {key: dict(cell) for key, cell in H.mult.items()}
        cell = v_axpy(F, mult.setdefault((i, j), {}), one, {k: one})
        if not cell:
            del mult[(i, j)]
        yield HopfAlgebra(F, H.labels, mult, H.unit, H.comult, H.counit, H.antipode)


def _mutants(H):
    """H with one added to one structure constant: every cell of mult, then
    every cell of comult."""
    F = H.field
    one = F.one()
    yield from _mult_mutants(H)
    for i, j, k in itertools.product(range(H.dim), repeat=3):
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


LIGHT = dict(MUTATED, **{
    "DZ2-Q": lambda: drinfeld_double(make_z2(QQ)).D,
    "DZ3-GF2": lambda: drinfeld_double(make_z3(F2)).D,
})


def _skipped_triples(H):
    """The (i, a, k), a in certified_generators(H), where every cell of both
    sides of Light's test is empty."""
    mult, n, gens = H.mult, H.dim, certified_generators(H)
    return sum(
        not mult.get((j, k)) and not any(mult.get((l, k)) for l in mult.get((i, j), {}))
        for i in range(n) for j in gens for k in range(n))


@pytest.mark.parametrize("name", sorted(LIGHT))
def test_light_test_on_nonzero_cells_equals_the_dense_loop(name):
    """On every single-constant mult mutant, the associativity row of
    verify_hopf, which visits only the k with a non-empty cell, has the
    (ok, witness) of Light's test over every k."""
    H = LIGHT[name]()
    rejected = 0
    for M in _mult_mutants(H):
        row, ok, wit = verify_hopf(M).checks[0]
        assert row == "associativity"
        oracle = light_associativity_dense(M, certified_generators(M))
        assert (ok, wit) == oracle
        rejected += not oracle[0]
    assert rejected > 0


@pytest.mark.parametrize("name", ["DZ2-Q", "DZ3-GF2"])
def test_light_test_skips_on_constant_group_doubles(name):
    """D(G) of a constant group is monomial: most triples of Light's test
    have only empty cells, so the restricted loop skips them."""
    H = LIGHT[name]()
    assert 0 < _skipped_triples(H) < H.dim**2 * len(certified_generators(H))


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


@pytest.mark.parametrize("make, count", [(make_z2, 4), (make_z3, 3)], ids=["DZ2-Q", "DZ3-Q"])
def test_grouplikes_over_q_equal_the_sign_sweep(make, count):
    """Over Q the branch search over {0, 1, -1} finds what the sweep of
    {0, 1, -1}^n finds on D(G): chi |><| g for each element g and each
    rational character chi of G (the trivial one, and the sign of Z2)."""
    D = drinfeld_double(make(QQ)).D
    found = grouplikes(D)
    assert found == grouplikes_sweep(D, [QQ.zero(), QQ.one(), QQ.neg(QQ.one())])
    assert len(found) == count


def test_grouplikes_of_the_s3_double_over_q():
    """D(S3) over Q has dimension 36, beyond any sweep: its grouplikes are
    the 6 elements times the 2 characters of S3."""
    assert len(grouplikes(drinfeld_double(make_s3(QQ)).D)) == 12


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


@pytest.mark.parametrize("name", sorted(MUTATED))
def test_t2_times_equals_the_term_pair_loop(name):
    """On Delta(e_i) Delta(e_j) for every basis pair, the indexed product
    equals the loop over all pairs of terms, with the fixed factor on
    either side; tensor_square_product also has the loop's key order."""
    H = MUTATED[name]()
    for i in range(H.dim):
        x = H.comult[i]
        x_left, x_right = H.t2_times(x, "left"), H.t2_times(x, "right")
        for j in range(H.dim):
            y = H.comult[j]
            xy, yx = tensor_square_product_pairs(H, x, y), tensor_square_product_pairs(H, y, x)
            assert x_left(y) == xy and x_right(y) == yx
            assert list(H.tensor_square_product(x, y).items()) == list(xy.items())


def test_t2_times_with_r_equals_the_term_pair_loop():
    """R Delta(h) and Delta^cop(h) R on D(S3) over GF(3), for every basis
    vector h, with R indexed once on each side."""
    dd = drinfeld_double(make_s3(F3))
    D, R = dd.D, canonical_r_and_v(dd).R
    r_times, times_r = D.t2_times(R, "left"), D.t2_times(R, "right")
    nonzero = 0
    for h in range(D.dim):
        dh, dh_cop = D.comult[h], t2_swap(D.comult[h])
        assert r_times(dh) == tensor_square_product_pairs(D, R, dh)
        assert times_r(dh_cop) == tensor_square_product_pairs(D, dh_cop, R)
        nonzero += bool(r_times(dh))
    assert nonzero == D.dim


def _a4(F):
    labels, table = permutation_table(A4_GENS)
    G = constant_group(labels, table, F, name="A4")
    V4 = subgroup_from_generators(G, [unit_vec(labels.index(str(g)), F)
                                      for g in [(1, 0, 3, 2), (2, 3, 0, 1)]])
    return Triple(G, V4, V4, trivial_hopf_map(V4, V4))


def _ga2_triple():
    G = ga_kernel(2, F3)
    A = ga_frobenius_subgroup(G, 1)
    return Triple(G, A, A, b_lambda(A, A, F3.one()))


def _unit_multipliers(monkeypatch):
    monkeypatch.setattr(schemedouble.quotients, "_ideal_multipliers",
                        lambda G: [drinfeld_double(G).D.unit])
    return True


def _ga2_pair():
    """(Ga_1, 1, 1) in ga_kernel(2) over GF(3): O(G/K)^+ |><| 1 alone
    generates ker theta."""
    G = ga_kernel(2, F3)
    A, one = ga_frobenius_subgroup(G, 1), trivial_subgroup(G)
    return Triple(G, A, one, trivial_hopf_map(one, A))


def _fewer_coinvariants(monkeypatch):
    """O(G/K) without its second canonical basis row."""
    real = schemedouble.quotients.coinvariant_subspace

    def fewer(G, K):
        rows = real(G, K).basis()
        return span(G.field, G.order, rows[:1] + rows[2:])

    monkeypatch.setattr(schemedouble.quotients, "coinvariant_subspace", fewer)
    return False


@pytest.mark.parametrize("make, patch", [
    (_ga2_triple, None),
    (lambda: _a4(F5), None),
    (_ga2_triple, _unit_multipliers),
    (_ga2_pair, _fewer_coinvariants),
], ids=["ga2-GF3", "A4-GF5", "ga2-GF3-fallback", "ga2-pair-GF3-too-few-generators"])
def test_ideal_closure_worklist_equals_rounds(make, patch, monkeypatch):
    """The ideals theta_kernel_matches_ideal closes: every closure it asks
    for, generator-first or over the whole basis, gives the same subspace
    as the round-based closure under the whole basis, and its answer is the
    exhaustive one (the round-based ideal compared with ker theta).  With
    the unit as the only multiplier the generator phase falls short and the
    whole-basis phase still certifies the kernel; with too few generators
    both answers are False."""
    seen = []
    real = schemedouble.quotients.ideal_closure

    def recording(H, ech, multipliers=None):
        seen.append((H, ech.copy(), multipliers))
        return real(H, ech, multipliers)

    monkeypatch.setattr(schemedouble.quotients, "ideal_closure", recording)
    expected = patch(monkeypatch) if patch else True
    triple = make()
    qp = build_quotient(triple)
    assert theta_kernel_matches_ideal(qp) is expected
    assert seen
    assert [m is None for _, _, m in seen] == ([False] if patch is None else [False, True])
    H, generated, _ = seen[0]
    ideal = ideal_closure_rounds(H, generated.copy())
    kernel = mat_kernel(H.field, qp.theta().mat, H.dim)
    assert (ideal.key() == kernel.key()) is expected
    for H, ech, multipliers in seen:
        closed = real(H, ech.copy(), multipliers)
        if patch is _unit_multipliers and multipliers is not None:
            assert closed.key() == ech.key()
            continue
        assert closed.key() == ideal.key()


def _perturbed_maps(f):
    """f with one added to one matrix entry, for every entry, zero entries
    included."""
    F = f.target.field
    for col, row in itertools.product(range(f.source.dim), range(f.target.dim)):
        mat = {j: dict(c) for j, c in f.mat.items()}
        v_axpy(F, mat.setdefault(col, {}), F.one(), {row: F.one()})
        yield LinMap(f.source, f.target, mat)


def _theta_ga2():
    triple = _ga2_triple()
    return build_quotient(triple).theta()


@pytest.mark.parametrize("make", [
    _theta_ga2,
    lambda: drinfeld_double(make_s3(F3)).proj_kG,
], ids=["theta-ga2-GF3-B1", "proj_kG-D(S3)-GF3"])
def test_is_hopf_morphism_agrees_with_the_sweep(make):
    """On single-entry perturbations of a Hopf morphism, is_hopf_morphism
    and the exhaustive oracle give the same verdict and the same witness."""
    f = make()
    assert is_hopf_morphism(f) == is_hopf_morphism_exhaustive(f) == (True, "")
    rejected = 0
    for g in _perturbed_maps(f):
        verdict = is_hopf_morphism(g)
        assert verdict == is_hopf_morphism_exhaustive(g)
        rejected += not verdict[0]
    assert rejected > 0


def test_ideal_closure_is_two_sided():
    """In k[S3] the left and the right ideal of e - (12) have dimension 3;
    the two-sided ideal is the augmentation ideal, of dimension 5."""
    kg = make_s3(F7).group_algebra
    ech = Echelon(F7, kg.dim)
    ech.insert({0: F7.one(), 1: F7.neg(F7.one())})
    closed = schemedouble.quotients.ideal_closure(kg, ech.copy())
    assert closed.dim == 5
    assert closed.key() == ideal_closure_rounds(kg, ech.copy()).key()


@pytest.mark.parametrize("make", [
    lambda: make_s3(F3),
    lambda: constant_group(*permutation_table(A4_GENS, seed=1), F5, name="A4"),
    lambda: constant_group(*permutation_table(D4_GENS), F9, name="D4"),
    lambda: make_borel(F2),
    lambda: ga_kernel(2, F3),
    lambda: make_z2(QQ),
], ids=["S3-GF3", "A4-relabeled-GF5", "D4-GF9", "Borel-GF2", "ga2-GF3", "Z2-Q"])
def test_double_structure_constants_equal_the_term_by_term_loop(make):
    """drinfeld_double assembles the same structure constants as the loop
    that multiplies in O(G) and k[G] for every term of every basis pair,
    with the same keys in the same order in the table and in every cell
    (Borel: a connected group with a non-trivial coadjoint action)."""
    G = make()
    mult = drinfeld_double(G).D.mult
    expected = drinfeld_double_mult_loop(G)
    assert list(mult) == list(expected)
    assert all(list(mult[k].items()) == list(cell.items()) for k, cell in expected.items())


def _twists(qp):
    """(sigma is not trivial, tau is not trivial): whether sigma(x, y) differs
    from eps(x) eps(y) 1, or tau(x) from eps(x) 1 (x) 1, anywhere."""
    F = qp.triple.G.field
    OK = qp.triple.K.own.coordinate_algebra
    Q = qp.quotient.hopf
    eps = lambda r: Q.counit.get(r, F.zero())
    unit2 = t2_outer(F, OK.unit, OK.unit)
    return (any(qp.sigma.get((r, s), {}) != v_scale(F, F.mul(eps(r), eps(s)), OK.unit)
                for r in range(Q.dim) for s in range(Q.dim)),
            any(qp.tau.get(r, {}) != v_scale(F, eps(r), unit2) for r in range(Q.dim)))


def _sigma_twisted_pairs(G):
    """D(K,H,B) for every triple of G whose sigma is not trivial."""
    subs = normal_subgroups(G)
    qps = [build_quotient(t)
           for K in subs for H in subs if centralize(K, H)
           for t in equivariant_maps(G, K, H)]
    return [qp for qp in qps if _twists(qp)[0]]


@pytest.mark.parametrize("make, count, twisted", [
    (lambda: _sigma_twisted_pairs(
        constant_group(*permutation_table([(1, 2, 3, 0)]), F5, name="Z4")), 2, 0),
    (lambda: _sigma_twisted_pairs(
        constant_group(*permutation_table(D4_GENS), F3, name="D4")), 7, 0),
    (lambda: [build_quotient(_ga2_triple())], 1, 1),
], ids=["Z4-GF5-sigma", "D4-GF3-sigma", "ga2-GF3-B1-tau"])
def test_crossed_product_equals_the_term_by_term_loop(make, count, twisted):
    """build_quotient assembles the same product and coproduct as the loop
    that multiplies term by term, on every triple of Z4/GF(5) and D4/GF(3)
    with sigma not trivial and on B_1 of ga_kernel(2)/GF(3), whose tau is
    not trivial.  These algebras satisfy every Hopf axiom, the antipode law
    among them, and the antipode is the convolution inverse of the
    identity."""
    qps = make()
    assert len(qps) == count
    for qp in qps:
        assert _twists(qp)[twisted]
        F = qp.triple.G.field
        OK = qp.triple.K.own.coordinate_algebra
        Q = qp.quotient.hopf
        dot = [{b: img for b in range(OK.dim)
                if (img := dot_action(qp.triple, qp.cleaving, unit_vec(r, F), unit_vec(b, F)))}
               for r in range(Q.dim)]
        mult, comult = crossed_product_loop(OK, Q, dot, qp.sigma, qp.tau)
        assert qp.D.mult == mult
        assert qp.D.comult == comult
        assert verify_hopf(qp.D).ok
        assert qp.D.antipode == convolution_inverse(identity_map(qp.D)).mat


def _basis_sets(H, pairs=True):
    """Every basis vector alone and, with pairs, every two of them."""
    F = H.field
    vecs = [unit_vec(i, F) for i in range(H.dim)]
    return [[v] for v in vecs] + (
        [list(vw) for vw in itertools.combinations(vecs, 2)] if pairs else [])


def _sums(H):
    """A few sums of basis vectors with coefficients 0/1."""
    F = H.field
    return [[{i: F.one() for i in range(H.dim) if mask >> i & 1}]
            for mask in (3, 6, 12, 21, 170, 2**H.dim - 1)]


@pytest.mark.parametrize("make, sets", [
    (lambda: make_s3(F7), _basis_sets),
    (lambda: ga_kernel(2, F3), lambda H: _basis_sets(H) + _sums(H)),
    (lambda: make_borel(F3), lambda H: _basis_sets(H) + _sums(H)),
    (lambda: direct_product(ga_kernel(1, F3), mu_p_kernel(F3)),
     lambda H: _basis_sets(H) + _sums(H)),
], ids=["S3-GF7", "ga2-GF3", "Borel-GF3", "Ga1xmu3-GF3"])
def test_hopf_closure_equals_the_rounds(make, sets):
    """The two-phase worklist closure spans the same subspace, with the same
    canonical basis, as the rounds that apply the antipode, the slices and
    every product of members until nothing is added."""
    G = make()
    for gens in sets(G.group_algebra):
        assert hopf_closure(G, gens).key() == subgroup_closure_rounds(G, gens).key()


def _subspaces(F, n, through=()):
    """Every subspace of F^n (F = GF(2)) containing the vectors through."""
    vecs = [{i: F.one() for i in range(n) if m >> i & 1} for m in range(1, 2**n)]
    found = {}
    for k in range(n - len(through) + 1):
        for extra in itertools.combinations(vecs, k):
            ech = span(F, n, list(through) + list(extra))
            found.setdefault(ech.key(), ech)
    return list(found.values())


def _structure(H):
    return (H.labels, H.mult, H.unit, H.comult, H.counit, H.antipode, H.name)


@pytest.mark.parametrize("make", [lambda: make_v4(F2), lambda: ga_kernel(2, F2)],
                         ids=["V4-GF2", "ga2-GF2"])
def test_subgroup_from_subspace_rejects_what_the_verified_build_rejects(make):
    """On every subspace through 1, the build certified by its inclusion
    alone raises ClosureNotHopf exactly when the build that also runs the
    exhaustive verifier does, and otherwise gives the same structure."""
    G = make()
    subspaces = _subspaces(F2, G.order, [G.group_algebra.unit])
    assert len(subspaces) == 16
    built = 0
    for ech in subspaces:
        try:
            expected = subgroup_from_subspace_verified(G, ech.copy(), name="L")
        except ClosureNotHopf:
            with pytest.raises(ClosureNotHopf):
                subgroup_from_subspace(G, ech.copy(), name="L")
            continue
        sub = subgroup_from_subspace(G, ech.copy(), name="L")
        built += 1
        assert _structure(sub.own.group_algebra) == _structure(expected.own.group_algebra)
        assert sub.iota.mat == expected.iota.mat and sub.key() == expected.key()
    assert 1 < built < 16


@pytest.mark.parametrize("make", [lambda: make_v4(F2).group_algebra,
                                  lambda: ga_kernel(2, F2).group_algebra],
                         ids=["kV4-GF2", "kga2-GF2"])
def test_quotient_by_hopf_ideal_rejects_what_the_verified_quotient_rejects(make):
    """On every subspace I, the quotient certified by its projection alone
    raises VerificationFailure exactly when the one that also runs the
    exhaustive verifier does, and otherwise gives the same H/I and pi."""
    H = make()
    subspaces = _subspaces(F2, H.dim)
    assert len(subspaces) == 67
    built = 0
    for ech in subspaces:
        try:
            Q0, pi0 = quotient_by_hopf_ideal_verified(H, ech)
        except VerificationFailure:
            with pytest.raises(VerificationFailure):
                quotient_by_hopf_ideal(H, ech)
            continue
        Q, pi = quotient_by_hopf_ideal(H, ech)
        built += 1
        assert _structure(Q) == _structure(Q0) and pi.mat == pi0.mat
    assert 1 < built < 67


def _relabeled(gens, name):
    return [lambda seed=seed: constant_group(*permutation_table(gens, seed=seed), F3,
                                             name=name) for seed in (0, 1, 2)]


S3_GENS = [(1, 0, 2), (1, 2, 0)]
Z6_GENS = [(1, 2, 3, 4, 5, 0)]


@pytest.mark.parametrize("make", [
    *_relabeled(S3_GENS, "S3"), *_relabeled(D4_GENS, "D4"),
    *_relabeled(A4_GENS, "A4"), *_relabeled(Z6_GENS, "Z6"),
    lambda: make_borel(F3), lambda: ga_kernel(2, F3),
], ids=[f"{g}-seed{s}" for g in ("S3", "D4", "A4", "Z6") for s in range(3)]
    + ["Borel-GF3", "ga2-GF3"])
def test_normal_subgroups_equals_the_sweep(make):
    """normal_subgroups, extending each subgroup found by one element at a
    time and building each span once, finds the same normal subgroups, with
    the same names and structure, as the closures of every generator subset
    (constant groups) or of every 0/1 sum (connected groups)."""
    G = make()
    mine, oracle = normal_subgroups(G), normal_subgroups_sweep(G)
    assert [s.key() for s in mine] == [s.key() for s in oracle]
    for a, b in zip(mine, oracle):
        assert a.own.name == b.own.name
        assert _structure(a.own.group_algebra) == _structure(b.own.group_algebra)


def _tagged_subgroups(G):
    """(L, tag) for every subgroup the package builds on G, tagged as its
    builder used to tag it: trivial_subgroup "trivial", full_subgroup
    "full", ga_frobenius_subgroup "ga_standard", and "generic" for the other
    closures (from 1 by one element at a time on constant groups, of every
    0/1 sum on the others up to order 9)."""
    F, n = G.field, G.order
    out = [(trivial_subgroup(G), "trivial"), (full_subgroup(G), "full")]
    if G.kind == "ga":
        out += [(ga_frobenius_subgroup(G, s), "ga_standard")
                for s in range(G.payload["r"] + 1)]
    seen = {L.key() for L, _ in out}

    def note(ech):
        if ech.key() not in seen:
            seen.add(ech.key())
            out.append((subgroup_from_subspace(G, ech), "generic"))

    if G.kind == "constant":
        for S, _ in out:  # grows while it is walked
            for g in range(n):
                if not S.subspace.contains(unit_vec(g, F)):
                    note(hopf_closure(G, [unit_vec(g, F)], base=S.subspace))
    elif n <= 9:
        for mask in range(1, 2**n):
            note(hopf_closure(G, [{i: F.one() for i in range(n) if mask >> i & 1}]))
    return out


def _span_rule_groups():
    def relabeled(gens, F, name):
        return [(f"{name}-GF{F.char}-seed{seed}",
                 lambda seed=seed: constant_group(*permutation_table(gens, seed=seed), F,
                                                  name=name)) for seed in (0, 1)]

    yield from relabeled(S3_GENS, F7, "S3")
    yield from relabeled(A4_GENS, F5, "A4")
    yield from relabeled(D4_GENS, F3, "D4")
    yield from relabeled(Z6_GENS, F7, "Z6")
    yield "S3-Q", lambda: make_s3(QQ)
    for r, F in ((2, F2), (2, F3), (3, F2), (4, F2)):
        yield f"ga{r}-GF{F.char}", lambda r=r, F=F: ga_kernel(r, F)
    yield "Borel-GF3", lambda: make_borel(F3)
    yield "mu3", lambda: mu_p_kernel(F3)
    yield "Ga1xmu3", lambda: direct_product(ga_kernel(1, F3), mu_p_kernel(F3))
    yield "Ga1xGa1-GF3", lambda: direct_product(ga_kernel(1, F3), ga_kernel(1, F3))


SPAN_RULE_GROUPS = dict(_span_rule_groups())


@pytest.mark.parametrize("name", list(SPAN_RULE_GROUPS))
def test_span_rule_sections_and_cleavings_equal_the_tag_rule(name):
    """section_mu and cleaving_gamma, which read their closed-form
    candidates off the span, give the same mu, mu^-1, gamma and gamma^-1 as
    the candidates chosen by how the subgroup was built, on every subgroup
    (every normal one for the cleaving)."""
    G = SPAN_RULE_GROUPS[name]()
    cases = _tagged_subgroups(G)
    assert len(cases) >= 2
    for L, tag in cases:
        mine, oracle = section_mu(L), section_mu_by_tag(L, tag)
        assert (mine.mu.mat, mine.mu_inv.mat) == (oracle.mu.mat, oracle.mu_inv.mat)
        if is_normal(L):
            mine, oracle = cleaving_gamma(G, L), cleaving_gamma_by_tag(G, L, tag)
            assert ((mine.gamma.mat, mine.gamma_inv.mat)
                    == (oracle.gamma.mat, oracle.gamma_inv.mat))


def _candidate_r_v(H):
    """A candidate (R, V) on any algebra: 1 (x) 1 plus the last basis vector
    on both legs, and the last basis vector."""
    F = H.field
    last = {H.dim - 1: F.one()}
    R = t2_outer(F, H.unit, H.unit)
    v_axpy(F, R, F.one(), t2_outer(F, last, last))
    return R, last


def _rows(rep):
    return {name: ok for name, ok, _ in rep.checks}


def _assert_rows_equal_the_oracles(H, R, V):
    """The rows of verify_quasitriangular and verify_ribbon that run on the
    certified generators equal the whole-basis oracles; returns whether
    the generator path was taken."""
    Q = QuasiHopfData(H, R, V)
    qt, rib = _rows(verify_quasitriangular(Q)), _rows(verify_ribbon(Q))
    assert qt["R Delta = Delta^cop R"] == r_delta_all_basis(H, R)[0]
    assert rib["V central"] == v_central_all_basis(H, V)[0]
    assert rib["Delta(V) = (R21 R)^-1 (V(x)V)"] == ribbon_coproduct_law_with_check(H, R, V)
    return H.certified()


@pytest.mark.parametrize("name", sorted(MUTATED))
def test_r_and_v_rows_on_generators_equal_the_sweep_on_mutants(name):
    """On every MUTATED algebra and each of its single-constant mutants,
    verified first so that a passing report is kept on it, the rows
    R Delta = Delta^cop R, "V central" and the ribbon coproduct law equal
    the whole-basis oracles (with the (R21 R)^-1 check always made)."""
    H = MUTATED[name]()
    verify_hopf(H)
    assert _assert_rows_equal_the_oracles(H, *_candidate_r_v(H))
    for M in _mutants(H):
        verify_hopf(M)
        _assert_rows_equal_the_oracles(M, *_candidate_r_v(M))


@pytest.mark.parametrize("G, extra", [(make_s3(F3), 12), (make_borel(F2), 30)],
                         ids=["D(S3)-GF3", "D(Borel)-GF2"])
def test_r_and_v_rows_on_generators_equal_the_sweep_on_perturbations(G, extra):
    """On a certified double, for R and every single-entry perturbation of
    it, and for V and every V + e_i, the generator rows equal the
    whole-basis oracles; the perturbations make each row fail somewhere."""
    dd = drinfeld_double(G)
    D = dd.D
    assert verify_hopf(D).ok and len(certified_generators(D)) < D.dim
    qt = canonical_r_and_v(dd)
    failing = {"R": 0, "V": 0, "law": 0}
    for Rp in _perturbations(D, qt.R, extra):
        assert _assert_rows_equal_the_oracles(D, Rp, qt.V)
        failing["R"] += not r_delta_all_basis(D, Rp)[0]
        failing["law"] += not ribbon_coproduct_law_with_check(D, Rp, qt.V)
    for i in range(D.dim):
        Vp = v_axpy(D.field, dict(qt.V), D.field.one(), {i: D.field.one()})
        assert _assert_rows_equal_the_oracles(D, qt.R, Vp)
        failing["V"] += not v_central_all_basis(D, Vp)[0]
    assert all(failing.values()), failing


def _blank_labels(H, label):
    return HopfAlgebra(H.field, [label] * H.dim, H.mult, H.unit, H.comult, H.counit,
                       H.antipode)


@pytest.mark.parametrize("name", sorted(MUTATED))
def test_rows_fail_whatever_the_labels(name):
    """With every label "" or every label None (so every witness is falsy)
    each row of verify_hopf, of verify_quasitriangular and of verify_ribbon
    fails exactly where it fails under the real labels, on the algebra and
    on each of its single-constant mutants, and a failing report does not
    certify the algebra."""
    H = MUTATED[name]()
    failed = 0
    for M in itertools.chain([H], _mutants(H)):
        rep = verify_hopf(M)
        R, V = _candidate_r_v(M)
        rows = [_rows(verify(QuasiHopfData(M, R, V)))
                for verify in (verify_quasitriangular, verify_ribbon)]
        for label in ("", None):
            blank = _blank_labels(M, label)
            assert _rows(verify_hopf(blank)) == _rows(rep)
            assert blank.certified() == rep.ok
            assert [_rows(verify(QuasiHopfData(blank, R, V)))
                    for verify in (verify_quasitriangular, verify_ribbon)] == rows
        failed += not rep.ok
    assert failed > 0


def test_coassociativity_on_generators_rejects_what_the_sweep_rejects():
    """Among the comult mutants of the MUTATED algebras, those whose
    associativity, Delta-multiplicative and Delta-unital rows pass have
    coassociativity checked on the certified generators only; the row
    equals the whole-basis one on each of them."""
    on_generators = 0
    for name in sorted(MUTATED):
        for M in _mutants(MUTATED[name]()):
            mine = _rows(verify_hopf(M))
            if all(mine[r] for r in ("associativity", "comultiplication multiplicative",
                                     "comultiplication unital")):
                on_generators += 1
                assert mine["coassociativity"] == _rows(verify_hopf_exhaustive(M))["coassociativity"]
    assert on_generators > 0


def _b_candidates(G):
    """(K, H, B) for every pair of normal subgroups of G that centralize
    each other, B over every Hopf algebra map k[H] -> O(K) and every
    single-entry perturbation of one."""
    subs = normal_subgroups(G)
    for K in subs:
        for H in subs:
            if not centralize(K, H):
                continue
            maps = hopf_algebra_maps(H.own.group_algebra, K.own.coordinate_algebra)
            for B in maps:
                yield K, H, B
            for B in maps[:1]:
                for Bp in _perturbed_maps(B):
                    yield K, H, Bp


@pytest.mark.parametrize("make, some_not_equivariant", [
    (lambda: constant_group(*permutation_table(A4_GENS), F5, name="A4"), True),
    (lambda: constant_group(*permutation_table(D4_GENS), F3, name="D4"), True),
    (lambda: ga_kernel(2, F3), False),
], ids=["A4-GF5", "D4-GF3", "ga2-GF3"])
def test_triple_equivariance_on_generators_rejects_what_the_sweep_rejects(
        make, some_not_equivariant):
    """Triple, which checks equivariance for u in the certified generators
    of k[G] only, raises exactly when the checks with every basis u do,
    with the same message unless the failure is equivariance; on A4 and
    D4 some Hopf maps B fail only equivariance (ga_kernel(2) is
    commutative, so every B is equivariant)."""
    G = make()
    assert len(certified_generators(G.group_algebra)) < G.order
    equivariance = 0
    for K, H, B in _b_candidates(G):
        oracle = triple_validate_all_basis(G, K, H, B)
        try:
            Triple(G, K, H, B)
            mine = None
        except InvalidTriple as exc:
            mine = str(exc)
        assert (mine is None) == (oracle is None), (mine, oracle)
        if oracle and oracle.startswith("B is not equivariant"):
            equivariance += 1
            assert mine.startswith("B is not equivariant")
        else:
            assert mine == oracle
    assert (equivariance > 0) == some_not_equivariant
