"""Differential tests of the certified checks against the exhaustive oracles
in oracles.py: verify_hopf over a certified generating set, grouplikes from
linear eigen-constraints, the hexagons leg by leg, the worklist ideal
closure with the one-sided kernel certificate, the universal-property
certificate of theta against the morphism sweep on the D(G) table, the
morphism check with its images formed once, the D(G) structure constants assembled
from products formed once per (a, x, b), the crossed product of
D(K, H, B) with non-trivial sigma or tau against the term-by-term loop,
its equal cells kept once and left unchanged, the pair view of the rows,
the two-phase subgroup closure against the rounds, sub- and quotient Hopf
algebras certified by their inclusion or projection against the builds
that also run the exhaustive verifier, normal_subgroups by extension
against the generator-subset sweep, and hopf_algebra_maps against the
search that closes every pair of recorded pairs and re-checks every map."""

import argparse
import copy
import itertools
import random
from pathlib import Path

import pytest

import schemedouble.groupschemes
import schemedouble.hopf
import schemedouble.linalg
import schemedouble.quotients
from schemedouble.appendix import b_lambda
from schemedouble.cli import _load_triple
from schemedouble.doubles import (
    QuasiHopfData,
    drinfeld_double,
    hexagon_products,
    is_hopf_map_from_double,
    verify_quasitriangular,
    verify_ribbon,
)
from schemedouble.errors import (
    BudgetExceeded,
    ClosureNotHopf,
    InvalidTriple,
    NotInvertible,
    SchemeDoubleError,
    VerificationFailure,
)
from schemedouble.fields import QQ, make_field
from schemedouble.groupschemes import (
    _colinear_section_equations,
    _colinear_section_ok,
    GroupScheme,
    centralize,
    constant_group,
    direct_product,
    cleaving_gamma,
    coinvariant_subspace,
    full_subgroup,
    ga_frobenius_subgroup,
    ga_kernel,
    hopf_closure,
    is_normal,
    mu_p_kernel,
    quotient_by_normal,
    section_mu,
    subgroup_from_generators,
    subgroup_from_subspace,
    trivial_subgroup,
)
from schemedouble.hopf import (
    HopfAlgebra,
    LinMap,
    augmentation,
    convolution,
    convolution_inverse,
    convolution_unit,
    grouplikes,
    hopf_algebra_maps,
    identity_map,
    is_hopf_morphism,
    quotient_by_hopf_ideal,
    t2_outer,
    t2_swap,
    verify_hopf,
)
from schemedouble.lattice import enumerate_triples, equivariant_maps, normal_subgroups
from schemedouble.linalg import (
    Echelon,
    mat_apply,
    mat_compose,
    mat_identity,
    mat_key,
    mat_kernel,
    mat_transpose,
    solve_rows,
    span,
    unit_vec,
    v_axpy,
    v_scale,
)
from schemedouble.quotients import (
    Triple,
    build_quotient,
    dot_action,
    quotient_r_and_v,
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
    cleaving_gamma_walked,
    colinear_section_mu,
    crossed_product_loop,
    drinfeld_double_mult_loop,
    grouplikes_sweep,
    hexagon_products_t3,
    hopf_algebra_maps_all_pairs,
    ideal_closure_rounds,
    is_hopf_morphism_exhaustive,
    is_normal_all_basis,
    light_associativity_dense,
    normal_subgroups_from_primitive_pairs,
    normal_subgroups_sweep,
    projection_to_group_algebra,
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
SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def _mult_mutants(H):
    """H with one added to one structure constant of mult, every cell in
    turn."""
    F = H.field
    one = F.one()
    for i, j, k in itertools.product(range(H.dim), repeat=3):
        cells = [{b: dict(cell) for b, cell in row.items()} for row in H.cells]
        cell = v_axpy(F, cells[i].setdefault(j, {}), one, {k: one})
        if not cell:
            del cells[i][j]
        yield HopfAlgebra(F, H.labels, cells, H.unit, H.comult, H.counit, H.antipode)


def _mutants(H):
    """H with one added to one structure constant: every cell of mult, then
    every cell of comult."""
    F = H.field
    one = F.one()
    yield from _mult_mutants(H)
    for i, j, k in itertools.product(range(H.dim), repeat=3):
        comult = {key: dict(t) for key, t in H.comult.items()}
        v_axpy(F, comult[i], one, {(j, k): one})
        yield HopfAlgebra(F, H.labels, H.cells, H.unit, comult, H.counit, H.antipode)


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
    """The (i, a, k), a in H.certified_generators, where every cell of both
    sides of Light's test is empty."""
    cells, n, gens = H.cells, H.dim, H.certified_generators
    return sum(
        not cells[j].get(k) and not any(cells[l].get(k) for l in cells[i].get(j, {}))
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
        oracle = light_associativity_dense(M, M.certified_generators)
        assert (ok, wit) == oracle
        rejected += not oracle[0]
    assert rejected > 0


@pytest.mark.parametrize("name", ["DZ2-Q", "DZ3-GF2"])
def test_light_test_skips_on_constant_group_doubles(name):
    """D(G) of a constant group is monomial: most triples of Light's test
    have only empty cells, so the restricted loop skips them."""
    H = LIGHT[name]()
    assert 0 < _skipped_triples(H) < H.dim**2 * len(H.certified_generators)


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
    gens = D.certified_generators
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
    R = dd.qt.R
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
    D, R = dd.D, dd.qt.R
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


def _no_one_sided_products(monkeypatch):
    monkeypatch.setattr(schemedouble.quotients, "_one_sided_closure", lambda G, ech: ech)
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
    (_ga2_triple, _no_one_sided_products),
    (_ga2_pair, _fewer_coinvariants),
], ids=["ga2-GF3", "A4-GF5", "ga2-GF3-fallback", "ga2-pair-GF3-too-few-generators"])
def test_ideal_closure_worklist_equals_rounds(make, patch, monkeypatch):
    """The ideals theta_kernel_matches_ideal closes: the one-sided closure
    of its generators, and the whole-basis closure in the D(G) table it
    falls back to, are the round-based closure of the generators under the
    whole basis, and its answer is the exhaustive one (the round-based
    ideal compared with ker theta).  Without one-sided products the
    whole-basis phase still certifies the kernel; with too few generators
    their ideal falls short of ker theta, the whole-basis phase runs, and
    both answers are False."""
    one_sided, whole = [], []
    real_one = schemedouble.quotients._one_sided_closure
    real_whole = schemedouble.quotients.ideal_closure

    def recording_one(G, ech):
        generated = ech.copy()
        one_sided.append((generated, real_one(G, ech).copy()))
        return ech

    def recording_whole(H, ech):
        whole.append((H, ech.copy()))
        return real_whole(H, ech)

    monkeypatch.setattr(schemedouble.quotients, "_one_sided_closure", recording_one)
    monkeypatch.setattr(schemedouble.quotients, "ideal_closure", recording_whole)
    expected = patch(monkeypatch) if patch else True
    qp = build_quotient(make())
    assert theta_kernel_matches_ideal(qp) is expected
    assert len(whole) == (patch is not None)
    D = drinfeld_double(qp.triple.G).D
    generated = one_sided[0][0] if one_sided else whole[0][1]
    ideal = ideal_closure_rounds(D, generated.copy())
    kernel = mat_kernel(D.field, qp.theta_mat, D.dim)
    assert (ideal.key() == kernel.key()) is expected
    for _, closed in one_sided:
        assert closed.key() == ideal.key()
    for H, ech in whole:
        assert real_whole(H, ech.copy()).key() == ideal.key()


def _perturbed_maps(f):
    """f with one added to one matrix entry, for every entry, zero entries
    included."""
    F = f.target.field
    for col, row in itertools.product(range(f.source.dim), range(f.target.dim)):
        mat = {j: dict(c) for j, c in f.mat.items()}
        v_axpy(F, mat.setdefault(col, {}), F.one(), {row: F.one()})
        yield LinMap(f.source, f.target, mat)


def _s3_a3_triple():
    return _load_triple(argparse.Namespace(triple=str(SAMPLES / "s3_a3_triple.json"),
                                           field="p7"))


def _recombined_maps(qp):
    """Maps out of D(G) recombined from the restriction f of theta to
    O(G)^cop, the restriction g to k[G] and the counits, so that both of
    their restrictions are Hopf maps: f(b) eps(u), which breaks the
    straightening relation where u ->> (-) moves the image of f;
    f(S(u) ->> b), which keeps it but breaks theta(b |><| u) = f(b) eps(u)
    there; and eps(b) g(u), a Hopf map."""
    G = qp.triple.G
    F, n = G.field, G.order
    O, kg = G.coordinate_algebra, G.group_algebra
    dd = drinfeld_double(G)
    f = {a: mat_apply(F, qp.theta_mat, col) for a, col in dd.embed_O_mat.items()}
    g = {i: mat_apply(F, qp.theta_mat, col) for i, col in dd.embed_kG_mat.items()}
    moved = {}
    for c in range(n):
        for w in range(n):
            s_w = {}
            for s, cs in kg.antipode.get(w, {}).items():
                v_axpy(F, s_w, cs, G.coadjoint[s].get(c, {}))
            moved[dd.index(c, w)] = mat_apply(F, f, s_w)
    for mat in ({dd.index(a, i): v_scale(F, e, f.get(a, {}))
                 for a in range(n) for i, e in kg.counit.items()},
                moved,
                {dd.index(a, i): v_scale(F, e, g.get(i, {}))
                 for a, e in O.counit.items() for i in range(n)}):
        yield LinMap(dd.D, qp.D, mat)


@pytest.mark.parametrize("make, recombined", [
    (_ga2_triple, [True, True, True]),
    (_s3_a3_triple, [False, False, True]),
], ids=["theta-ga2-GF3-B1", "theta-s3-a3-GF7"])
def test_theta_certificate_agrees_with_the_sweep(make, recombined):
    """On theta, on every single-entry perturbation of its matrix (729 on
    ga2/GF(3), 216 on S3/GF(7)) and on the three maps of
    ``_recombined_maps``, the universal-property certificate gives the
    verdict of the exhaustive morphism check on the D(G) table.  Some
    perturbations are rejected; of the recombined maps, those that need
    the straightening relation or the factorization are rejected on S3,
    where the coadjoint action moves O(A3), and accepted on the
    commutative ga_kernel(2)."""
    qp = build_quotient(make())
    dd = drinfeld_double(qp.triple.G)
    theta = qp.theta
    assert is_hopf_map_from_double(dd, qp.D, qp.theta_mat) == (True, "")
    assert is_hopf_morphism_exhaustive(theta) == (True, "")
    verdicts = []
    for g in itertools.chain(_perturbed_maps(theta), _recombined_maps(qp)):
        verdict = is_hopf_map_from_double(dd, qp.D, g.mat)[0]
        assert verdict == is_hopf_morphism_exhaustive(g)[0]
        verdicts.append(verdict)
    assert not all(verdicts[:-3]) and verdicts[-3:] == recombined


@pytest.mark.parametrize("make", [
    lambda: projection_to_group_algebra(make_s3(F3)),
], ids=["proj_kG-D(S3)-GF3"])
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


KERNEL_LATTICES = {
    "S3-GF7": lambda: make_s3(F7),
    "S3-GF2": lambda: make_s3(F2),
    "S3-GF3": lambda: make_s3(F3),
    "ga2-GF3": lambda: ga_kernel(2, F3),
    "D4-GF3": lambda: constant_group(*permutation_table(D4_GENS), F3, name="D4"),
    "Z2xmu2-GF2": lambda: direct_product(make_z2(F2), mu_p_kernel(F2)),
    "Borel-GF3": lambda: make_borel(F3),
    "A4-GF5": lambda: constant_group(*permutation_table(A4_GENS), F5, name="A4"),
    "Z2-Q": lambda: make_z2(QQ),
}


@pytest.mark.parametrize("make", KERNEL_LATTICES.values(), ids=KERNEL_LATTICES.keys())
def test_one_sided_closure_reaches_the_kernel_of_theta(make, monkeypatch):
    """On every node of these lattices the one-sided closure of the kernel
    generators is ker theta, so no node needs the whole-basis fallback."""
    closed = []
    real = schemedouble.quotients._one_sided_closure
    monkeypatch.setattr(schemedouble.quotients, "_one_sided_closure",
                        lambda G, ech: closed.append(real(G, ech)) or ech)
    nodes, _ = enumerate_triples(make())
    for node in nodes:
        qp = build_quotient(node.triple)
        assert theta_kernel_matches_ideal(qp)
        N = node.triple.G.order ** 2
        assert closed.pop().key() == mat_kernel(qp.D.field, qp.theta_mat, N).key()
    assert closed == []


def _frobenius_kernels(G):
    return [ga_frobenius_subgroup(G, s) for s in range(G.payload["r"] + 1)]


MAP_SEARCH_SUBGROUPS = {
    "S3-GF7": lambda: normal_subgroups(make_s3(F7)),
    "S3-Q": lambda: normal_subgroups(make_s3(QQ)),
    "A4-GF5": lambda: normal_subgroups(constant_group(*permutation_table(A4_GENS), F5)),
    "D4-GF3": lambda: normal_subgroups(constant_group(*permutation_table(D4_GENS), F3)),
    "Borel-GF3": lambda: normal_subgroups(make_borel(F3)),
    "mu3": lambda: normal_subgroups(mu_p_kernel(F3)),
    "Ga1xmu3-GF3": lambda: normal_subgroups(direct_product(ga_kernel(1, F3), mu_p_kernel(F3))),
    "Ga1xGa1-GF3": lambda: normal_subgroups(direct_product(ga_kernel(1, F3), ga_kernel(1, F3))),
    "ga2-GF3": lambda: _frobenius_kernels(ga_kernel(2, F3)),
    "ga4-GF2": lambda: _frobenius_kernels(ga_kernel(4, F2)),
    "Ga2xmu2-GF2": lambda: normal_subgroups(direct_product(ga_kernel(2, F2), mu_p_kernel(F2))),
}


def _maps_or_error(search, A, C):
    try:
        return search(A, C)
    except SchemeDoubleError as exc:
        return type(exc), str(exc)


def _transposed_keys(maps):
    return sorted((mat_key(mat_transpose(f.mat)) for f in maps), key=str)


def _dual_search_keys(K, H):
    """The keys of the Hopf maps k[K] -> O(H), sorted as ``_transposed_keys``."""
    return sorted((f.key() for f in hopf_algebra_maps(K.own.group_algebra,
                                                      H.own.coordinate_algebra)), key=str)


@pytest.mark.parametrize("name", list(MAP_SEARCH_SUBGROUPS))
def test_hopf_algebra_maps_equal_the_all_pairs_search(name):
    """On every ordered pair (K, H) of the subgroups, every map that
    hopf_algebra_maps k[H] -> O(K) returns passes is_hopf_morphism, and
    they are the maps the search with a primitive step kind, the all-pairs
    product closure and a per-map is_hopf_morphism finds, in the same
    order.  Only on Ga_2 x mu_2 does that oracle refuse a source (its chain
    of basis vectors stops short); there the maps are checked against the
    transpose identity of ``test_hopf_algebra_maps_commute_with_transpose``."""
    subs = MAP_SEARCH_SUBGROUPS[name]()
    refused = 0
    for K, H in itertools.product(subs, repeat=2):
        A, C = H.own.group_algebra, K.own.coordinate_algebra
        mine = hopf_algebra_maps(A, C)
        assert all(is_hopf_morphism(f) == (True, "") for f in mine)
        oracle = _maps_or_error(hopf_algebra_maps_all_pairs, A, C)
        if isinstance(oracle, tuple):
            refused += 1
            assert _transposed_keys(mine) == _dual_search_keys(K, H)
            continue
        assert [f.key() for f in mine] == [f.key() for f in oracle]
    assert (refused > 0) == (name == "Ga2xmu2-GF2")


NORMALITY_GROUPS = {
    "S3-GF7": lambda: make_s3(F7),
    "A4-GF5": lambda: constant_group(*permutation_table(A4_GENS), F5),
    "D4-GF3": lambda: constant_group(*permutation_table(D4_GENS), F3),
    "ga4-GF2": lambda: ga_kernel(4, F2),
    "Ga1xGa1-GF3": lambda: direct_product(ga_kernel(1, F3), ga_kernel(1, F3)),
    "Ga2xmu2-GF2": lambda: direct_product(ga_kernel(2, F2), mu_p_kernel(F2)),
}


@pytest.mark.parametrize("name", list(NORMALITY_GROUPS))
def test_is_normal_on_the_generators_equals_the_basis_sweep(name):
    """is_normal tests ad_l(u) for u in the certified generators of k[G]
    only.  On every subgroup the search builds, normal or not, its verdict
    is that of the sweep over every basis vector u; the non-commutative
    groups have subgroups that are not normal."""
    G = NORMALITY_GROUPS[name]()
    normal_subgroups(G)
    subs = list(G.subgroups.values())
    verdicts = [is_normal(L) for L in subs]
    assert verdicts == [is_normal_all_basis(L) for L in subs]
    assert all(verdicts) == G.group_algebra.is_commutative


@pytest.mark.parametrize("make, count", [
    (lambda: direct_product(ga_kernel(2, F2), mu_p_kernel(F2)), 52),
    (lambda: direct_product(ga_kernel(1, F3), mu_p_kernel(F3)), 24),
], ids=["Ga2xmu2-GF2", "Ga1xmu3-GF3"])
def test_hopf_algebra_maps_commute_with_transpose(make, count):
    """O(K) is dual_hopf(k[K]) in the dual basis, so B -> B^T sends the
    Hopf maps k[H] -> O(K) one to one onto the Hopf maps k[K] -> O(H): on
    every pair (K, H) of normal subgroups the transposed matrices of the
    one search are the matrices of the other, count maps in all."""
    subs = normal_subgroups(make())
    found = 0
    for K, H in itertools.product(subs, repeat=2):
        maps = hopf_algebra_maps(H.own.group_algebra, K.own.coordinate_algebra)
        assert _transposed_keys(maps) == _dual_search_keys(K, H)
        found += len(maps)
    assert found == count


def test_hopf_algebra_maps_refuse_a_source_that_is_not_pointed():
    """k[mu_3] = O(Z3) over GF(2) is, as a coalgebra, the dual of
    k[Z3] = GF(2) x GF(4): cosemisimple with the one grouplike 1, so W_S
    = S = k 1 and the source chain stops short of k[mu_3]."""
    mu3 = GroupScheme(make_z3(F2).coordinate_algebra)
    with pytest.raises(BudgetExceeded, match="source algebra is not pointed"):
        hopf_algebra_maps(mu3.group_algebra, mu3.coordinate_algebra)


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
    cells = drinfeld_double(G).D.cells
    expected = drinfeld_double_mult_loop(G)
    assert [(i, j) for i, row in enumerate(cells) for j in row] == list(expected)
    assert all(list(cells[i][j].items()) == list(cell.items())
               for (i, j), cell in expected.items())


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
        assert {(i, j): c for i, row in enumerate(qp.D.cells) for j, c in row.items()} == mult
        assert qp.D.comult == comult
        assert verify_hopf(qp.D).ok
        assert qp.D.antipode == convolution_inverse(identity_map(qp.D)).mat


def test_double_keeps_one_dict_per_distinct_cell():
    """D(ga_kernel(4))/GF(2) has 11,016 non-empty cells of 256 distinct
    values, and crossed_product keeps one dict per value."""
    D = drinfeld_double(ga_kernel(4, F2)).D
    cells = [cell for row in D.cells for cell in row.values()]
    assert len(cells) == 11016
    assert len({id(cell) for cell in cells}) == len(
        {frozenset(cell.items()) for cell in cells}) == 256


def test_shared_cells_are_left_unchanged():
    """Building a quotient pair, its theta, its (R, V) and its kernel check,
    and verifying D(G), leave every cell of D(G) as it was: a shared cell
    changed in place would change every product that reads it."""
    triple = _ga2_triple()
    D = drinfeld_double(triple.G).D
    assert len({id(c) for row in D.cells for c in row.values()}) < sum(map(len, D.cells))
    before = copy.deepcopy(D.cells)
    qp = build_quotient(triple)
    assert qp.theta.rank() == qp.D.dim
    quotient_r_and_v(qp)
    assert theta_kernel_matches_ideal(qp)
    assert verify_hopf(D).ok
    assert D.cells == before


@pytest.mark.parametrize("make", [
    lambda: make_s3(F3).group_algebra,
    lambda: make_s3(F3).coordinate_algebra,
    lambda: drinfeld_double(make_s3(F7)).D,
    lambda: _sigma_twisted_pairs(
        constant_group(*permutation_table(D4_GENS), F3, name="D4"))[-1].D,
], ids=["kS3", "OS3", "DS3-GF7", "D4-GF3-sigma"])
def test_mult_reads_the_rows_by_pairs(make):
    """H.mult agrees with the rows on get, [], len, in and items, and on
    the empty cells too."""
    H = make()
    pairs = {(i, j): cell for i, row in enumerate(H.cells) for j, cell in row.items()}
    assert len(H.mult) == len(pairs) and dict(H.mult.items()) == pairs
    assert list(H.mult) == list(pairs) and H.mult == pairs
    for i, j in itertools.product(range(H.dim), repeat=2):
        cell = H.cells[i].get(j)
        assert H.mult.get((i, j)) is cell and ((i, j) in H.mult) == (cell is not None)
        if cell is None:
            with pytest.raises(KeyError):
                H.mult[(i, j)]
        else:
            assert H.mult[(i, j)] is cell
    assert (H.dim, 0) not in H.mult and (-1, 0) not in H.mult


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
    return (H.labels, H.cells, H.unit, H.comult, H.counit, H.antipode, H.name)


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
    """normal_subgroups, extending each subgroup found by one grouplike or
    defect vector at a time and building each span once, finds the same
    normal subgroups, with the same names and structure, as the closures of
    every generator subset (constant groups) or of every 0/1 sum (the
    connected groups here, where that sweep is complete)."""
    G = make()
    mine, oracle = normal_subgroups(G), normal_subgroups_sweep(G)
    assert [s.key() for s in mine] == [s.key() for s in oracle]
    for a, b in zip(mine, oracle):
        assert a.own.name == b.own.name
        assert _structure(a.own.group_algebra) == _structure(b.own.group_algebra)


@pytest.mark.parametrize("make", [
    lambda: direct_product(ga_kernel(1, F3), ga_kernel(1, F3)),
    lambda: direct_product(ga_kernel(1, F3), mu_p_kernel(F3)),
    lambda: direct_product(mu_p_kernel(F3), mu_p_kernel(F3)),
    lambda: make_borel(F3),
], ids=["Ga1xGa1-GF3", "Ga1xmu3-GF3", "mu3xmu3-GF3", "Borel-GF3"])
def test_normal_subgroups_equals_the_primitive_pairs(make):
    """On height-one groups with a Lie algebra of dimension 2, where the
    0/1 sweep misses subgroups, normal_subgroups finds the same normal
    subgroups, with the same names and structure, as the closures of every
    primitive vector and of every pair of them."""
    G = make()
    mine, oracle = normal_subgroups(G), normal_subgroups_from_primitive_pairs(G)
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
    """The colinear section and cleaving_gamma, which read their closed-form
    candidates off the span, give the same mu, mu^-1, gamma and gamma^-1 as
    the candidates chosen by how the subgroup was built, on every subgroup
    (every normal one for the cleaving)."""
    G = SPAN_RULE_GROUPS[name]()
    cases = _tagged_subgroups(G)
    assert len(cases) >= 2
    for L, tag in cases:
        mine, oracle = colinear_section_mu(L), section_mu_by_tag(L, tag)
        assert (mine[0].mat, mine[1].mat) == (oracle[0].mat, oracle[1].mat)
        if L.is_normal:
            mine, oracle = cleaving_gamma(G, L), cleaving_gamma_by_tag(G, L, tag)
            assert ((mine.gamma.mat, mine.gamma_inv.mat)
                    == (oracle.gamma.mat, oracle.gamma_inv.mat))


@pytest.mark.parametrize("name", list(SPAN_RULE_GROUPS))
def test_section_read_off_the_pivots_gives_the_star_of_the_colinear_section(
        name, monkeypatch):
    """section_mu solves nothing (solve_rows and convolution_inverse raise),
    q_L o mu = id on every subgroup, and on every normal K the measuring
    action u * a = q_K(u ->> mu(a)) through it equals the one through the
    colinear, convolution-invertible oracle section, for every basis u of
    k[G] and a of O(K)."""
    G = SPAN_RULE_GROUPS[name]()
    F = G.field
    subgroups = [L for L, _ in _tagged_subgroups(G)]
    normal = [K for K in subgroups if K.is_normal]
    oracles = [colinear_section_mu(K)[0] for K in normal]

    def no_solving(*args, **kwargs):
        raise AssertionError("section_mu solved a system")

    for module in (schemedouble.groupschemes, schemedouble.hopf, schemedouble.linalg):
        for fn in ("solve_rows", "convolution_inverse"):
            if hasattr(module, fn):
                monkeypatch.setattr(module, fn, no_solving)
    mus = {L: section_mu(L) for L in subgroups}
    monkeypatch.undo()
    for L, mu in mus.items():
        assert mat_compose(F, L.q.mat, mu.mat) == mat_identity(L.order, F)
    coad = G.coadjoint

    def star(K, mu, i, a):
        return K.q.apply(mat_apply(F, coad[i], mu.apply(unit_vec(a, F))))

    assert normal
    for K, oracle in zip(normal, oracles):
        for i in range(G.order):
            for a in range(K.order):
                assert star(K, mus[K], i, a) == star(K, oracle, i, a)


@pytest.mark.parametrize("name", ["S3-GF7-seed0", "A4-GF5-seed1", "Ga1xGa1-GF3"])
def test_o_g_mod_k_generates_the_kernel_of_q_k(name):
    """k[K]^perp = O(G) O(G/K)^+ for every normal K, the fact that puts the
    difference of two sections inside the ideal of theta_kernel_matches_ideal
    (``section_mu``)."""
    G = SPAN_RULE_GROUPS[name]()
    F, O = G.field, G.coordinate_algebra
    for K, _ in _tagged_subgroups(G):
        if K.is_normal:
            ideal = span(F, G.order, [O.product(c, unit_vec(j, F))
                                       for c in augmentation(
                                           O, coinvariant_subspace(G, K).basis())
                                       for j in range(G.order)])
            assert ideal.key() == mat_kernel(F, K.q.mat, G.order).key()


# Groups whose first solved section point has no convolution inverse, so
# that the walked search had to go past it.
POINTED_PRODUCTS = {
    "Z2xmu2-GF2": lambda: direct_product(make_z2(F2), mu_p_kernel(F2)),
    "mu2xZ2-GF2": lambda: direct_product(mu_p_kernel(F2), make_z2(F2)),
    "Z3xmu3-GF3": lambda: direct_product(make_z3(F3), mu_p_kernel(F3)),
}


def _normal_subgroups_of(name):
    if name in POINTED_PRODUCTS:
        G = POINTED_PRODUCTS[name]()
        return G, normal_subgroups(G)
    G = SPAN_RULE_GROUPS[name]()
    return G, [L for L, _ in _tagged_subgroups(G) if L.is_normal]


@pytest.mark.parametrize("name", list(SPAN_RULE_GROUPS) + list(POINTED_PRODUCTS))
def test_cleaving_equals_the_walked_section(name):
    """cleaving_gamma, which sends the unit class to 1 and else solves once
    with its grouplike lifts fixed, gives the same gamma and gamma^-1 as the
    closed form from the first basis preimages and the walk over the solved
    section system, on every normal subgroup."""
    G, normal = _normal_subgroups_of(name)
    assert normal
    for H in normal:
        mine, oracle = cleaving_gamma(G, H), cleaving_gamma_walked(G, H)
        assert ((mine.gamma.mat, mine.gamma_inv.mat)
                == (oracle.gamma.mat, oracle.gamma_inv.mat))


def test_grouplike_lifts_make_the_solved_section_invertible(monkeypatch):
    """On Z2 x mu2 over GF(2) modulo the mu2 factor, the particular solution
    of the plain section system has no convolution inverse, while
    cleaving_gamma solves once, with gamma(pi(g)) = g on the grouplikes,
    and returns a colinear section with its convolution inverse."""
    G = POINTED_PRODUCTS["Z2xmu2-GF2"]()
    F = G.field
    H = subgroup_from_generators(G, [unit_vec(0, F)])
    assert H.order == 2 and H.is_normal
    quotient = quotient_by_normal(G, H)
    Q, kg, n = quotient.hopf, G.group_algebra, quotient.hopf.dim
    part, _ = solve_rows(F, _colinear_section_equations(F, Q, kg, quotient.pi.mat),
                         kg.dim * n)
    plain: dict = {}
    for key, c in part.items():
        plain.setdefault(key % n, {})[key // n] = c
    plain = LinMap(Q, kg, plain)
    assert _colinear_section_ok(plain, quotient.pi)
    with pytest.raises(NotInvertible):
        convolution_inverse(plain)

    calls = []
    real = schemedouble.groupschemes.solve_rows
    monkeypatch.setattr(schemedouble.groupschemes, "solve_rows",
                        lambda *a: calls.append(1) or real(*a))
    cl = cleaving_gamma(G, H)
    assert len(calls) == 1
    assert _colinear_section_ok(cl.gamma, cl.quotient.pi)
    assert convolution(cl.gamma, cl.gamma_inv).mat == convolution_unit(Q, kg).mat
    for g in kg.grouplikes:  # gamma sends the grouplikes pi(g) to grouplikes
        x = cl.gamma.apply(quotient.pi.apply(g))
        assert kg.coproduct(x) == t2_outer(F, x, x) and kg.counit_of(x) == F.one()


def test_cleaving_solves_two_systems_over_the_span_rule_groups(monkeypatch):
    """cleaving_gamma calls solve_rows on none of the normal subgroups of a
    constant group of SPAN_RULE_GROUPS and on 2 of all 72: the closed form
    sends the unit class to 1."""
    calls = []
    real = schemedouble.groupschemes.solve_rows
    monkeypatch.setattr(schemedouble.groupschemes, "solve_rows",
                        lambda *a: calls.append(1) or real(*a))
    solves = {}
    count = 0
    for name in SPAN_RULE_GROUPS:
        G, normal = _normal_subgroups_of(name)
        before = len(calls)
        for H in normal:
            cleaving_gamma(G, H)
        count += len(normal)
        solves[name] = (G.kind, len(calls) - before)
    assert count == 72
    assert all(n == 0 for kind, n in solves.values() if kind == "constant")
    assert sum(n for _, n in solves.values()) == 2


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
    assert verify_hopf(D).ok and len(D.certified_generators) < D.dim
    qt = dd.qt
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
    return HopfAlgebra(H.field, [label] * H.dim, H.cells, H.unit, H.comult, H.counit,
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
    assert len(G.group_algebra.certified_generators) < G.order
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
