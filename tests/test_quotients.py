import contextlib
import functools
import io
import json

import pytest

import schemedouble.groupschemes
from schemedouble.cli import main
from schemedouble.errors import DimensionMismatch, InvalidTriple, NoFactorization
from schemedouble.fields import QQ, make_field
from schemedouble.appendix import b_lambda
from schemedouble.doubles import drinfeld_double
from schemedouble.groupschemes import (
    GroupScheme,
    cleaving_gamma,
    full_subgroup,
    ga_frobenius_subgroup,
    ga_kernel,
    subgroup_from_generators,
    trivial_subgroup,
)
from schemedouble.hopf import LinMap, is_hopf_morphism, t2_outer, verify_hopf
from schemedouble.lattice import enumerate_triples
from schemedouble.linalg import unit_vec, v_axpy
from schemedouble.quotients import (
    Triple,
    build_quotient,
    build_sigma,
    build_tau,
    dot_action,
    quotient_r_and_v,
    recognize_triple,
    theta_kernel_matches_ideal,
    to_own_coords,
    trivial_hopf_map,
)

from conftest import A4_GENS, make_borel, make_s3, make_z2, permutation_table
from oracles import (
    induced_surjection,
    induced_surjection_by_kernel,
    projection_to_group_algebra,
)

F2 = make_field("prime", p=2)
F3 = make_field("prime", p=3)
F5 = make_field("prime", p=5)
F7 = make_field("prime", p=7)


def ga2_triple(F, lam):
    G = ga_kernel(2, F)
    A = ga_frobenius_subgroup(G, 1)
    B = b_lambda(A, A, F.from_int(lam))
    return Triple(G, A, A, B)


# -- actions ----------------------------------------------------------------

def test_star_action_trivial_for_commutative_ambient():
    t = ga2_triple(F3, 1)
    G = t.G
    for i in range(G.order):
        eps = G.group_algebra.counit.get(i, F3.zero())
        for b in range(t.K.order):
            out = t.star(unit_vec(i, F3), unit_vec(b, F3))
            expect = {b: eps} if eps != F3.zero() else {}
            assert out == expect


def test_star_action_conjugates_delta_functions():
    S3 = make_s3(F7)
    A3 = subgroup_from_generators(S3, [unit_vec(4, F7)])
    t = Triple(S3, A3, A3, trivial_hopf_map(A3, A3))
    # (12) * delta_{(123)} = delta_{(132)}: conjugation permutes the class
    d123 = to_own_coords(A3, unit_vec(4, F7))
    out = t.star(unit_vec(1, F7), d123)
    assert out == to_own_coords(A3, unit_vec(5, F7))


def test_unit_acts_trivially():
    t = ga2_triple(F2, 1)
    cl = cleaving_gamma(t.G, t.H)
    Q = cl.quotient.hopf
    for b in range(t.K.order):
        assert t.star(t.G.group_algebra.unit, unit_vec(b, F2)) == unit_vec(b, F2)
        assert dot_action(t, cl, Q.unit, unit_vec(b, F2)) == unit_vec(b, F2)


def test_measuring_laws():
    """x.(y.a) = (xy).a, x.1 = eps(x), x.(a b) = (x_1.a)(x_2.b)."""
    S3 = make_s3(F7)
    A3 = subgroup_from_generators(S3, [unit_vec(4, F7)])
    t = Triple(S3, A3, A3, trivial_hopf_map(A3, A3))
    cl = cleaving_gamma(S3, A3)
    Q = cl.quotient.hopf
    OK = A3.own.coordinate_algebra
    for r in range(Q.dim):
        x = unit_vec(r, F7)
        for b in range(OK.dim):
            a = unit_vec(b, F7)
            for s in range(Q.dim):
                lhs = dot_action(t, cl, x, dot_action(t, cl, unit_vec(s, F7), a))
                rhs = dot_action(t, cl, Q.product(x, unit_vec(s, F7)), a)
                assert lhs == rhs
        eps = Q.counit.get(r, F7.zero())
        expect = {k: F7.mul(eps, c) for k, c in OK.unit.items()} if eps != F7.zero() else {}
        assert dot_action(t, cl, x, OK.unit) == expect
        for b1 in range(OK.dim):
            for b2 in range(OK.dim):
                prod = OK.product(unit_vec(b1, F7), unit_vec(b2, F7))
                lhs = dot_action(t, cl, x, prod)
                rhs = {}
                for (x1, x2), c in Q.comult[r].items():
                    term = OK.product(
                        dot_action(t, cl, unit_vec(x1, F7), unit_vec(b1, F7)),
                        dot_action(t, cl, unit_vec(x2, F7), unit_vec(b2, F7)))
                    v_axpy(F7, rhs, c, term)
                assert lhs == rhs


# -- sigma and tau -----------------------------------------------------------

def test_trivial_b_gives_trivial_sigma_tau():
    G = ga_kernel(2, F3)
    A = ga_frobenius_subgroup(G, 1)
    cl = cleaving_gamma(G, A)
    t = Triple(G, A, A, trivial_hopf_map(A, A))
    sigma = build_sigma(t, cl)
    tau = build_tau(t, cl)
    Q = cl.quotient.hopf
    OK = A.own.coordinate_algebra
    for r in range(Q.dim):
        for s in range(Q.dim):
            e = F3.mul(Q.counit.get(r, F3.zero()), Q.counit.get(s, F3.zero()))
            expect = {k: F3.mul(e, c) for k, c in OK.unit.items()} if e != F3.zero() else {}
            assert sigma.get((r, s), {}) == expect
        eps = Q.counit.get(r, F3.zero())
        expect = {}
        if eps != F3.zero():
            v_axpy(F3, expect, eps, t2_outer(F3, OK.unit, OK.unit))
        assert tau[r] == expect


@pytest.mark.parametrize("p,F", [(2, F2), (3, F3), (5, F5)])
def test_tau_on_frobenius_tower_matches_formula(p, F):
    """tau(d_0) = 1 (x) 1, tau(d_1) = sum_j lambda^p/(j!(p-j)!) t^j (x) t^{p-j},
    tau(d_n) = 0 for 2 <= n < p, all computed against integer arithmetic."""
    import math
    for lam in range(p):
        t = ga2_triple(F, lam)
        cl = cleaving_gamma(t.G, t.H)
        tau = build_tau(t, cl)
        OK = t.K.own.coordinate_algebra
        assert tau[0] == t2_outer(F, OK.unit, OK.unit)
        expect = {}
        for j in range(1, p):
            num = pow(lam, p, p)
            den = (math.factorial(j) * math.factorial(p - j)) % p
            c = (num * pow(den, -1, p)) % p if den else 0
            if c:
                expect[(j, p - j)] = F.from_int(c)
        assert tau[1] == expect
        for n in range(2, p):
            assert tau[n] == {}


@pytest.mark.parametrize("p,F", [(2, F2), (3, F3), (5, F5)])
def test_sigma_trivial_on_frobenius_tower(p, F):
    t = ga2_triple(F, 1)
    cl = cleaving_gamma(t.G, t.H)
    sigma = build_sigma(t, cl)
    Q = cl.quotient.hopf
    OK = t.K.own.coordinate_algebra
    for (r, s), val in sigma.items():
        e = F.mul(Q.counit.get(r, F.zero()), Q.counit.get(s, F.zero()))
        expect = {k: F.mul(e, c) for k, c in OK.unit.items()} if e != F.zero() else {}
        assert val == expect


def test_newlemma_identities():
    """sigma(pi(u), pi(ut)) = B(eta(gamma(pi(u)) gamma(pi(ut)))) and the
    tau(pi(u)) expansion through eta and its inverse."""
    t = ga2_triple(F3, 2)
    G = t.G
    kg = G.group_algebra
    cl = cleaving_gamma(G, t.H)
    Q = cl.quotient.hopf
    sigma = build_sigma(t, cl)
    tau = build_tau(t, cl)
    pi = cl.quotient.pi
    for u in range(G.order):
        pu = pi.apply(unit_vec(u, F3))
        for ut in range(G.order):
            put = pi.apply(unit_vec(ut, F3))
            lhs = {}
            for r, cr in pu.items():
                for s, cs in put.items():
                    sig = sigma.get((r, s))
                    if sig:
                        v_axpy(F3, lhs, F3.mul(cr, cs), sig)
            inner = kg.product(cl.gamma.apply(pu), cl.gamma.apply(put))
            rhs = t.B.apply(to_own_coords(t.H, cl.eta.apply(inner)))
            assert lhs == rhs
    for u in range(G.order):
        pu = pi.apply(unit_vec(u, F3))
        lhs = {}
        for r, cr in pu.items():
            v_axpy(F3, lhs, cr, tau[r])
        rhs = {}
        for (u1, u2, u3), c in kg.delta2(unit_vec(u, F3)).items():
            w = cl.eta_inv.apply(unit_vec(u1, F3))
            e2 = cl.eta.apply(unit_vec(u2, F3))
            e3 = cl.eta.apply(unit_vec(u3, F3))
            if not e2 or not e3:
                continue
            for (w1, w2), cw in kg.coproduct(w).items():
                leg1 = kg.product(unit_vec(w1, F3), e2)
                leg2 = kg.product(unit_vec(w2, F3), e3)
                if leg1 and leg2:
                    own1 = t.B.apply(to_own_coords(t.H, leg1))
                    own2 = t.B.apply(to_own_coords(t.H, leg2))
                    if own1 and own2:
                        v_axpy(F3, rhs, F3.mul(c, cw), t2_outer(F3, own1, own2))
        assert lhs == rhs


# -- the quotient Hopf algebra ----------------------------------------------

def test_canonical_identities_structure_constants():
    for G in (make_z2(QQ), ga_kernel(1, F3)):
        dd = drinfeld_double(G)
        one = trivial_subgroup(G)
        full = full_subgroup(G)
        qp = build_quotient(Triple(G, full, one, trivial_hopf_map(one, full)))
        assert qp.D.cells == dd.D.cells
        assert qp.D.comult == dd.D.comult
        assert qp.D.antipode == dd.D.antipode
        qp2 = build_quotient(Triple(G, one, one, trivial_hopf_map(one, one)))
        assert qp2.D.cells == G.group_algebra.cells
        assert qp2.D.comult == G.group_algebra.comult
        qp3 = build_quotient(Triple(G, one, full, trivial_hopf_map(full, one)))
        assert qp3.D.dim == 1


def test_trivial_b_quotient_is_smash_and_tensor_coalgebra():
    S3 = make_s3(F7)
    A3 = subgroup_from_generators(S3, [unit_vec(4, F7)])
    qp = build_quotient(Triple(S3, A3, A3, trivial_hopf_map(A3, A3)))
    OK = A3.own.coordinate_algebra
    Q = qp.quotient.hopf
    # tensor product coalgebra
    for a in range(OK.dim):
        for r in range(Q.dim):
            expect = {}
            for (a1, a2), ca in OK.comult[a].items():
                for (r1, r2), cr in Q.comult[r].items():
                    expect[(qp.index(a2, r1), qp.index(a1, r2))] = F7.mul(ca, cr)
            assert qp.D.comult[qp.index(a, r)] == expect


def test_nontrivial_cococycle_not_tensor_coalgebra():
    """The height-two quotient with nonzero parameter is neither a tensor
    product coalgebra nor (for B with sigma trivial) anything but a smash
    product on the algebra side."""
    t = ga2_triple(F3, 1)
    qp = build_quotient(t)
    OK = t.K.own.coordinate_algebra
    Q = qp.quotient.hopf
    tensor = True
    for a in range(OK.dim):
        for r in range(Q.dim):
            expect = {}
            for (a1, a2), ca in OK.comult[a].items():
                for (r1, r2), cr in Q.comult[r].items():
                    expect[(qp.index(a2, r1), qp.index(a1, r2))] = F3.mul(ca, cr)
            if qp.D.comult[qp.index(a, r)] != expect:
                tensor = False
    assert not tensor
    assert verify_hopf(qp.D).ok


def test_cocommutative_when_k_commutative():
    t = ga2_triple(F3, 1)
    qp = build_quotient(t)
    assert qp.D.is_cocommutative


def test_coordinate_embedding_into_quotient():
    t = ga2_triple(F3, 1)
    qp = build_quotient(t)
    OKcop = t.K.own.coordinate_algebra  # commutative, so cop = itself
    emb = LinMap(OKcop, qp.D,
                 {a: {qp.index(a, r): c for r, c in qp.quotient.hopf.unit.items()}
                  for a in range(OKcop.dim)})
    ok, _ = is_hopf_morphism(emb)
    assert ok
    assert emb.rank() == OKcop.dim


def test_projection_onto_quotient_group_algebra():
    """a # x -> eps(a) x is a Hopf surjection whose kernel is the ideal of the
    coordinate augmentation part."""
    t = ga2_triple(F3, 2)
    qp = build_quotient(t)
    OK = t.K.own.coordinate_algebra
    Q = qp.quotient.hopf
    F = F3
    proj_mat = {}
    for a in range(OK.dim):
        ea = OK.counit.get(a)
        if ea is None:
            continue
        for r in range(Q.dim):
            proj_mat[qp.index(a, r)] = {r: ea}
    proj = LinMap(qp.D, Q, proj_mat)
    ok, _ = is_hopf_morphism(proj)
    assert ok and proj.rank() == Q.dim
    from schemedouble.linalg import Echelon, mat_kernel, v_scale, v_sub
    kernel = mat_kernel(F, proj.mat, qp.D.dim)
    ideal = Echelon(F, qp.D.dim)
    for a in range(OK.dim):
        gen_o = v_sub(F, unit_vec(a, F), v_scale(F, OK.counit.get(a, F.zero()), OK.unit))
        gen = {}
        for o, co in gen_o.items():
            for r, cr in Q.unit.items():
                gen[qp.index(o, r)] = F.mul(co, cr)
        ideal.insert(gen)
    grew = True
    while grew:
        grew = False
        for row in list(ideal.basis()):
            for d in range(qp.D.dim):
                if ideal.insert(qp.D.product(unit_vec(d, F), row)):
                    grew = True
                if ideal.insert(qp.D.product(row, unit_vec(d, F))):
                    grew = True
    assert ideal.key() == kernel.key()


# -- theta -------------------------------------------------------------------

def test_theta_restricts_to_q_and_b():
    t = ga2_triple(F3, 1)
    dd = drinfeld_double(t.G)
    qp = build_quotient(t)
    theta = qp.theta
    # theta(b |><| 1) = q_K(b) # 1
    for a in range(t.G.order):
        img = theta.apply(dd.embed_O.apply(unit_vec(a, F3)))
        q_col = t.K.q.apply(unit_vec(a, F3))
        expect = {}
        for o, co in q_col.items():
            for r, cr in qp.quotient.hopf.unit.items():
                key = qp.index(o, r)
                expect[key] = F3.add(expect.get(key, F3.zero()), F3.mul(co, cr))
        assert img == {k: v for k, v in expect.items() if v != F3.zero()}
    # theta(1 |><| v) = B(v) # 1 for v in k[H]
    for j in range(t.H.order):
        v_amb = t.H.iota.apply(unit_vec(j, F3))
        img = theta.apply(dd.embed_kG.apply(v_amb))
        bval = t.B.apply(unit_vec(j, F3))
        expect = {}
        for o, co in bval.items():
            for r, cr in qp.quotient.hopf.unit.items():
                expect[qp.index(o, r)] = F3.mul(co, cr)
        assert img == expect


def test_theta_rank_for_group_algebra_quotient():
    G = make_z2(QQ)
    one = trivial_subgroup(G)
    qp = build_quotient(Triple(G, one, one, trivial_hopf_map(one, one)))
    theta = qp.theta
    assert theta.rank() == 2


@pytest.mark.parametrize("lam", [0, 1, 2])
def test_kernel_ideal_and_pushforward(lam):
    t = ga2_triple(F3, lam)
    qp = build_quotient(t)
    assert theta_kernel_matches_ideal(qp)
    quotient_r_and_v(qp)  # raises on mismatch


# -- recognition and induced surjections --------------------------------------

def test_recognize_round_trip():
    t = ga2_triple(F3, 2)
    qp = build_quotient(t)
    qp2, phibar = recognize_triple(t.G, qp.theta)
    assert qp2.triple.key() == t.key()


def test_recognize_identity_and_projection():
    G = make_z2(QQ)
    dd = drinfeld_double(G)
    from schemedouble.hopf import identity_map
    qp, _ = recognize_triple(G, identity_map(dd.D))
    assert qp.triple.K.order == 2 and qp.triple.H.order == 1
    qp2, _ = recognize_triple(G, projection_to_group_algebra(G))
    assert qp2.triple.K.order == 1 and qp2.triple.H.order == 1


def test_induced_surjection_cases():
    G = ga_kernel(1, F3)
    one = trivial_subgroup(G)
    full = full_subgroup(G)
    top = build_quotient(Triple(G, full, one, trivial_hopf_map(one, full)))
    bot = build_quotient(Triple(G, one, full, trivial_hopf_map(full, one)))
    mid = build_quotient(Triple(G, full, full, b_lambda(full, full, F3.from_int(1))))
    # self: the identity
    phi = induced_surjection(mid, mid)
    assert phi.mat == {e: {e: F3.one()} for e in range(mid.D.dim)}
    # from the double: literally theta, since D(G,1,1) carries the same
    # structure constants as D(G) on the same index set
    phi2 = induced_surjection(mid, top)
    assert phi2.rank() == mid.D.dim
    assert phi2.mat == mid.theta.mat
    # everything surjects onto the ground field quotient
    phi3 = induced_surjection(bot, mid)
    assert phi3.rank() == 1
    # no factorization the other way: the witness lies in ker(theta') and
    # theta does not kill it
    with pytest.raises(NoFactorization) as exc:
        induced_surjection(mid, bot)
    witness = exc.value.witness
    assert witness is not None
    assert bot.theta.apply(witness) == {}
    assert mid.theta.apply(witness) != {}


def test_induced_surjection_equals_kernel_containment_oracle():
    """On every ordered pair of nodes of Ga_1 over GF(3), induced_surjection
    raises NoFactorization exactly when a vector of ker(theta') is not
    killed by theta, and otherwise returns the map solved column by column
    by the oracle."""
    G = ga_kernel(1, F3)
    nodes, _ = enumerate_triples(G)
    refused = 0
    for a in nodes:
        for b in nodes:
            qa, qb = build_quotient(a.triple), build_quotient(b.triple)
            expect = induced_surjection_by_kernel(qa, qb)
            if expect is None:
                refused += 1
                with pytest.raises(NoFactorization) as exc:
                    induced_surjection(qa, qb)
                assert qb.theta.apply(exc.value.witness) == {}
                assert qa.theta.apply(exc.value.witness) != {}
            else:
                assert induced_surjection(qa, qb).mat == expect.mat
    assert 0 < refused < len(nodes) ** 2


def test_theta_starts_at_the_double_kept_on_g():
    """Every theta, pushforward and recognition on G goes through the one
    D(G) that G keeps; a map out of the equal D(G) of another copy of G is
    refused, and so is a pair of quotient pairs on two copies."""
    t, other = ga2_triple(F3, 1), ga2_triple(F3, 1)
    qp, qp_other = build_quotient(t), build_quotient(other)
    assert qp.theta.source is drinfeld_double(t.G).D
    assert qp_other.theta.source is drinfeld_double(other.G).D is not qp.theta.source
    closed, pushed = quotient_r_and_v(qp)
    assert (pushed.R, pushed.V) == (closed.R, closed.V)
    with pytest.raises(DimensionMismatch):
        recognize_triple(t.G, qp_other.theta)
    with pytest.raises(DimensionMismatch):
        induced_surjection(qp, qp_other)


def test_equivariance_guard_rejects_bad_triples():
    """On the Borel group the nontrivial height-one bicharacters are not
    equivariant at p = 3."""
    G = make_borel(F3)
    y_idx = G.group_algebra.labels.index("y")
    N = subgroup_from_generators(G, [unit_vec(y_idx, F3)])
    B = b_lambda(N, N, F3.from_int(1))
    with pytest.raises(InvalidTriple):
        Triple(G, N, N, B)
    # while at p = 2 the same shape is equivariant
    G2 = make_borel(F2)
    y_idx = G2.group_algebra.labels.index("y")
    N2 = subgroup_from_generators(G2, [unit_vec(y_idx, F2)])
    Triple(G2, N2, N2, b_lambda(N2, N2, F2.from_int(1)))


# -- computed once per object -------------------------------------------------


def _counting(monkeypatch, owner, name):
    """Replace owner.<name>, a function of a module or a cached property of
    a class, by a wrapper that records its argument."""
    seen = []
    real = vars(owner)[name]
    prop = isinstance(real, functools.cached_property)
    func = real.func if prop else real

    def wrapper(arg):
        seen.append(arg)
        return func(arg)

    if prop:
        wrapper = functools.cached_property(wrapper)
        wrapper.__set_name__(owner, name)
    monkeypatch.setattr(owner, name, wrapper)
    return seen


def test_quotient_run_builds_the_coadjoint_matrices_once(tmp_path, monkeypatch):
    """quotient on A4 with K = V4 and H = 1 needs u ->> (-) for Triple.star
    and for D(G): one build, shared."""
    seen = _counting(monkeypatch, GroupScheme, "coadjoint")
    labels, table = permutation_table(A4_GENS)
    v4 = [[{"indices": [labels.index(str(g))], "value": "1"}]
          for g in [(1, 0, 3, 2), (2, 3, 0, 1)]]
    path = tmp_path / "a4.json"
    path.write_text(json.dumps({"group": {"constant": {"elements": labels, "table": table}},
                                "K": {"generators": v4}, "H": "trivial"}))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["quotient", "--triple", str(path), "--field", "q"]) == 0
    assert len(seen) == 1


def test_triple_and_double_share_the_coadjoint_matrices(monkeypatch):
    seen = _counting(monkeypatch, GroupScheme, "coadjoint")
    triple = ga2_triple(F3, 1)
    drinfeld_double(triple.G)
    assert len(seen) == 1


def test_appendix_decides_normality_once_per_subgroup(monkeypatch):
    """appendix --p 5 builds ten triples over two subgroup objects."""
    seen = _counting(monkeypatch, schemedouble.groupschemes, "is_normal")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["appendix", "--p", "5"]) == 0
    assert seen and len({id(L) for L in seen}) == len(seen)


def test_reused_non_normal_subgroup_is_rejected_every_time():
    G = make_s3(F7)
    T = subgroup_from_generators(G, [unit_vec(1, F7)])
    one = trivial_subgroup(G)
    for _ in range(2):
        with pytest.raises(InvalidTriple, match="K is not normal"):
            Triple(G, T, one, trivial_hopf_map(one, T))
    assert not T.is_normal
