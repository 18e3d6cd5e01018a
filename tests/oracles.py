"""Exhaustive reference implementations, kept as test oracles for the
certified checks of the package.

* ``verify_hopf_exhaustive``: every Hopf axiom on every basis tuple
  (associativity on all n^3 triples, the multiplicativity of Delta and eps
  on all n^2 pairs).
* ``light_associativity_dense``: Light's associativity test on every triple
  (e_i, a, e_k) with a in the given generating set, k over the whole basis.
* ``tensor_square_product_pairs``: the product of two Ten2s of H (x) H over
  every pair of their terms.
* ``t3_mul``: the product of two Ten3s of H (x) H (x) H, cell by cell.
* ``hexagon_products_t3``: R13 R23 and R13 R12 with the unit expanded into
  basis vectors, as products of Ten3s.
* ``ideal_closure_rounds``: the two-sided ideal closure that re-sweeps
  every row until a round adds nothing.
* ``is_hopf_morphism_exhaustive``: every morphism law on every basis tuple,
  applying the map to both basis vectors of every pair.
* ``grouplikes_sweep``: the grouplikes of a Hopf algebra with every
  coordinate in a given set of values (default: a finite field F), by
  testing every vector of values^n.
* ``drinfeld_double_mult_loop``: the structure constants of D(G), one
  product of O(G) and one of k[G] per (x, y) term of every basis pair.
* ``crossed_product_loop``: the product and coproduct of a crossed product
  O(K)^cop #_sigma^tau Q, two products in O(K) and one in Q per term of
  Delta^2(x) (x) Delta(y) of every basis pair.
* ``subgroup_closure_rounds``: the span of 1 and the generators closed in
  rounds, each applying the antipode and the coproduct slices to every
  member and multiplying every pair of members, until a round adds
  nothing.
* ``subgroup_from_subspace_verified``: the subgroup scheme on a span, its
  structure extracted and certified by ``verify_hopf_exhaustive`` as well
  as by the inclusion.
* ``quotient_by_hopf_ideal_verified``: H/I certified by
  ``verify_hopf_exhaustive`` as well as by the projection.
* ``normal_subgroups_sweep``: the normal subgroups from the closures of
  every generator subset of size at most log2 |G| (constant groups) or of
  every 0/1 sum of basis vectors (other groups).
* ``section_mu_by_tag`` and ``cleaving_gamma_by_tag``: the section and the
  cleaving with the closed-form candidate chosen by how the subgroup was
  built ("trivial", "full", "ga_standard" or "generic"), as the package
  chose it before reading it off the span.
* ``r_delta_all_basis``, ``v_central_all_basis`` and
  ``ribbon_coproduct_law_with_check``: the rows R Delta = Delta^cop R and
  "V central" on every basis vector, and the ribbon coproduct law with
  (R21 R)(rinv swap(rinv)) = 1 (x) 1 always confirmed.
* ``triple_validate_all_basis``: the checks of ``Triple.validate`` with
  equivariance on every basis vector u of k[G].
* ``field_axpy_loop``: acc += c vec through ``F.add`` and ``F.mul``.
* ``sub_inclusion_reduced``: the inclusion of one subgroup into another,
  each column the coordinates of an inner basis vector found by reducing
  it against the outer span.
* ``hasse_edges_pairwise``: the covers of the containment order from
  ``contains`` on every ordered pair of nodes, each pair (i, j) kept unless
  some k lies between them.
"""

from __future__ import annotations

import itertools

from schemedouble.errors import (
    ClosureNotHopf,
    NoInvertibleSectionFound,
    NoSection,
    VerificationFailure,
)
from schemedouble.groupschemes import (
    GroupScheme,
    SectionData,
    SubgroupScheme,
    _finish_cleaving,
    _invertible_section,
    _sub_connectivity,
    ad_l,
    centralize,
    coadjoint_matrices,
    is_normal,
    quotient_by_normal,
)
from schemedouble.hopf import (
    LinMap,
    VerificationReport,
    induced_hopf,
    is_hopf_morphism,
    t2_contract,
    t2_coordinates,
    t2_map,
    t2_outer,
    t2_swap,
)
from schemedouble.lattice import contains
from schemedouble.linalg import (
    Echelon,
    mat_apply,
    mat_identity,
    span,
    unit_vec,
    v_axpy,
    v_scale,
)


def verify_hopf_exhaustive(H) -> VerificationReport:
    F = H.field
    n = H.dim
    rep = VerificationReport(H.name or f"hopf(dim {n})")
    mult = H.mult

    ok, wit = light_associativity_dense(H, range(n))
    rep.record("associativity", ok, wit)

    ok, wit = True, ""
    for i in range(n):
        e = H.basis_vec(i)
        if H.product(H.unit, e) != e or H.product(e, H.unit) != e:
            ok, wit = False, H.labels[i]
            break
    rep.record("unit law", ok, wit)

    ok, wit = True, ""
    for i in range(n):
        if H.delta_leg(H.comult[i], 0) != H.delta_leg(H.comult[i], 1):
            ok, wit = False, H.labels[i]
            break
    rep.record("coassociativity", ok, wit)

    ok, wit = True, ""
    for i in range(n):
        left, right = t2_contract(F, H.counit, H.comult[i])
        if left != H.basis_vec(i) or right != H.basis_vec(i):
            ok, wit = False, H.labels[i]
            break
    rep.record("counit law", ok, wit)

    ok, wit = True, ""
    for i in range(n):
        if not ok:
            break
        for j in range(n):
            lhs = H.coproduct(mult.get((i, j), {}))
            rhs = tensor_square_product_pairs(H, H.comult[i], H.comult[j])
            if lhs != rhs:
                ok, wit = False, f"({H.labels[i]},{H.labels[j]})"
                break
    rep.record("comultiplication multiplicative", ok, wit)

    ok, wit = True, ""
    for i in range(n):
        if not ok:
            break
        for j in range(n):
            lhs = H.counit_of(mult.get((i, j), {}))
            rhs = F.mul(H.counit.get(i, F.zero()), H.counit.get(j, F.zero()))
            if lhs != rhs:
                ok, wit = False, f"({H.labels[i]},{H.labels[j]})"
                break
    rep.record("counit multiplicative", ok, wit)

    rep.record(
        "comultiplication unital",
        H.coproduct(H.unit) == t2_outer(F, H.unit, H.unit),
    )
    rep.record("counit of unit", H.counit_of(H.unit) == F.one())

    ok, wit = True, ""
    for i in range(n):
        left, right = {}, {}
        for (j, k), c in H.comult[i].items():
            sj = H.antipode.get(j)
            if sj:
                v_axpy(F, left, c, H.product(sj, H.basis_vec(k)))
            sk = H.antipode.get(k)
            if sk:
                v_axpy(F, right, c, H.product(H.basis_vec(j), sk))
        target = v_scale(F, H.counit.get(i, F.zero()), H.unit)
        if left != target or right != target:
            ok, wit = False, H.labels[i]
            break
    rep.record("antipode law", ok, wit)

    rep.flags["commutative"] = H.is_commutative()
    rep.flags["cocommutative"] = H.is_cocommutative()
    rep.flags["involutive"] = H.is_involutive()
    return rep


def light_associativity_dense(H, gens):
    """(ok, witness) of x (a y) = (x a) y over every basis x and y and every
    a = e_j, j in gens; the first failing triple in (i, j, k) order."""
    F = H.field
    n = H.dim
    mult = H.mult
    for i in range(n):
        for j in gens:
            mij = mult.get((i, j), {})
            for k in range(n):
                lhs = {}
                for l, c in mij.items():
                    cell = mult.get((l, k))
                    if cell:
                        v_axpy(F, lhs, c, cell)
                rhs = {}
                for l, c in mult.get((j, k), {}).items():
                    cell = mult.get((i, l))
                    if cell:
                        v_axpy(F, rhs, c, cell)
                if lhs != rhs:
                    return False, f"({H.labels[i]},{H.labels[j]},{H.labels[k]})"
    return True, ""


def tensor_square_product_pairs(H, x, y):
    F = H.field
    mul = F.mul
    mult = H.mult
    out = {}
    zero = F.zero()
    add = F.add
    for (a, b), cx in x.items():
        for (c, d), cy in y.items():
            left = mult.get((a, c))
            if not left:
                continue
            right = mult.get((b, d))
            if not right:
                continue
            coef = mul(cx, cy)
            for l, cl in left.items():
                cc = mul(coef, cl)
                for r, cr in right.items():
                    key = (l, r)
                    s = add(out.get(key, zero), mul(cc, cr))
                    if s == zero:
                        out.pop(key, None)
                    else:
                        out[key] = s
    return out


def t3_mul(H, x, y):
    F = H.field
    out = {}
    zero = F.zero()
    add, mul = F.add, F.mul
    mult = H.mult
    for (a, b, c), cx in x.items():
        for (d, e, f), cy in y.items():
            m1 = mult.get((a, d))
            if not m1:
                continue
            m2 = mult.get((b, e))
            if not m2:
                continue
            m3 = mult.get((c, f))
            if not m3:
                continue
            coef = mul(cx, cy)
            for i, c1 in m1.items():
                ci = mul(coef, c1)
                for j, c2 in m2.items():
                    cj = mul(ci, c2)
                    for k, c3 in m3.items():
                        key = (i, j, k)
                        s = add(out.get(key, zero), mul(cj, c3))
                        if s == zero:
                            out.pop(key, None)
                        else:
                            out[key] = s
    return out


def hexagon_products_t3(H, R):
    F = H.field
    r13, r23, r12 = {}, {}, {}
    for (a, b), c in R.items():
        for u, cu in H.unit.items():
            r13[(a, u, b)] = F.mul(c, cu)
            r23[(u, a, b)] = F.mul(c, cu)
            r12[(a, b, u)] = F.mul(c, cu)
    return t3_mul(H, r13, r23), t3_mul(H, r13, r12)


def ideal_closure_rounds(H, ech):
    F = H.field
    grew = True
    while grew:
        grew = False
        for row in list(ech.basis()):
            for d in range(H.dim):
                e = unit_vec(d, F)
                if ech.insert(H.product(e, row)):
                    grew = True
                if ech.insert(H.product(row, e)):
                    grew = True
    return ech


def is_hopf_morphism_exhaustive(f):
    A, B, F = f.source, f.target, f.target.field
    for i in range(A.dim):
        for j in range(A.dim):
            lhs = f.apply(A.mult.get((i, j), {}))
            rhs = B.product(f.apply(A.basis_vec(i)), f.apply(A.basis_vec(j)))
            if lhs != rhs:
                return False, f"mult at ({A.labels[i]},{A.labels[j]})"
    if f.apply(A.unit) != B.unit:
        return False, "unit"
    for i in range(A.dim):
        if B.coproduct(f.apply(A.basis_vec(i))) != t2_map(F, f.mat, f.mat, A.comult[i]):
            return False, f"comult at {A.labels[i]}"
        if B.counit_of(f.apply(A.basis_vec(i))) != A.counit.get(i, F.zero()):
            return False, f"counit at {A.labels[i]}"
    for i in range(A.dim):
        if f.apply(A.antipode.get(i, {})) != B.antipode_of(f.apply(A.basis_vec(i))):
            return False, f"antipode at {A.labels[i]}"
    return True, ""


def grouplikes_sweep(H, values=None):
    F = H.field
    zero, one = F.zero(), F.one()
    found = []
    for coeffs in itertools.product(list(values or F.elements()), repeat=H.dim):
        v = {i: c for i, c in enumerate(coeffs) if c != zero}
        if v and H.counit_of(v) == one and H.coproduct(v) == t2_outer(F, v, v):
            found.append(v)
    found.sort(key=lambda v: tuple(sorted(v.items(), key=str)))
    return found


def drinfeld_double_mult_loop(G):
    kg = G.group_algebra
    O = G.coordinate_algebra
    F = G.field
    n = G.order
    idx = lambda a, i: a * n + i
    coad = coadjoint_matrices(G)
    mult = {}
    for a in range(n):
        for i in range(n):
            di = kg.comult[i]
            for b in range(n):
                coad_b = [None] * n
                for j in range(n):
                    out = {}
                    for (x, y), c in di.items():
                        w = coad_b[x]
                        if w is None:
                            w = mat_apply(F, coad[x], unit_vec(b, F))
                            coad_b[x] = w
                        if not w:
                            continue
                        o_part = O.product(unit_vec(a, F), w)
                        if not o_part:
                            continue
                        k_part = kg.product(unit_vec(y, F), unit_vec(j, F))
                        if not k_part:
                            continue
                        for oo, co in o_part.items():
                            coc = F.mul(c, co)
                            for kk, ck in k_part.items():
                                key = idx(oo, kk)
                                cur = out.get(key, F.zero())
                                s = F.add(cur, F.mul(coc, ck))
                                if s == F.zero():
                                    out.pop(key, None)
                                else:
                                    out[key] = s
                    if out:
                        mult[(idx(a, i), idx(b, j))] = out
    return mult


def crossed_product_loop(OK, Q, dot_mats, sigma, tau):
    """(mult, comult) of O(K)^cop #_sigma^tau Q with
    (a # x)(b # y) = a (x_1 . b) sigma(x_2, y_1) # x_3 y_2 and
    (a # x) -> (a_2 tau(x_1)^1 # x_2) (x) (a_1 tau(x_1)^2 # x_3), term by
    term; ``dot_mats[r]`` is the matrix of x_r . (-) on O(K)."""
    F = OK.field
    mK, mQ = OK.dim, Q.dim
    idx = lambda a, r: a * mQ + r
    delta2_Q = [Q.delta2(unit_vec(r, F)) for r in range(mQ)]
    mult = {}
    for a in range(mK):
        ea = unit_vec(a, F)
        for r in range(mQ):
            d2r = delta2_Q[r]
            for b in range(mK):
                for s in range(mQ):
                    out = {}
                    for (r1, r2, r3), c1 in d2r.items():
                        dotted = dot_mats[r1].get(b)
                        if dotted is None:
                            continue
                        part1 = OK.product(ea, dotted)
                        if not part1:
                            continue
                        for (s1, s2), c2 in Q.comult[s].items():
                            sig = sigma.get((r2, s1))
                            if sig is None:
                                continue
                            o_part = OK.product(part1, sig)
                            if not o_part:
                                continue
                            k_part = Q.product(unit_vec(r3, F), unit_vec(s2, F))
                            if not k_part:
                                continue
                            coef = F.mul(c1, c2)
                            for oo, co in o_part.items():
                                cc = F.mul(coef, co)
                                for kk, ck in k_part.items():
                                    key = idx(oo, kk)
                                    cur = out.get(key, F.zero())
                                    sm = F.add(cur, F.mul(cc, ck))
                                    if sm == F.zero():
                                        out.pop(key, None)
                                    else:
                                        out[key] = sm
                    if out:
                        mult[(idx(a, r), idx(b, s))] = out

    comult = {}
    for a in range(mK):
        for r in range(mQ):
            t = {}
            for (a1, a2), ca in OK.comult[a].items():
                for (r1, r2, r3), cr in delta2_Q[r].items():
                    for (t1, t2), ct in tau[r1].items():
                        leg1 = OK.product(unit_vec(a2, F), unit_vec(t1, F))
                        leg2 = OK.product(unit_vec(a1, F), unit_vec(t2, F))
                        if not leg1 or not leg2:
                            continue
                        coef = F.mul(F.mul(ca, cr), ct)
                        for o1, c1 in leg1.items():
                            for o2, c2 in leg2.items():
                                key = (idx(o1, r2), idx(o2, r3))
                                cur = t.get(key, F.zero())
                                sm = F.add(cur, F.mul(coef, F.mul(c1, c2)))
                                if sm == F.zero():
                                    t.pop(key, None)
                                else:
                                    t[key] = sm
            comult[idx(a, r)] = t
    return mult, comult


def subgroup_closure_rounds(G, generators):
    """The Echelon of the smallest Hopf subalgebra of k[G] containing the
    generators, closed round by round."""
    H = G.group_algebra
    F = G.field
    ech = Echelon(F, G.order)
    members = []

    def insert(v):
        if v and ech.insert(v):
            members.append(dict(v))
            return True
        return False

    insert(dict(H.unit))
    for g in generators:
        insert(dict(g))
    grew = True
    while grew:
        grew = False
        for v in list(members):
            grew |= insert(H.antipode_of(v))
            left, right = {}, {}
            for (a, b), c in H.coproduct(v).items():
                v_axpy(F, left.setdefault(a, {}), c, unit_vec(b, F))
                v_axpy(F, right.setdefault(b, {}), c, unit_vec(a, F))
            for sl in list(left.values()) + list(right.values()):
                grew |= insert(sl)
        snapshot = list(members)
        for v in snapshot:
            for w in snapshot:
                grew |= insert(H.product(v, w))
    return ech


def subgroup_from_subspace_verified(G, ech, name=""):
    H = G.group_algebra
    F = G.field
    pivots, rows = ech.pivots(), ech.basis()

    def coords(v):
        c = ech.coordinates(v)
        if c is None:
            raise ClosureNotHopf("span not multiplicatively closed")
        return {r: x for r, x in enumerate(c) if x != F.zero()}

    def t2_coords(t):
        grid = t2_coordinates(F, ech, t)
        if grid is None:
            raise ClosureNotHopf("span is not a subcoalgebra")
        return grid

    labels = [H.labels[p] if row == unit_vec(p, F) else f"b{r}"
              for r, (p, row) in enumerate(zip(pivots, rows))]
    kL = induced_hopf(H, rows, coords, t2_coords, labels,
                      name=f"k[{name}]" if name else "")
    rep = verify_hopf_exhaustive(kL)
    if not rep.ok:
        raise ClosureNotHopf("extracted span violates Hopf axioms: "
                             + "; ".join(n for n, _ in rep.failures()))
    iota = LinMap(kL, H, dict(enumerate(rows)))
    ok, wit = is_hopf_morphism(iota)
    if not ok:
        raise ClosureNotHopf(f"inclusion is not a Hopf morphism: {wit}")
    oc, op = _sub_connectivity(G, kL.dim)
    own = GroupScheme(kL, kind="derived", payload={"ambient": G},
                      order_connected=oc, order_points=op, name=name)
    return SubgroupScheme(G, own, iota, ech)


def quotient_by_hopf_ideal_verified(H, ideal, name=""):
    F = H.field
    reps = [i for i in range(H.dim) if i not in ideal.rows]
    cls = {i: r for r, i in enumerate(reps)}

    def project(v):
        return {cls[i]: c for i, c in ideal.reduce(v).items()}

    pi_mat = {}
    for i in range(H.dim):
        col = project(unit_vec(i, F))
        if col:
            pi_mat[i] = col
    Q = induced_hopf(H, [unit_vec(i, F) for i in reps], project,
                     lambda t: t2_map(F, pi_mat, pi_mat, t),
                     [f"[{H.labels[i]}]" for i in reps],
                     name=name or (f"{H.name}/I" if H.name else ""))
    rep = verify_hopf_exhaustive(Q)
    if not rep.ok:
        raise VerificationFailure("ideal quotient violates Hopf axioms: "
                                  + "; ".join(n_ for n_, _ in rep.failures()))
    pi = LinMap(H, Q, pi_mat)
    ok, wit = is_hopf_morphism(pi)
    if not ok:
        raise VerificationFailure(f"ideal projection is not a Hopf morphism: {wit}")
    return Q, pi


def normal_subgroups_sweep(G):
    """The subgroups of every closure, each distinct span built once (the
    first one built is kept, as the sweep kept it), normal ones sorted by
    (order, key)."""
    F = G.field
    n = G.order
    found = {}

    def note(ech, name=""):
        if ech.key() not in found:
            found[ech.key()] = subgroup_from_subspace_verified(G, ech, name)

    note(subgroup_closure_rounds(G, []), "1")
    note(span(F, n, [unit_vec(i, F) for i in range(n)]), G.name)
    if G.kind == "constant":
        for size in range(1, max(1, n.bit_length() - 1) + 1):
            for gens in itertools.combinations(range(n), size):
                note(subgroup_closure_rounds(G, [unit_vec(g, F) for g in gens]))
    else:
        for mask in range(1, 2**n):
            note(subgroup_closure_rounds(
                G, [{i: F.one() for i in range(n) if mask >> i & 1}]))
    subs = [s for s in found.values() if is_normal(s)]
    subs.sort(key=lambda s: (s.order, s.key()))
    return subs


def section_mu_by_tag(L, tag):
    G = L.ambient
    F = G.field
    OG, OL = G.coordinate_algebra, L.own.coordinate_algebra
    cand = None
    if tag == "full":
        cand = LinMap(OL, OG, mat_identity(G.order, F))
    elif tag == "trivial":
        cand = LinMap(OL, OG, {0: dict(OG.unit)})
    elif tag == "ga_standard":
        cand = LinMap(OL, OG, {i: {i: F.one()} for i in range(L.order)})
    elif G.kind == "constant" and all(
            row == unit_vec(p, F) for p, row in
            zip(L.subspace.pivots(), L.subspace.basis())):
        cand = LinMap(OL, OG, {r: {p: F.one()}
                               for r, p in enumerate(L.subspace.pivots())})
    return SectionData(*_invertible_section(
        cand, L.q, NoSection("colinear section system is inconsistent")))


def cleaving_gamma_by_tag(G, H_sub, tag):
    quotient = quotient_by_normal(G, H_sub)
    F = G.field
    kg = G.group_algebra
    m = quotient.hopf.dim
    cand = None
    if tag == "trivial":
        cand = LinMap(quotient.hopf, kg, {r: unit_vec(i, F)
                                          for r, i in enumerate(quotient.rep_indices)})
    elif tag == "full":
        cand = LinMap(quotient.hopf, kg, {0: dict(kg.unit)})
    else:
        pre = {}
        for i in range(G.order):
            img = quotient.pi.apply(unit_vec(i, F))
            for r in range(m):
                if img == unit_vec(r, F) and r not in pre:
                    pre[r] = i
        if len(pre) == m:
            cand = LinMap(quotient.hopf, kg, {r: unit_vec(pre[r], F) for r in range(m)})
    gamma, gamma_inv = _invertible_section(
        cand, quotient.pi,
        NoInvertibleSectionFound("colinear section system inconsistent"))
    return _finish_cleaving(G, H_sub, quotient, gamma, gamma_inv)


def r_delta_all_basis(H, R):
    """(ok, witness) of R Delta(h) = Delta^cop(h) R over every basis h."""
    for h in range(H.dim):
        dh = H.comult[h]
        if tensor_square_product_pairs(H, R, dh) != tensor_square_product_pairs(H, t2_swap(dh), R):
            return False, H.labels[h]
    return True, ""


def v_central_all_basis(H, V):
    """(ok, witness) of V e_i = e_i V over every basis i."""
    F = H.field
    for i in range(H.dim):
        e = unit_vec(i, F)
        if H.product(V, e) != H.product(e, V):
            return False, H.labels[i]
    return True, ""


def ribbon_coproduct_law_with_check(H, R, V):
    """Delta(V) = (R21 R)^-1 (V (x) V), the candidate inverse always
    confirmed by (R21 R)(rinv swap(rinv)) = 1 (x) 1."""
    F = H.field
    rinv = t2_map(F, H.antipode, mat_identity(H.dim, F), R)
    mono = tensor_square_product_pairs(H, t2_swap(R), R)
    mono_inv = tensor_square_product_pairs(H, rinv, t2_swap(rinv))
    sane = tensor_square_product_pairs(H, mono, mono_inv) == t2_outer(F, H.unit, H.unit)
    rhs = tensor_square_product_pairs(H, mono_inv, t2_outer(F, V, V))
    return sane and H.coproduct(V) == rhs


def triple_validate_all_basis(G, K, H, B):
    """The first violated condition of a triple (K, H, B), as the message
    ``Triple.validate`` raises, with equivariance checked for every basis u
    of k[G]; None when (K, H, B) is a triple."""
    F = G.field
    if not is_normal(K):
        return "K is not normal"
    if not is_normal(H):
        return "H is not normal"
    if not centralize(K, H):
        return "K and H do not centralize each other"
    ok, wit = is_hopf_morphism(B)
    if not ok:
        return f"B is not a Hopf algebra map ({wit})"
    coad = coadjoint_matrices(G)
    for i in range(G.order):
        for j in range(H.order):
            lifted = K.section.mu.apply(B.apply(unit_vec(j, F)))
            lhs = K.q.apply(mat_apply(F, coad[i], lifted))
            conj = ad_l(G, unit_vec(i, F), H.iota.apply(unit_vec(j, F)))
            coords = H.subspace.coordinates(conj)
            rhs = B.apply({r: c for r, c in enumerate(coords) if c != F.zero()})
            if lhs != rhs:
                return (f"B is not equivariant at (u={G.group_algebra.labels[i]},"
                        f" v={H.own.group_algebra.labels[j]})")
    return None


def field_axpy_loop(F, acc, c, vec):
    zero = F.zero()
    for k, v in vec.items():
        s = F.add(acc.get(k, zero), F.mul(c, v))
        if s == zero:
            acc.pop(k, None)
        else:
            acc[k] = s
    return acc


def sub_inclusion_reduced(inner, outer):
    """The matrix of k[inner] -> k[outer] in the subgroups' own bases, or
    None when inner is not inside outer."""
    F = inner.ambient.field
    mat = {}
    for j, row in enumerate(inner.subspace.basis()):
        coords = outer.subspace.coordinates(row)
        if coords is None:
            return None
        col = {r: c for r, c in enumerate(coords) if c != F.zero()}
        if col:
            mat[j] = col
    return mat


def hasse_edges_pairwise(nodes):
    n = len(nodes)
    leq = [[False] * n for _ in range(n)]
    for i, a in enumerate(nodes):
        for j, b in enumerate(nodes):
            if i != j and contains(b.triple, a.triple):
                leq[i][j] = True  # a <= b
    edges = []
    for i in range(n):
        for j in range(n):
            if leq[i][j]:
                if not any(leq[i][k] and leq[k][j] for k in range(n)):
                    edges.append((i, j))
    return edges
