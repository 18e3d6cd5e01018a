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
  every 0/1 sum of basis vectors (other groups); complete on constant
  groups, not on connected ones (Ga_1 x Ga_1 over GF(3) has the line of
  d1(x)d0 + 2 d0(x)d1, which no 0/1 sum generates).
* ``normal_subgroups_from_primitive_pairs``: the normal subgroups from
  the closures of every primitive vector and of every pair of them;
  complete on height-one groups whose Lie algebra has dimension at most 2.
* ``colinear_section_mu``: a unit-preserving, O(L)-colinear,
  convolution-invertible section of q_L with its convolution inverse, the
  closed-form candidate read off the span (the unit of O(G) when |L| = 1,
  extension by zero when every RREF row is a unit vector) or else the first
  invertible point of the solved section system; the package chose mu_L
  this way before it read a linear section off the pivots.
* ``_invertible_section``: a convolution-invertible colinear section of a
  Hopf map, the closed-form candidate when it is one, else the first
  invertible point of the solved section system, walked in canonical order
  over at most ``_SECTION_BUDGET`` points; the package's search before it
  cleaved by Takeuchi's criterion.
* ``cleaving_gamma_walked``: the cleaving through ``_invertible_section``,
  each class sent to its first basis preimage, as the package found it
  before the unit class went to 1 and the solved section fixed its
  grouplike lifts.
* ``section_mu_by_tag`` and ``cleaving_gamma_by_tag``: the colinear section
  and the cleaving with the closed-form candidate chosen by how the
  subgroup was built ("trivial", "full", "ga_standard" or "generic"), as
  the package chose it before reading it off the span.
* ``r_delta_all_basis``, ``v_central_all_basis`` and
  ``ribbon_coproduct_law_with_check``: the rows R Delta = Delta^cop R and
  "V central" on every basis vector, and the ribbon coproduct law with
  (R21 R)(rinv swap(rinv)) = 1 (x) 1 always confirmed.
* ``triple_validate_all_basis``: the checks of ``Triple.validate`` with
  equivariance on every basis vector u of k[G], u * a formed through
  ``colinear_section_mu``.
* ``field_axpy_loop``: acc += c vec through ``F.add`` and ``F.mul``.
* ``sub_inclusion_reduced``: the inclusion of one subgroup into another,
  each column the coordinates of an inner basis vector found by reducing
  it against the outer span.
* ``contains``: whether the subcategory of one triple sits inside that of
  another, the containment order that ``lattice.hasse_edges`` reduces,
  decided pair by pair.
* ``hasse_edges_pairwise``: the covers of the containment order from
  ``contains`` on every ordered pair of nodes, each pair (i, j) kept unless
  some k lies between them.
* ``intersect_by_recognition``: the triple of the maximal common quotient
  pair, by quotienting D(G) by the sum of the two kernels of theta, each
  solved afresh, and recognizing the projection, which recognition
  certifies, and with it D(G)/joint, once.
* ``intersect``: ``intersect_by_recognition`` after refusing triples on two
  group schemes, checked against the agreement subgroup
  (``agreement_subgroup``, the L where the two bicharacters agree, read off
  the coinvariants of ``lattice.beta_pairing``), the product HH' and
  ``contains``.  No command prints an intersection, so the package keeps
  no route of its own.
* ``centralizer_certificate``: (theta (x) theta_bar)(R21 R) = 1 (x) 1 in
  D(K,H,B) (x) D(H,K,Bbar), the braiding witness that a triple and its
  centralizer centralize each other.
* ``induced_surjection``: the surjection phi with theta = phi . theta'
  through ``QuotientPair.factor``, refused for pairs on two group schemes.
* ``primitives``: the primitive subspace of a Hopf algebra, the kernel of
  the primitive defect on the basis.
* ``projection_to_group_algebra``: the Hopf surjection D(G) ->> k[G],
  delta_a |><| u_i -> eps(delta_a) u_i, certified by ``certify_hopf_map``
  (a Hopf map, onto) before it is returned.
* ``is_normal_all_basis``: whether k[L] is stable under ad_l(u) for every
  basis vector u of k[G].
* ``induced_surjection_by_kernel``: the surjection phi with
  theta = phi . theta', or None when a vector of a basis of ker(theta')
  is not killed by theta; each column phi(e) = theta(x) for x the
  particular solution of theta'(x) = e.
* ``hopf_algebra_maps_all_pairs``: the Hopf algebra maps A -> C by the
  search with a separate step kind for the primitive generators, whose
  images run over the points of the primitives of C, that closes the
  recorded pairs under the products of every ordered pair of them at each
  step, and checks every map found with ``is_hopf_morphism`` and against
  the maps already found.
"""

from __future__ import annotations

import itertools

from schemedouble.errors import (
    BudgetExceeded,
    ClosureNotHopf,
    DimensionMismatch,
    FieldMismatch,
    FieldTooLargeForEnumeration,
    NoInvertibleSectionFound,
    NoSolution,
    NotInvertible,
    VerificationFailure,
)
from schemedouble.doubles import drinfeld_double
from schemedouble.groupschemes import (
    GroupScheme,
    SubgroupScheme,
    _colinear_section_equations,
    _colinear_section_ok,
    _finish_cleaving,
    _sub_connectivity,
    ad_l,
    centralize,
    inclusion,
    intersect_subgroup,
    is_normal,
    product_subgroup,
    quotient_by_normal,
    subgroup_from_subspace,
)
from schemedouble.hopf import (
    LinMap,
    VerificationReport,
    _primitive_defect,
    certify_hopf_map,
    coinvariants,
    convolution_inverse,
    grouplikes,
    ideal_projection,
    induced_hopf,
    is_hopf_morphism,
    span_closure,
    t2_contract,
    t2_coordinates,
    t2_map,
    t2_outer,
    t2_swap,
)
from schemedouble.lattice import beta_pairing
from schemedouble.linalg import (
    Echelon,
    ParallelEchelon,
    echelon_points,
    mat_apply,
    mat_compose,
    mat_identity,
    mat_kernel,
    mat_transpose,
    solve_rows,
    span,
    unit_vec,
    v_axpy,
    v_scale,
)
from schemedouble.quotients import build_quotient, recognize_triple


def verify_hopf_exhaustive(H) -> VerificationReport:
    F = H.field
    n = H.dim
    rep = VerificationReport(H.name or f"hopf(dim {n})")
    cells = H.cells

    ok, wit = light_associativity_dense(H, range(n))
    rep.record("associativity", ok, wit)

    ok, wit = True, ""
    for i in range(n):
        e = unit_vec(i, F)
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
        if left != unit_vec(i, F) or right != unit_vec(i, F):
            ok, wit = False, H.labels[i]
            break
    rep.record("counit law", ok, wit)

    ok, wit = True, ""
    for i in range(n):
        if not ok:
            break
        for j in range(n):
            lhs = H.coproduct(cells[i].get(j, {}))
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
            lhs = H.counit_of(cells[i].get(j, {}))
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
                v_axpy(F, left, c, H.product(sj, unit_vec(k, F)))
            sk = H.antipode.get(k)
            if sk:
                v_axpy(F, right, c, H.product(unit_vec(j, F), sk))
        target = v_scale(F, H.counit.get(i, F.zero()), H.unit)
        if left != target or right != target:
            ok, wit = False, H.labels[i]
            break
    rep.record("antipode law", ok, wit)

    rep.flags["commutative"] = H.is_commutative
    rep.flags["cocommutative"] = H.is_cocommutative
    rep.flags["involutive"] = H.is_involutive
    return rep


def light_associativity_dense(H, gens):
    """(ok, witness) of x (a y) = (x a) y over every basis x and y and every
    a = e_j, j in gens; the first failing triple in (i, j, k) order."""
    F = H.field
    n = H.dim
    cells = H.cells
    for i in range(n):
        for j in gens:
            mij = cells[i].get(j, {})
            for k in range(n):
                lhs = {}
                for l, c in mij.items():
                    cell = cells[l].get(k)
                    if cell:
                        v_axpy(F, lhs, c, cell)
                rhs = {}
                for l, c in cells[j].get(k, {}).items():
                    cell = cells[i].get(l)
                    if cell:
                        v_axpy(F, rhs, c, cell)
                if lhs != rhs:
                    return False, f"({H.labels[i]},{H.labels[j]},{H.labels[k]})"
    return True, ""


def tensor_square_product_pairs(H, x, y):
    F = H.field
    mul = F.mul
    cells = H.cells
    out = {}
    zero = F.zero()
    add = F.add
    for (a, b), cx in x.items():
        for (c, d), cy in y.items():
            left = cells[a].get(c)
            if not left:
                continue
            right = cells[b].get(d)
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
    cells = H.cells
    for (a, b, c), cx in x.items():
        for (d, e, f), cy in y.items():
            m1 = cells[a].get(d)
            if not m1:
                continue
            m2 = cells[b].get(e)
            if not m2:
                continue
            m3 = cells[c].get(f)
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
            lhs = f.apply(A.cells[i].get(j, {}))
            rhs = B.product(f.apply(unit_vec(i, F)), f.apply(unit_vec(j, F)))
            if lhs != rhs:
                return False, f"mult at ({A.labels[i]},{A.labels[j]})"
    if f.apply(A.unit) != B.unit:
        return False, "unit"
    for i in range(A.dim):
        if B.coproduct(f.apply(unit_vec(i, F))) != t2_map(F, f.mat, f.mat, A.comult[i]):
            return False, f"comult at {A.labels[i]}"
        if B.counit_of(f.apply(unit_vec(i, F))) != A.counit.get(i, F.zero()):
            return False, f"counit at {A.labels[i]}"
    for i in range(A.dim):
        if f.apply(A.antipode.get(i, {})) != B.antipode_of(f.apply(unit_vec(i, F))):
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
    coad = G.coadjoint
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


def _normal_closures(G, generator_lists):
    """The subgroups of 1, G and the closure of each generator list, each
    distinct span built once (the first one built is kept), normal ones
    sorted by (order, key)."""
    F = G.field
    n = G.order
    found = {}

    def note(ech, name=""):
        if ech.key() not in found:
            found[ech.key()] = subgroup_from_subspace_verified(G, ech, name)

    note(subgroup_closure_rounds(G, []), "1")
    note(span(F, n, [unit_vec(i, F) for i in range(n)]), G.name)
    for gens in generator_lists:
        note(subgroup_closure_rounds(G, gens))
    subs = [s for s in found.values() if is_normal(s)]
    subs.sort(key=lambda s: (s.order, s.key()))
    return subs


def normal_subgroups_sweep(G):
    """The normal subgroups from the closures of every generator subset of
    size at most log2 |G| (constant groups) or of every 0/1 sum of basis
    vectors (other groups)."""
    F = G.field
    n = G.order
    if G.kind == "constant":
        lists = ([unit_vec(g, F) for g in gens]
                 for size in range(1, max(1, n.bit_length() - 1) + 1)
                 for gens in itertools.combinations(range(n), size))
    else:
        lists = ([{i: F.one() for i in range(n) if mask >> i & 1}]
                 for mask in range(1, 2**n))
    return _normal_closures(G, lists)


def normal_subgroups_from_primitive_pairs(G):
    """The normal subgroups from the closures of every non-zero primitive
    vector and of every pair of them.  Complete for a height-one G whose
    Lie algebra g = primitives(k[G]) has dimension at most 2: its subgroup
    schemes are the u(h) of the restricted Lie subalgebras h of g, and h
    is spanned by at most two vectors."""
    prims = [v for v in echelon_points(primitives(G.group_algebra), G.field) if v]
    return _normal_closures(G, itertools.chain(
        ([u] for u in prims), itertools.combinations(prims, 2)))


# Points of the section solution space tried for convolution invertibility.
_SECTION_BUDGET = 100_000


def _invertible_section(cand, proj: LinMap):
    """A convolution-invertible colinear section of the Hopf map proj, with
    its convolution inverse: the closed-form candidate cand when it is one,
    else the first invertible point of the solved section system, walked in
    canonical order from the zero offset (at most _SECTION_BUDGET points;
    over the rationals only the particular solution) and re-checked.
    Raises NoInvertibleSectionFound when that system has no solution."""
    if cand is not None and _colinear_section_ok(cand, proj):
        try:
            return cand, convolution_inverse(cand)
        except NotInvertible:
            pass
    src, tgt = proj.target, proj.source
    F = tgt.field
    try:
        part, kern = solve_rows(F, _colinear_section_equations(F, src, tgt, proj.mat),
                                tgt.dim * src.dim)
    except NoSolution:
        raise NoInvertibleSectionFound("colinear section system inconsistent")
    offsets = (itertools.islice(echelon_points(kern, F), _SECTION_BUDGET)
               if F.size is not None else [{}])
    for offset in offsets:
        mat: dict = {}
        for key, c in v_axpy(F, dict(part), F.one(), offset).items():
            r, col = divmod(key, src.dim)
            mat.setdefault(col, {})[r] = c
        s = LinMap(src, tgt, mat)
        try:
            s_inv = convolution_inverse(s)
        except NotInvertible:
            continue
        if not _colinear_section_ok(s, proj):
            raise VerificationFailure("solved section fails its defining identities")
        return s, s_inv
    raise NoInvertibleSectionFound(
        f"no convolution-invertible section within budget {_SECTION_BUDGET}")


def colinear_section_mu(L):
    """(mu, mu^-1): a unit-preserving, O(L)-colinear, convolution-invertible
    section mu of q_L and its convolution inverse."""
    G = L.ambient
    F = G.field
    OG, OL = G.coordinate_algebra, L.own.coordinate_algebra
    pivots = L.subspace.pivots()
    cand = None
    if L.order == 1:
        cand = LinMap(OL, OG, {0: dict(OG.unit)})
    elif all(row == unit_vec(p, F) for p, row in zip(pivots, L.subspace.basis())):
        cand = LinMap(OL, OG, {r: unit_vec(p, F) for r, p in enumerate(pivots)})
    return _invertible_section(cand, L.q)


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
    return _invertible_section(cand, L.q)


def cleaving_gamma_by_tag(G, H_sub, tag):
    quotient = quotient_by_normal(G, H_sub)
    F = G.field
    kg = G.group_algebra
    m = quotient.hopf.dim
    cand = None
    if tag == "trivial":
        cand = LinMap(quotient.hopf, kg, {r: unit_vec(r, F) for r in range(m)})
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
    gamma, gamma_inv = _invertible_section(cand, quotient.pi)
    return _finish_cleaving(G, H_sub, quotient, gamma, gamma_inv)


def cleaving_gamma_walked(G, H_sub):
    """The cleaving as the package found it before it cleaved by theorem:
    each class x_r sent to the first basis vector e_i with pi(e_i) = x_r,
    else the first invertible point of the walked section system."""
    quotient = quotient_by_normal(G, H_sub)
    F = G.field
    kg = G.group_algebra
    pre = {}
    for i in range(G.order):
        img = quotient.pi.apply(unit_vec(i, F))
        if len(img) == 1 and F.one() in img.values():
            pre.setdefault(next(iter(img)), i)
    cand = None
    if len(pre) == quotient.hopf.dim:
        cand = LinMap(quotient.hopf, kg, {r: unit_vec(i, F) for r, i in pre.items()})
    gamma, gamma_inv = _invertible_section(cand, quotient.pi)
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
    coad = G.coadjoint
    mu = colinear_section_mu(K)[0]
    for i in range(G.order):
        for j in range(H.order):
            lifted = mu.apply(B.apply(unit_vec(j, F)))
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


def contains(t, t2) -> bool:
    """Whether the subcategory of t2 sits inside that of t: K' inside K,
    H inside H', and restriction of B along K' matches B' along H.  The two
    subgroup containments are read from the table G keeps (``inclusion``)
    before B is compared."""
    k_inc = inclusion(t2.K, t.K)
    if k_inc is None:
        return False
    h_inc = inclusion(t.H, t2.H)
    if h_inc is None:
        return False
    F = t.G.field
    return (mat_compose(F, mat_transpose(k_inc), t.B.mat)
            == mat_compose(F, t2.B.mat, h_inc))


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


def intersect_by_recognition(t, t2):
    G = t.G
    F = G.field
    D = drinfeld_double(G).D
    joint = mat_kernel(F, build_quotient(t).theta.mat, D.dim)
    for row in mat_kernel(F, build_quotient(t2).theta.mat, D.dim).basis():
        joint.insert(row)
    qp, _ = recognize_triple(G, ideal_projection(D, joint))
    return qp.triple


def agreement_subgroup(t, t2):
    """L with ker(beta_{B,B'}) = k[L]^+ k[K meet K']: the coinvariants of beta
    corestricted to its image, realized inside G."""
    G = t.G
    F = G.field
    KK = intersect_subgroup(t.K, t2.K)
    beta = beta_pairing(t, t2)
    kM = KK.own.group_algebra
    kerL = coinvariants(kM, beta.mat, beta.apply(kM.unit))
    amb = span(F, G.order, [KK.iota.apply(row) for row in kerL.basis()])
    return subgroup_from_subspace(G, amb, name="L")


def intersect(t, t2):
    """``intersect_by_recognition`` with its checks: triples on two group
    schemes are refused before any theta is built, and the agreement
    subgroup from beta and the product HH' must match the result, which
    must lie below both triples."""
    if t2.G is not t.G:
        raise DimensionMismatch("triples of different group schemes")
    result = intersect_by_recognition(t, t2)
    if agreement_subgroup(t, t2) is not result.K:
        raise VerificationFailure(
            "agreement subgroup disagrees with recognized intersection")
    if product_subgroup(t.H, t2.H, name="HH'") is not result.H:
        raise VerificationFailure(
            "product subgroup disagrees with recognized intersection")
    if not (contains(t, result) and contains(t2, result)):
        raise VerificationFailure("intersection is not a common lower bound")
    return result


def centralizer_certificate(qp, qp_bar):
    """(theta (x) theta_bar)(R21 R) = 1 (x) 1, the exact mutual-centralizing
    witness in D(K,H,B) (x) D(H,K,Bbar); R21 R is the monodromy of the
    canonical R that G's D(G) keeps."""
    F = qp.D.field
    mono = drinfeld_double(qp.triple.G).qt.monodromy
    out = t2_map(F, qp.theta.mat, qp_bar.theta.mat, mono)
    return out == t2_outer(F, qp.D.unit, qp_bar.D.unit)


def induced_surjection(qp, qp_src):
    """The unique surjection phi: D(K',H',B') -> D(K,H,B) with
    theta = phi . theta', which exists exactly when ker(theta') is contained
    in ker(theta) (``QuotientPair.factor``, whose NoFactorization witness
    lies in ker(theta') and not in ker(theta)); both pairs must be on the
    same G."""
    if qp.triple.G is not qp_src.triple.G:
        raise DimensionMismatch("quotient pairs of different group schemes")
    return qp_src.factor(qp.theta)


def primitives(H):
    """The subspace of v with Delta(v) = v(x)1 + 1(x)v: the kernel of the
    map whose column i is ``_primitive_defect(H, e_i)``."""
    F = H.field
    return mat_kernel(F, {i: _primitive_defect(H, unit_vec(i, F)) for i in range(H.dim)}, H.dim)


def projection_to_group_algebra(G):
    dd = drinfeld_double(G)
    counit = sorted(G.coordinate_algebra.counit.items())
    proj = LinMap(dd.D, G.group_algebra, {dd.index(a, i): {i: ea} for a, ea in counit
                                          for i in range(G.order)})
    return certify_hopf_map(proj, "k[G] projection", onto=True)


def is_normal_all_basis(L):
    G, S = L.ambient, L.subspace
    return all(S.contains(ad_l(G, unit_vec(i, G.field), row))
               for i in range(G.order) for row in S.basis())


def induced_surjection_by_kernel(qp, qp_src):
    theta, theta_src = qp.theta, qp_src.theta
    F = qp.D.field
    N = theta.source.dim
    for vec in mat_kernel(F, theta_src.mat, N).basis():
        if theta.apply(vec):
            return None
    mat = {}
    rows = mat_transpose(theta_src.mat)
    for e in range(qp_src.D.dim):
        x, _ = solve_rows(F, [(rows.get(i, {}), F.one() if i == e else F.zero())
                              for i in range(qp_src.D.dim)], N)
        if img := theta.apply(x):
            mat[e] = img
    return LinMap(qp_src.D, qp.D, mat)


class _SourceStep:
    __slots__ = ("kind", "vec", "basis_index")

    def __init__(self, kind, vec=None, basis_index=None):
        self.kind = kind
        self.vec = vec
        self.basis_index = basis_index


def _primitive_defect_at(A, i):
    F = A.field
    e = unit_vec(i, F)
    d = dict(A.comult[i])
    v_axpy(F, d, F.neg(F.one()), t2_outer(F, e, A.unit))
    v_axpy(F, d, F.neg(F.one()), t2_outer(F, A.unit, e))
    return d


def _source_chain_by_kind(A, src_grouplikes, src_primitives):
    F = A.field
    ech = Echelon(F, A.dim)
    ech.insert(A.unit)
    chain, gens = [], [A.unit]

    def adjoin(step, v):
        chain.append(step)
        gens.append(v)
        span_closure(ech, ech.basis() + [v], lambda w: [A.product(w, g) for g in gens])

    for g in src_grouplikes:
        if not ech.contains(g):
            adjoin(_SourceStep("grouplike", vec=g), g)
    for b in src_primitives.basis():
        if not ech.contains(b):
            adjoin(_SourceStep("primitive", vec=b), b)
    while ech.dim < A.dim:
        found = None
        for i in range(A.dim):
            if ech.contains(unit_vec(i, F)):
                continue
            if t2_coordinates(F, ech, _primitive_defect_at(A, i)) is not None:
                found = i
                break
        if found is None:
            return None
        adjoin(_SourceStep("extension", basis_index=found), unit_vec(found, F))
    return chain


def hopf_algebra_maps_all_pairs(A, C, budget=500_000):
    if A.field != C.field:
        raise FieldMismatch("source and target over different fields")
    F = A.field
    chain = _source_chain_by_kind(A, grouplikes(A), primitives(A))
    glC = grouplikes(C)
    prC = primitives(C)
    prim_rows_C = mat_transpose({i: _primitive_defect_at(C, i) for i in range(C.dim)})
    if chain is None:
        raise BudgetExceeded("source algebra outside the supported generation filtration")

    if any(s.kind == "primitive" for s in chain) and F.size is None and prC.dim > 0:
        raise FieldTooLargeForEnumeration(
            "cannot enumerate primitive images over the rationals"
        )
    prC_points = None
    if any(s.kind == "primitive" for s in chain):
        prC_points = list(echelon_points(prC, F)) if prC.dim else [{}]

    results = []
    seen = set()
    counter = [0]

    def emit(pech):
        mat = {}
        for i in range(A.dim):
            img = pech.image_of(unit_vec(i, F))
            if img is None:
                return
            if img:
                mat[i] = img
        f = LinMap(A, C, mat)
        ok, _ = is_hopf_morphism(f)
        if ok and f.key() not in seen:
            seen.add(f.key())
            results.append(f)

    def close_products(pech, pairs):
        queue = list(pairs)
        done = 0
        while done < len(queue):
            a1, c1 = queue[done]
            done += 1
            for a2, c2 in queue[:done]:
                for x, y in ((A.product(a1, a2), C.product(c1, c2)),
                             (A.product(a2, a1), C.product(c2, c1))):
                    st = pech.insert(x, y)
                    if st == "conflict":
                        return None
                    if st == "new":
                        queue.append((x, y))
        return queue

    def rec(step_idx, pech, pairs):
        counter[0] += 1
        if counter[0] > budget:
            raise BudgetExceeded(f"candidate budget {budget} exhausted")
        if step_idx == len(chain):
            emit(pech)
            return
        step = chain[step_idx]
        if step.kind == "grouplike":
            candidates = [(step.vec, g) for g in glC]
        elif step.kind == "primitive":
            candidates = [(step.vec, z) for z in prC_points]
        else:
            e = unit_vec(step.basis_index, F)
            img = {}
            bad = False
            for (j, k), c in _primitive_defect_at(A, step.basis_index).items():
                xj = pech.image_of(unit_vec(j, F))
                xk = pech.image_of(unit_vec(k, F))
                if xj is None or xk is None:
                    bad = True
                    break
                v_axpy(F, img, c, t2_outer(F, xj, xk))
            if bad:
                return
            rows = [(prim_rows_C.get(key, {}), img.get(key, F.zero()))
                    for key in set(prim_rows_C) | set(img)]
            rows.append((dict(C.counit), A.counit_of(e)))
            try:
                part, kern = solve_rows(F, rows, C.dim)
            except NoSolution:
                return
            if kern.dim and F.size is None:
                raise FieldTooLargeForEnumeration(
                    "cannot enumerate extension images over the rationals"
                )
            cands = []
            for z0 in echelon_points(kern, F) if kern.dim else [{}]:
                z = dict(part)
                v_axpy(F, z, F.one(), z0)
                cands.append(z)
            candidates = [(e, z) for z in cands]

        for src_vec, tgt_vec in candidates:
            branch = pech.copy()
            st = branch.insert(src_vec, tgt_vec)
            if st == "conflict":
                continue
            new_pairs = close_products(branch, pairs + [(src_vec, tgt_vec)])
            if new_pairs is None:
                continue
            rec(step_idx + 1, branch, new_pairs)

    root = ParallelEchelon(F, A.dim, C.dim)
    root.insert(dict(A.unit), dict(C.unit))
    base_pairs = close_products(root, [(dict(A.unit), dict(C.unit))])
    rec(0, root, base_pairs)
    results.sort(key=lambda f: str(f.key()))
    return results
