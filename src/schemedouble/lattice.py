"""The subcategory calculus on triples: centralizers with their braiding
certificate, containment, intersection as the maximal common quotient,
symmetric/non-degenerate/Lagrangian predicates cross-checked against direct
R-matrix computations, exhaustive triple enumeration with Hasse diagram, and
block data over constant groups.
"""

from __future__ import annotations

from .errors import BudgetExceeded, InvalidTriple, NotConstant, VerificationFailure
from .doubles import (
    DoubleData,
    canonical_r_and_v,
    is_factorizable,
    is_triangular,
    monodromy,
)
from .groupschemes import (
    GroupScheme,
    SubgroupScheme,
    ad_l,
    centralize,
    characters,
    full_subgroup,
    group_elements,
    hopf_closure,
    intersect_subgroup,
    is_normal,
    product_subgroup,
    subgroup_from_generators,
    subgroup_from_subspace,
    trivial_subgroup,
)
from .hopf import (
    LinMap,
    coinvariants,
    convolution,
    hopf_algebra_maps,
    quotient_by_hopf_ideal,
    t2_map,
    t2_outer,
)
from .linalg import (
    Echelon,
    mat_compose,
    mat_kernel,
    mat_rank,
    mat_transpose,
    unit_vec,
    v_axpy,
)
from .quotients import (
    QuotientPair,
    Triple,
    build_quotient,
    recognize_triple,
    to_own_coords,
)
from .serialize import MAX_DOUBLE_DIM


def _sub_inclusion(inner: SubgroupScheme, outer: SubgroupScheme) -> LinMap:
    """iota_{inner,outer}: k[inner] -> k[outer] in subgroup coordinates."""
    F = inner.ambient.field
    mat = {}
    for j in range(inner.order):
        amb = inner.iota.apply(unit_vec(j, F))
        col = to_own_coords(outer, amb)
        if col:
            mat[j] = col
    return LinMap(inner.own.group_algebra, outer.own.group_algebra, mat)


def _restriction(outer: SubgroupScheme, inner: SubgroupScheme) -> LinMap:
    """iota^sharp_{inner,outer}: O(outer) ->> O(inner)."""
    inc = _sub_inclusion(inner, outer)
    return LinMap(outer.own.coordinate_algebra, inner.own.coordinate_algebra,
                  mat_transpose(inc.mat))


def dual_map(B: LinMap, H_sub: SubgroupScheme, K_sub: SubgroupScheme) -> LinMap:
    """B^*: k[K] -> O(H) for B: k[H] -> O(K); a transpose in the dual bases."""
    return LinMap(K_sub.own.group_algebra, H_sub.own.coordinate_algebra,
                  mat_transpose(B.mat))


def centralizer_triple(t: Triple) -> Triple:
    """(H, K, Bbar) with Bbar = B^* . S, built and validated once and kept
    on t."""
    if t._centralizer is None:
        F = t.G.field
        bstar = dual_map(t.B, t.H, t.K)
        bbar_mat = mat_compose(F, bstar.mat, t.K.own.group_algebra.antipode)
        bbar = LinMap(t.K.own.group_algebra, t.H.own.coordinate_algebra, bbar_mat)
        t._centralizer = Triple(t.G, t.H, t.K, bbar)
    return t._centralizer


def centralizer_certificate(qp: QuotientPair, qp_bar: QuotientPair,
                            dd: DoubleData) -> bool:
    """(theta (x) theta_bar)(R21 R) = 1 (x) 1, the exact mutual-centralizing
    witness in D(K,H,B) (x) D(H,K,Bbar)."""
    F = dd.D.field
    mono = monodromy(canonical_r_and_v(dd))
    out = t2_map(F, qp.theta(dd).mat, qp_bar.theta(dd).mat, mono)
    return out == t2_outer(F, qp.D.unit, qp_bar.D.unit)


def contains(t: Triple, t2: Triple) -> bool:
    """Whether the subcategory of t2 sits inside that of t: K' inside K,
    H inside H', and restriction of B along K' matches B' along H."""
    if not t.K.contains_subgroup(t2.K):
        return False
    if not t2.H.contains_subgroup(t.H):
        return False
    F = t.G.field
    lhs = mat_compose(F, _restriction(t.K, t2.K).mat, t.B.mat)
    rhs = mat_compose(F, t2.B.mat, _sub_inclusion(t.H, t2.H).mat)
    return lhs == rhs


def beta_pairing(t: Triple, t2: Triple) -> LinMap:
    """beta_{B,B'}: k[K meet K'] -> O(H meet H'), the convolution of the
    transported B^* with the transported B'bar.  Its kernel cuts out the
    subgroup where the two bicharacters agree."""
    G = t.G
    F = G.field
    KK = intersect_subgroup(t.K, t2.K)
    HH = intersect_subgroup(t.H, t2.H)
    first = LinMap(
        KK.own.group_algebra, HH.own.coordinate_algebra,
        mat_compose(F, _restriction(t.H, HH).mat,
                    mat_compose(F, dual_map(t.B, t.H, t.K).mat,
                                _sub_inclusion(KK, t.K).mat)))
    bbar2 = mat_compose(F, dual_map(t2.B, t2.H, t2.K).mat,
                        t2.K.own.group_algebra.antipode)
    second = LinMap(
        KK.own.group_algebra, HH.own.coordinate_algebra,
        mat_compose(F, _restriction(t2.H, HH).mat,
                    mat_compose(F, bbar2, _sub_inclusion(KK, t2.K).mat)))
    return convolution(first, second)


def agreement_subgroup(t: Triple, t2: Triple) -> SubgroupScheme:
    """L with ker(beta_{B,B'}) = k[L]^+ k[K meet K']: the coinvariants of beta
    corestricted to its image, realized inside G."""
    G = t.G
    F = G.field
    KK = intersect_subgroup(t.K, t2.K)
    beta = beta_pairing(t, t2)
    kM = KK.own.group_algebra
    kerL = coinvariants(kM, beta.mat, beta.apply(kM.unit))
    amb = Echelon(F, G.order)
    for row in kerL.basis():
        out = {}
        for i, c in row.items():
            v_axpy(F, out, c, KK.iota.apply(unit_vec(i, F)))
        amb.insert(out)
    return subgroup_from_subspace(G, amb, name="L")


def intersect(t: Triple, t2: Triple, dd: DoubleData) -> Triple:
    """The triple of the maximal common quotient pair: quotient D(G) by the
    joint kernel ideal of the two thetas and recognize the result.  The
    agreement subgroup computed from beta and the product HH' are asserted to
    match the recognized components."""
    F = t.G.field
    theta = build_quotient(t).theta(dd)
    theta2 = build_quotient(t2).theta(dd)
    N = dd.D.dim
    joint = mat_kernel(F, theta.mat, N)
    for row in mat_kernel(F, theta2.mat, N).basis():
        joint.insert(row)
    Q, pi = quotient_by_hopf_ideal(dd.D, joint)
    qp_int, _ = recognize_triple(dd, pi)
    result = qp_int.triple

    L = agreement_subgroup(t, t2)
    if L.key() != result.K.key():
        raise VerificationFailure(
            "agreement subgroup disagrees with recognized intersection")
    HH = product_subgroup(t.H, t2.H, name="HH'")
    if HH.key() != result.H.key():
        raise VerificationFailure(
            "product subgroup disagrees with recognized intersection")
    if not (contains(t, result) and contains(t2, result)):
        raise VerificationFailure("intersection is not a common lower bound")
    return result


class LatticeNode:
    def __init__(self, index, triple, qp, flags, fp_dimension, centralizer_key):
        self.index = index
        self.triple = triple
        self.qp = qp
        self.flags = flags
        self.fp_dimension = fp_dimension
        self.centralizer_key = centralizer_key

    def as_dict(self):
        return {
            "index": self.index,
            "order_K": self.triple.K.order,
            "order_H": self.triple.H.order,
            "trivial_B": self.triple.is_trivial_B(),
            "fp_dimension": self.fp_dimension,
            "flags": dict(self.flags),
        }


def classify(t: Triple) -> dict:
    """Symmetric / non-degenerate / Lagrangian by the subgroup-and-B criteria,
    with triangular / factorizable computed independently from R(K,H,B); the
    two routes must agree."""
    F = t.G.field
    qp = build_quotient(t)
    tbar = centralizer_triple(t)

    symmetric = False
    if t.H.contains_subgroup(t.K):
        # B . iota_{K,H} versus iota^sharp_{K,H} . Bbar, both k[K] -> O(K)
        lhs = mat_compose(F, t.B.mat, _sub_inclusion(t.K, t.H).mat)
        rhs = mat_compose(F, _restriction(tbar.K, t.K).mat, tbar.B.mat)
        symmetric = lhs == rhs

    HK = product_subgroup(t.H, t.K)
    nondeg = False
    if HK.order == t.G.order:
        beta = beta_pairing(t, tbar)
        nondeg = (beta.source.dim == beta.target.dim
                  == mat_rank(F, beta.mat, beta.target.dim))

    lagrangian = (t.K.key() == t.H.key()
                  and t.b_pairing_key() == tbar.b_pairing_key())

    triangular = is_triangular(qp.qt)
    factorizable = is_factorizable(qp.qt)
    if symmetric != triangular:
        raise VerificationFailure(
            f"symmetric ({symmetric}) and triangular ({triangular}) disagree on {t}")
    if nondeg != factorizable:
        raise VerificationFailure(
            f"nondegenerate ({nondeg}) and factorizable ({factorizable}) disagree on {t}")
    if lagrangian and not symmetric:
        raise VerificationFailure("Lagrangian node is not symmetric")
    return {
        "symmetric": symmetric,
        "nondegenerate": nondeg,
        "lagrangian": lagrangian,
        "triangular": triangular,
        "factorizable": factorizable,
    }


def normal_subgroups(G: GroupScheme, budget=100_000):
    """The normal subgroup schemes, by (order, key); each distinct span
    (Echelon key) of a closure is built once.

    Constant groups: each subgroup S found (from 1 on) is closed with each
    element outside it.  Complete: a subgroup T is reached along
    1 < <g_1> < <g_1, g_2> < ... <= T, in at most (subgroups) |G| closures.
    Other groups: closures of the 0/1 sums of basis vectors, refused when
    2^|G| exceeds the budget.  Not complete: Ga_1 x Ga_1 over GF(3) has the
    line of d1(x)d0 + 2 d0(x)d1, which no such sum generates.
    """
    F, n = G.field, G.order
    trivial = trivial_subgroup(G)
    found = {trivial.key(): trivial}
    full = full_subgroup(G)
    found.setdefault(full.key(), full)
    built = [trivial]

    def note(ech):
        if ech.key() not in found:
            found[ech.key()] = subgroup_from_subspace(G, ech)
            built.append(found[ech.key()])

    if G.kind == "constant":
        for S in built:  # grows while it is walked
            for g in range(n):
                if not S.subspace.contains(unit_vec(g, F)):
                    note(hopf_closure(G, [unit_vec(g, F)], base=S.subspace))
    else:
        if 2**n > budget:
            raise BudgetExceeded(f"2^{n} generator subsets exceed budget")
        for mask in range(1, 2**n):
            note(hopf_closure(G, [{i: F.one() for i in range(n) if mask >> i & 1}]))
    subs = [s for s in found.values() if is_normal(s)]
    subs.sort(key=lambda s: (s.order, s.key()))
    return subs


def equivariant_maps(G: GroupScheme, K: SubgroupScheme, H: SubgroupScheme,
                     budget=500_000):
    """All G-equivariant Hopf algebra maps B: k[H] -> O(K), enumerated via
    generator images and filtered by the equivariance test."""
    maps = hopf_algebra_maps(
        H.own.group_algebra, K.own.coordinate_algebra,
        src_grouplikes=group_elements(H),
        tgt_grouplikes=characters(K),
        budget=budget)
    out = []
    for B in maps:
        try:
            out.append(Triple(G, K, H, B))
        except InvalidTriple:
            continue
    return out


def enumerate_triples(G: GroupScheme, budget=500_000):
    """Every triple (K, H, B) on G: all ordered pairs of normal subgroup
    schemes that centralize each other, with every equivariant B, classified
    and arranged into the containment lattice.

    Returns (nodes, edges) where edges are the Hasse covers of contains.
    The node (G, 1, 1) has D(K,H,B) of dimension |G|^2; above
    MAX_DOUBLE_DIM, BudgetExceeded is raised before any work.
    """
    N = G.order ** 2
    if N > MAX_DOUBLE_DIM:
        raise BudgetExceeded(f"the node (G, 1, 1) has D(K,H,B) of dimension "
                             f"{G.order}^2 = {N}, above the ceiling {MAX_DOUBLE_DIM}")
    subs = normal_subgroups(G, budget=budget)
    triples = []
    for K in subs:
        for H in subs:
            if not centralize(K, H):
                continue
            triples.extend(equivariant_maps(G, K, H, budget=budget))
    triples.sort(key=lambda t: (t.K.order, t.K.key(), t.H.order, t.H.key(),
                                t.b_pairing_key()))
    nodes = []
    by_key = {}
    for i, t in enumerate(triples):
        qp = build_quotient(t)
        flags = classify(t)
        tbar = centralizer_triple(t)
        node = LatticeNode(i, t, qp, flags, t.fp_dimension(), tbar.key())
        nodes.append(node)
        by_key[t.key()] = node
    for node in nodes:
        if node.centralizer_key not in by_key:
            raise VerificationFailure("centralizer triple missing from enumeration")
    edges = hasse_edges(nodes)
    return nodes, edges


def hasse_edges(nodes):
    """Covers of the containment order (transitive reduction)."""
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


def hasse_dot(nodes, edges, title="lattice"):
    lines = [f"digraph {title} {{"]
    for node in nodes:
        f = node.flags
        attrs = [
            f'label="K{node.triple.K.order}:H{node.triple.H.order}'
            + ("" if node.triple.is_trivial_B() else ":B") + '"',
            f'fpdim="{node.fp_dimension}"',
            f'symmetric="{f["symmetric"]}"',
            f'nondegenerate="{f["nondegenerate"]}"',
            f'lagrangian="{f["lagrangian"]}"',
        ]
        lines.append(f"  n{node.index} [{', '.join(attrs)}];")
    for i, j in edges:
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines)


class BlockData:
    def __init__(self, representative, class_points, centralizer_order,
                 character, twist, fp_dimension):
        self.representative = representative
        self.class_points = class_points
        self.centralizer_order = centralizer_order
        self.character = character
        self.twist = twist
        self.fp_dimension = fp_dimension

    def as_dict(self):
        return {
            "representative": self.representative,
            "class_size": len(self.class_points),
            "centralizer_order": self.centralizer_order,
            "fp_dimension": self.fp_dimension,
        }


def block_data(t: Triple):
    """Per-conjugacy-class block data of a triple over a constant group:
    classes inside K, centralizers, the evaluation character B_g, the twist
    psi_g, and block Frobenius-Perron dimensions summing to |K|[G:H].

    The algebra-morphism property of p_g(u) = B_g(eta(u_1)) pi(u_2) into the
    psi_g-twisted quotient algebra is verified on all basis pairs.
    """
    G = t.G
    if G.kind != "constant":
        raise NotConstant("block data needs a constant ambient group")
    F = G.field
    qp = build_quotient(t)
    table = G.payload["table"]
    inv = G.payload["inverse"]
    n = G.order
    K_elems = sorted(t.K.subspace.pivots())
    H_elems = set(t.H.subspace.pivots())
    index_GH = G.order // t.H.order

    # conjugacy classes of G(k) contained in K
    seen = set()
    classes = []
    for g in K_elems:
        if g in seen:
            continue
        orbit = sorted({table[f][table[g][inv[f]]] for f in range(n)})
        seen.update(orbit)
        classes.append(orbit)

    blocks = []
    total = 0
    for orbit in classes:
        g = orbit[0]
        cent_elems = [f for f in range(n) if table[f][g] == table[g][f]]
        Gg = subgroup_from_generators(G, [unit_vec(f, F) for f in cent_elems])
        if not all(h in set(cent_elems) for h in H_elems):
            raise VerificationFailure("H does not centralize the class point")
        g_own = to_own_coords(t.K, unit_vec(g, F))

        def pair_K(vec_own):
            acc = F.zero()
            for i, c in vec_own.items():
                w = g_own.get(i)
                if w is not None:
                    acc = F.add(acc, F.mul(c, w))
            return acc

        # B_g(v) = <B(v), g> as a functional on k[H]
        character = {j: pair_K(t.B.apply(unit_vec(j, F)))
                     for j in range(t.H.order)}
        # G_g-invariance of B_g
        for f in cent_elems:
            for j in range(t.H.order):
                v_amb = t.H.iota.apply(unit_vec(j, F))
                conj = ad_l(G, G.group_algebra.antipode_of(unit_vec(f, F)), v_amb)
                own = to_own_coords(t.H, conj)
                lhs = F.zero()
                for jj, c in own.items():
                    lhs = F.add(lhs, F.mul(c, character.get(jj, F.zero())))
                if lhs != character.get(j, F.zero()):
                    raise VerificationFailure("B_g is not centralizer-invariant")

        # twist psi_g(x, y) = <sigma(x, y), g> on the image of k[G_g] classes
        Q = qp.quotient.hopf
        pi = qp.quotient.pi
        cls_of = {}
        for f in cent_elems:
            img = pi.apply(unit_vec(f, F))
            r = max(img)  # single delta class for constant groups
            if img != unit_vec(r, F):
                raise VerificationFailure("constant quotient class is not a delta")
            cls_of[f] = r
        cls_set = sorted(set(cls_of.values()))
        twist = {}
        for r in cls_set:
            for s in cls_set:
                sig = qp.sigma.get((r, s), {})
                twist[(r, s)] = pair_K(sig)

        # p_g(u) = B_g(eta(u_1)) pi(u_2): algebra map into the twisted algebra
        def p_g(f):
            out = {}
            for (x, y), c in G.group_algebra.comult[f].items():
                ex = qp.cleaving.eta.apply(unit_vec(x, F))
                if not ex:
                    continue
                own = to_own_coords(t.H, ex)
                bval = F.zero()
                for jj, cc in own.items():
                    bval = F.add(bval, F.mul(cc, character.get(jj, F.zero())))
                if bval == F.zero():
                    continue
                py = pi.apply(unit_vec(y, F))
                v_axpy(F, out, F.mul(c, bval), py)
            return out

        def twisted_mul(xv, yv):
            out = {}
            for r, cr in xv.items():
                for s, cs in yv.items():
                    psi = twist.get((r, s))
                    if psi is None or psi == F.zero():
                        continue
                    prod = Q.product(unit_vec(r, F), unit_vec(s, F))
                    v_axpy(F, out, F.mul(F.mul(cr, cs), psi), prod)
            return out

        images = Echelon(F, Q.dim)
        for f in cent_elems:
            images.insert(p_g(f))
            for f2 in cent_elems:
                lhs = p_g(table[f][f2])
                rhs = twisted_mul(p_g(f), p_g(f2))
                if lhs != rhs:
                    raise VerificationFailure(
                        "p_g is not an algebra morphism into the twisted algebra")
        if images.dim != len(cls_set):
            raise VerificationFailure("p_g is not surjective onto the classes")
        for j in range(t.H.order):
            v_amb = t.H.iota.apply(unit_vec(j, F))
            expect = {}
            v_axpy(F, expect, character.get(j, F.zero()), Q.unit)
            got = {}
            for f, c in v_amb.items():
                v_axpy(F, got, c, p_g(f))
            if got != expect:
                raise VerificationFailure("p_g(v) != B_g(v) 1 on k[H]")

        k_conn = t.K.own.connected_order()
        fp = k_conn * len(orbit) * index_GH
        total += fp
        blocks.append(BlockData(g, orbit, Gg.order, character, twist, fp))
    if total != t.fp_dimension():
        raise VerificationFailure("block dimensions do not sum to |K|[G:H]")
    return blocks
