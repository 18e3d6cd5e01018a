"""The subcategory calculus on triples: centralizers with their braiding
certificate, containment, intersection as the maximal common quotient,
symmetric/non-degenerate/Lagrangian predicates cross-checked against direct
R-matrix computations, exhaustive triple enumeration with Hasse diagram, and
block data over constant groups.
"""

from __future__ import annotations

from .errors import BudgetExceeded, InvalidTriple, NotConstant, VerificationFailure
from .doubles import (
    canonical_r_and_v,
    drinfeld_double,
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
    inclusion,
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
    mat_apply,
    mat_compose,
    mat_kernel,
    mat_key,
    mat_rank,
    mat_transpose,
    span,
    unit_vec,
    v_axpy,
    v_scale,
)
from .quotients import (
    QuotientPair,
    Triple,
    build_quotient,
    kept_triple,
    recognize_triple,
    to_own_coords,
)
from .serialize import MAX_DOUBLE_DIM


def _bbar(t: Triple):
    """The matrix of Bbar = B^* . S: k[K] -> O(H), where B^*, the dual of
    B: k[H] -> O(K), is its transpose in the dual bases."""
    return mat_compose(t.G.field, mat_transpose(t.B.mat), t.K.own.group_algebra.antipode)


def centralizer_triple(t: Triple) -> Triple:
    """(H, K, Bbar): the triple G keeps for that key, validated the first
    time it is met."""
    return kept_triple(t.G, t.H, t.K, LinMap(t.K.own.group_algebra,
                                             t.H.own.coordinate_algebra, _bbar(t)))


def centralizer_certificate(qp: QuotientPair, qp_bar: QuotientPair) -> bool:
    """(theta (x) theta_bar)(R21 R) = 1 (x) 1, the exact mutual-centralizing
    witness in D(K,H,B) (x) D(H,K,Bbar); R21 R is the monodromy of the
    canonical R that G's D(G) keeps."""
    F = qp.D.field
    mono = monodromy(canonical_r_and_v(drinfeld_double(qp.triple.G)))
    out = t2_map(F, qp.theta().mat, qp_bar.theta().mat, mono)
    return out == t2_outer(F, qp.D.unit, qp_bar.D.unit)


def contains(t: Triple, t2: Triple) -> bool:
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


def beta_pairing(t: Triple, t2: Triple) -> LinMap:
    """beta_{B,B'}: k[K meet K'] -> O(H meet H'), the convolution of the
    transported B^* with the transported B'bar.  Its kernel cuts out the
    subgroup where the two bicharacters agree."""
    F = t.G.field
    KK = intersect_subgroup(t.K, t2.K)
    HH = intersect_subgroup(t.H, t2.H)

    def transported(s, mat):
        """mat: k[s.K] -> O(s.H) after k[KK] -> k[s.K], before O(s.H) ->> O(HH)."""
        restrict = mat_transpose(inclusion(HH, s.H))
        return LinMap(KK.own.group_algebra, HH.own.coordinate_algebra, mat_compose(
            F, restrict, mat_compose(F, mat, inclusion(KK, s.K))))

    return convolution(transported(t, mat_transpose(t.B.mat)), transported(t2, _bbar(t2)))


def agreement_subgroup(t: Triple, t2: Triple) -> SubgroupScheme:
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


def intersect(t: Triple, t2: Triple) -> Triple:
    """The triple of the maximal common quotient pair: quotient D(G) by the
    joint kernel ideal of the two thetas and recognize the result.  The
    agreement subgroup computed from beta and the product HH' are asserted to
    match the recognized components."""
    F = t.G.field
    D = drinfeld_double(t.G).D
    theta = build_quotient(t).theta()
    theta2 = build_quotient(t2).theta()
    joint = mat_kernel(F, theta.mat, D.dim)
    for row in mat_kernel(F, theta2.mat, D.dim).basis():
        joint.insert(row)
    Q, pi = quotient_by_hopf_ideal(D, joint)
    qp_int, _ = recognize_triple(t.G, pi)
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
    k_in_h = inclusion(t.K, t.H)
    if k_in_h is not None:
        # B . iota_{K,H} versus iota^sharp_{K,H} . Bbar, both k[K] -> O(K)
        lhs = mat_compose(F, t.B.mat, k_in_h)
        rhs = mat_compose(F, mat_transpose(k_in_h), tbar.B.mat)
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
    (Echelon key) of a closure is built once, as the subgroup G keeps on it
    (``subgroup_from_subspace``).

    Constant groups: each subgroup S found (from 1 on) is closed with each
    element outside it.  Complete: a subgroup T is reached along
    1 < <g_1> < <g_1, g_2> < ... <= T, in at most (subgroups) |G| closures.
    Other groups: closures of the 0/1 sums of basis vectors, refused when
    2^|G| exceeds the budget.  Not complete: Ga_1 x Ga_1 over GF(3) has the
    line of d1(x)d0 + 2 d0(x)d1, which no such sum generates.
    """
    F, n = G.field, G.order
    trivial, full = trivial_subgroup(G), full_subgroup(G)
    subs = [trivial] if full is trivial else [trivial, full]
    if G.kind == "constant":
        spans = (hopf_closure(G, [unit_vec(g, F)], base=S.subspace)
                 for S in subs  # grows while it is walked
                 for g in range(n) if not S.subspace.contains(unit_vec(g, F)))
    else:
        if 2**n > budget:
            raise BudgetExceeded(f"2^{n} generator subsets exceed budget")
        spans = (hopf_closure(G, [{i: F.one() for i in range(n) if mask >> i & 1}])
                 for mask in range(1, 2**n))
    keys = {S.key() for S in subs}
    for ech in spans:
        if ech.key() not in keys:
            keys.add(ech.key())
            subs.append(subgroup_from_subspace(G, ech))
    return sorted((S for S in subs if is_normal(S)), key=lambda s: (s.order, s.key()))


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
            out.append(kept_triple(G, K, H, B))
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


def _bits(mask):
    """The positions of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def hasse_edges(nodes):
    """Covers of the containment order (transitive reduction), by i, then j.

    Node i lies below node j when ``contains(nodes[j].triple,
    nodes[i].triple)``.  The subgroup conditions are read once per pair of
    (K, H) classes from the table G keeps; within a related pair of classes
    the nodes are bucketed on the key of their side of the B condition, so
    each restricted B is formed once per class pair, not once per node
    pair.  above[i] is the bitset of the nodes j != i above node i; j covers
    i when it is in above[i] and in above[k] for no k in above[i]."""
    classes = {}
    for i, node in enumerate(nodes):
        classes.setdefault((node.triple.K, node.triple.H), []).append(i)
    above = [0] * len(nodes)
    for (K, H), lower in classes.items():
        for (K2, H2), upper in classes.items():
            k_inc, h_inc = inclusion(K, K2), inclusion(H2, H)
            if k_inc is None or h_inc is None:
                continue
            F, res = K.ambient.field, mat_transpose(k_inc)
            below = {}
            for i in lower:
                side = mat_key(mat_compose(F, nodes[i].triple.B.mat, h_inc))
                below[side] = below.get(side, 0) | 1 << i
            for j in upper:
                side = mat_key(mat_compose(F, res, nodes[j].triple.B.mat))
                for i in _bits(below.get(side, 0) & ~(1 << j)):
                    above[i] |= 1 << j
    edges = []
    for i, up in enumerate(above):
        higher = 0
        for k in _bits(up):
            higher |= above[k]
        edges.extend((i, j) for j in _bits(up & ~higher))
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


def _dot(F, u, w):
    """sum_i u_i w_i of two sparse vectors."""
    acc = F.zero()
    for i, c in u.items():
        if i in w:
            acc = F.add(acc, F.mul(c, w[i]))
    return acc


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
        # B_g(v) = <B(v), g> as a functional on k[H]
        character = {j: _dot(F, t.B.apply(unit_vec(j, F)), g_own)
                     for j in range(t.H.order)}
        # G_g-invariance of B_g
        for f in cent_elems:
            for j, v_amb in enumerate(t.H.subspace.basis()):
                conj = ad_l(G, G.group_algebra.antipode_of(unit_vec(f, F)), v_amb)
                if _dot(F, to_own_coords(t.H, conj), character) != character[j]:
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
        twist = {(r, s): _dot(F, qp.sigma.get((r, s), {}), g_own)
                 for r in cls_set for s in cls_set}

        # p_g(u) = B_g(eta(u_1)) pi(u_2): algebra map into the twisted algebra
        def p_g(f):
            out = {}
            for (x, y), c in G.group_algebra.comult[f].items():
                ex = qp.cleaving.eta.apply(unit_vec(x, F))
                if not ex:
                    continue
                bval = _dot(F, to_own_coords(t.H, ex), character)
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

        p = {f: p_g(f) for f in cent_elems}  # G_g is closed under products
        for f in cent_elems:
            for f2 in cent_elems:
                if p[table[f][f2]] != twisted_mul(p[f], p[f2]):
                    raise VerificationFailure(
                        "p_g is not an algebra morphism into the twisted algebra")
        if span(F, Q.dim, p.values()).dim != len(cls_set):
            raise VerificationFailure("p_g is not surjective onto the classes")
        for j, v_amb in enumerate(t.H.subspace.basis()):  # H inside G_g, checked above
            if mat_apply(F, p, v_amb) != v_scale(F, character[j], Q.unit):
                raise VerificationFailure("p_g(v) != B_g(v) 1 on k[H]")

        k_conn = t.K.own.connected_order()
        fp = k_conn * len(orbit) * index_GH
        total += fp
        blocks.append(BlockData(g, orbit, Gg.order, character, twist, fp))
    if total != t.fp_dimension():
        raise VerificationFailure("block dimensions do not sum to |K|[G:H]")
    return blocks
