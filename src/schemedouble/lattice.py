"""The subcategory calculus on triples: centralizers, containment, the
pairing beta whose kernel cuts out where two bicharacters agree,
symmetric/non-degenerate/Lagrangian predicates cross-checked against direct
R-matrix computations, exhaustive triple enumeration with Hasse diagram, and
block data over constant groups.
"""

from __future__ import annotations

from .errors import (
    BudgetExceeded,
    InvalidTriple,
    NotConstant,
    VerificationFailure,
)
from .doubles import is_factorizable, is_triangular
from .groupschemes import (
    GroupScheme,
    SubgroupScheme,
    ad_l,
    centralize,
    full_subgroup,
    hopf_closure,
    inclusion,
    intersect_subgroup,
    product_subgroup,
    subgroup_from_generators,
    subgroup_from_subspace,
    trivial_subgroup,
)
from .hopf import (
    LinMap,
    convolution,
    defect_complement,
    hopf_algebra_maps,
)
from .linalg import (
    echelon_points,
    mat_apply,
    mat_compose,
    mat_key,
    mat_rank,
    mat_transpose,
    span,
    unit_vec,
    v_axpy,
    v_scale,
)
from .quotients import (
    Triple,
    build_quotient,
    kept_triple,
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


class LatticeNode:
    def __init__(self, index, triple, flags, fp_dimension):
        self.index = index
        self.triple = triple
        self.flags = flags
        self.fp_dimension = fp_dimension

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

    lagrangian = t.K is t.H and t.b_pairing_key() == tbar.b_pairing_key()

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


def normal_subgroups(G: GroupScheme):
    """The normal subgroup schemes, by (order, key).  From 1 and G, each
    subgroup S found is closed (``hopf_closure`` over S) with each
    grouplike of k[G] (``HopfAlgebra.grouplikes``) outside S and with each
    non-zero vector of a complement of S in W_S (``defect_complement(k[G],
    S)``); each distinct span of a closure is built once, as the subgroup G
    keeps on it (``subgroup_from_subspace``), and walked in turn.

    Proof that every subgroup scheme L is found.  k[L] is pointed for
    every G this tool builds (the points of constant and infinitesimal
    groups, and of their products, subgroups and quotients, are rational
    over k, and ``grouplikes`` finds them all), so k[L] = k[L0] k[L(k)]
    with k[L0] the irreducible component of 1 (Cartier-Gabriel-Kostant;
    Montgomery, Hopf Algebras and Their Actions on Rings, Ch. 5).  Let S
    be a subgroup found, S strictly inside k[L].  If a grouplike of L lies
    outside S, its closure with S lies in k[L] and grows S.  Otherwise
    k[L(k)] lies in S and k[L0] does not: take v in k[L0] outside S, in
    the augmentation ideal (1 is in S), of least coradical degree m.  By
    the Taft-Wilson theorem Delta(v) - v (x) 1 - 1 (x) v lies in
    k[L0]_{m-1} (x) k[L0]_{m-1}, inside S (x) S by the choice of m, so v
    is in W_S but not in S.  The complement vector congruent to v modulo
    S is tried, and its closure with S, that of v, lies in k[L] and grows
    S.  So from 1 a chain of closures reaches L.

    On an etale G, W_S = S: reduced modulo S, which its grouplikes span,
    a v outside S has a coefficient c != 0 on a grouplike g outside S,
    and the term c g (x) g of its defect lies outside S (x) S.  So a
    constant group runs the closures by its elements outside S alone.
    """
    F = G.field
    trivial, full = trivial_subgroup(G), full_subgroup(G)
    subs = [trivial] if full is trivial else [trivial, full]

    def generators(S):
        yield from (g for g in G.group_algebra.grouplikes if not S.subspace.contains(g))
        yield from (c for c in echelon_points(defect_complement(G.group_algebra, S.subspace), F)
                    if c)

    spans = (hopf_closure(G, [v], base=S.subspace)
             for S in subs for v in generators(S))  # subs grows while it is walked
    keys = {S.key() for S in subs}
    for ech in spans:
        if ech.key() not in keys:
            keys.add(ech.key())
            subs.append(subgroup_from_subspace(G, ech))
    return sorted((S for S in subs if S.is_normal), key=lambda s: (s.order, s.key()))


def equivariant_maps(G: GroupScheme, K: SubgroupScheme, H: SubgroupScheme):
    """All G-equivariant Hopf algebra maps B: k[H] -> O(K), enumerated via
    generator images and filtered by the equivariance test."""
    maps = hopf_algebra_maps(H.own.group_algebra, K.own.coordinate_algebra)
    out = []
    for B in maps:
        try:
            out.append(kept_triple(G, K, H, B))
        except InvalidTriple:
            continue
    return out


def enumerate_triples(G: GroupScheme):
    """Every triple (K, H, B) on G: all ordered pairs of normal subgroup
    schemes that centralize each other, with every equivariant B, classified
    and arranged into the containment lattice.

    Returns (nodes, edges) where edges are the Hasse covers of the
    containment order (``hasse_edges``).
    The node (G, 1, 1) has D(K,H,B) of dimension |G|^2; above
    MAX_DOUBLE_DIM, BudgetExceeded is raised before any work.
    """
    N = G.order ** 2
    if N > MAX_DOUBLE_DIM:
        raise BudgetExceeded(f"the node (G, 1, 1) has D(K,H,B) of dimension "
                             f"{G.order}^2 = {N}, above the ceiling {MAX_DOUBLE_DIM}")
    subs = normal_subgroups(G)
    triples = []
    for K in subs:
        for H in subs:
            if not centralize(K, H):
                continue
            triples.extend(equivariant_maps(G, K, H))
    triples.sort(key=lambda t: (t.K.order, t.K.key(), t.H.order, t.H.key(),
                                t.b_pairing_key()))
    nodes = [LatticeNode(i, t, classify(t), t.fp_dimension())
             for i, t in enumerate(triples)]
    kept = set(triples)  # by identity: G keeps one triple per key
    if any(centralizer_triple(t) not in kept for t in triples):
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

    Node i lies below node j when the subcategory of node i sits inside
    that of node j: K_i inside K_j, H_j inside H_i, and B_j restricted
    along K_i equals B_i restricted along H_j.  The subgroup conditions are read once per pair of
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
    def __init__(self, representative, class_points, centralizer_order, fp_dimension):
        self.representative = representative
        self.class_points = class_points
        self.centralizer_order = centralizer_order
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
    classes inside K, centralizers, FP dimensions summing to |K|[G:H].

    The evaluation character B_g and the twist psi_g serve the checks only:
    p_g(u) = B_g(eta(u_1)) pi(u_2) is an algebra morphism into the
    psi_g-twisted quotient algebra on all basis pairs.
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
        blocks.append(BlockData(g, orbit, Gg.order, fp))
    if total != t.fp_dimension():
        raise VerificationFailure("block dimensions do not sum to |K|[G:H]")
    return blocks
