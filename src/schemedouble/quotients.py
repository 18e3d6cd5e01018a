"""Quotient pairs of the Drinfeld double: triples (K, H, B), the actions * and
., the cocycle sigma and co-cocycle tau, the quotient Hopf algebra D(K, H, B),
the surjection theta with its kernel ideal, the induced R-matrix and ribbon
element (by two independent routes), and triple recognition from an arbitrary
surjection.
"""

from __future__ import annotations

from functools import cached_property

from .errors import (
    DimensionMismatch,
    InvalidTriple,
    NoFactorization,
    NotHopfMorphism,
    NotSurjective,
    VerificationFailure,
)
from .doubles import QuasiHopfData, drinfeld_double
from .groupschemes import (
    CleavingData,
    GroupScheme,
    Quotient,
    SubgroupScheme,
    ad_l,
    centralize,
    coinvariant_subspace,
    subgroup_from_subspace,
)
from .hopf import (
    LinMap,
    augmentation,
    certify_hopf_map,
    coinvariants,
    convolution_unit,
    crossed_product,
    flat_outer,
    ideal_closure,
    is_hopf_morphism,
    t2_coordinates,
    t2_map,
    t2_outer,
    t2_swap,
    verify_hopf,
)
from .linalg import (
    Echelon,
    ParallelEchelon,
    annihilator,
    mat_apply,
    mat_compose,
    mat_kernel,
    span,
    unit_vec,
    v_axpy,
    v_sub,
)


def trivial_hopf_map(H_sub: SubgroupScheme, K_sub: SubgroupScheme) -> LinMap:
    """B = 1: v -> counit(v) 1 from k[H] to O(K)."""
    return convolution_unit(H_sub.own.group_algebra, K_sub.own.coordinate_algebra)


def to_own_coords(sub: SubgroupScheme, ambient_vec):
    """Coordinates of an ambient k[G] vector inside k[L]'s canonical basis."""
    coords = sub.subspace.coordinates(ambient_vec)
    if coords is None:
        raise VerificationFailure("vector claimed in subgroup span is not")
    F = sub.ambient.field
    return {i: c for i, c in enumerate(coords) if c != F.zero()}


class Triple:
    """(K, H, B): normal, mutually centralizing subgroup schemes plus a
    G-equivariant Hopf algebra map B: k[H] -> O(K).  G keeps one triple per
    key (``kept_triple``), so two kept triples are equal exactly when they
    are the same object."""

    def __init__(self, G: GroupScheme, K: SubgroupScheme, H: SubgroupScheme,
                 B: LinMap):
        self.G = G
        self.K = K
        self.H = H
        self.B = B
        self._pair = None  # kept by build_quotient
        self.validate()

    def star(self, u_ambient, a_own):
        """u * a = q_K(u ->> mu_K(a)); the same for every linear section
        mu_K of q_K (proof in ``groupschemes.section_mu``)."""
        G = self.G
        F = G.field
        lifted = self.K.section.apply(a_own)
        coad = G.coadjoint
        out = {}
        for i, c in u_ambient.items():
            v_axpy(F, out, c, mat_apply(F, coad[i], lifted))
        return self.K.q.apply(out)

    def validate(self):
        """K and H normal and centralizing each other, B a Hopf algebra map,
        and B equivariant: u * B(v) = B(ad_l(u)(v)) for every basis v of
        k[H] and every u in the certified generators A of k[G].

        Checking u in A suffices.  k[G] is a Hopf algebra by construction
        (a checked Cayley table, the closed forms of ga_kernel and mu_p,
        tensor products of these, or a restricted enveloping algebra that
        ``verify_hopf`` certified when it was built), and K and H are
        normal (checked first), so u -> (u * -) is an action of k[G] on
        O(K) and u -> ad_l(u) one on k[H].  Hence U = {u : u * B(v) = B(ad_l(u)(v)) for all v} is a
        subspace closed under products: (u u') * B(v) = u * (u' * B(v))
        = u * B(ad_l(u')(v)) = B(ad_l(u) ad_l(u')(v)) = B(ad_l(u u')(v)).
        U contains A, so it contains every right product of elements of A,
        whose span is k[G] (``HopfAlgebra.certified_generators``); the
        witness is the first failing generator.
        """
        G = self.G
        F = G.field
        if not self.K.is_normal:
            raise InvalidTriple("K is not normal")
        if not self.H.is_normal:
            raise InvalidTriple("H is not normal")
        if not centralize(self.K, self.H):
            raise InvalidTriple("K and H do not centralize each other")
        ok, wit = is_hopf_morphism(self.B)
        if not ok:
            raise InvalidTriple(f"B is not a Hopf algebra map ({wit})")
        pairs = [(self.H.iota.apply(unit_vec(j, F)), self.B.apply(unit_vec(j, F)))
                 for j in range(self.H.order)]
        for i in G.group_algebra.certified_generators:
            u = unit_vec(i, F)
            for j, (v_amb, b_j) in enumerate(pairs):
                lhs = self.star(u, b_j)
                rhs = self.B.apply(to_own_coords(self.H, ad_l(G, u, v_amb)))
                if lhs != rhs:
                    raise InvalidTriple(
                        f"B is not equivariant at (u={G.group_algebra.labels[i]},"
                        f" v={self.H.own.group_algebra.labels[j]})")

    def b_pairing_key(self):
        return _pairing_key(self.B)

    def key(self):
        return (self.K.key(), self.H.key(), self.b_pairing_key())

    def fp_dimension(self):
        return self.K.order * (self.G.order // self.H.order)

    def __repr__(self):
        return (f"Triple(|K|={self.K.order}, |H|={self.H.order}, "
                f"B{'!=1' if not self.is_trivial_B() else '=1'})")

    def is_trivial_B(self):
        return self.B.mat == trivial_hopf_map(self.H, self.K).mat


def _pairing_key(B: LinMap):
    """Canonical key of the bicharacter <B(v), w> over the canonical
    subgroup bases; identifies B independently of basis bookkeeping."""
    return tuple((j, i, str(c)) for j in sorted(B.mat)
                 for i, c in sorted(B.mat[j].items()))


def kept_triple(G: GroupScheme, K: SubgroupScheme, H: SubgroupScheme,
                B: LinMap) -> Triple:
    """The triple G keeps for the key of (K, H, B): validated, and kept on
    G, the first time that key is met, and looked up every time after.  A
    key that fails validation raises InvalidTriple and is not kept."""
    key = (K.key(), H.key(), _pairing_key(B))
    triple = G.triples.get(key)
    if triple is None:
        triple = G.triples[key] = Triple(G, K, H, B)
    return triple


def dot_action(triple: Triple, cleaving: CleavingData, x_quotient, a_own):
    """x . a = gamma_H(x) * a."""
    return triple.star(cleaving.gamma.apply(x_quotient), a_own)


def build_sigma(triple: Triple, cleaving: CleavingData):
    """sigma(x, y) = B(gamma(x_1) gamma(y_1) gamma^{-1}(x_2 y_2)) as a dict
    (r, s) -> O(K) vector over the quotient basis."""
    G = triple.G
    F = G.field
    kg = G.group_algebra
    Q = cleaving.quotient.hopf
    gamma, gamma_inv = cleaving.gamma, cleaving.gamma_inv
    sigma = {}
    for r in range(Q.dim):
        for s in range(Q.dim):
            acc = {}
            for (u1, u2), c1 in Q.comult[r].items():
                gu1 = gamma.apply(unit_vec(u1, F))
                for (w1, w2), c2 in Q.comult[s].items():
                    tail = gamma_inv.apply(Q.product(unit_vec(u2, F), unit_vec(w2, F)))
                    term = kg.product(kg.product(gu1, gamma.apply(unit_vec(w1, F))), tail)
                    v_axpy(F, acc, F.mul(c1, c2), term)
            own = to_own_coords(triple.H, acc)
            val = triple.B.apply(own)
            if val:
                sigma[(r, s)] = val
    return sigma


def build_tau(triple: Triple, cleaving: CleavingData):
    """tau(x) = (B (x) B) taubar(x), with
    taubar(x) = eta^{-1}(gamma(x)_1)_1 eta(gamma(x)_2)
                (x) eta^{-1}(gamma(x)_1)_2 eta(gamma(x)_3).
    Returned per quotient basis vector as a Ten2 over O(K); symmetry of the
    two legs is asserted."""
    G = triple.G
    F = G.field
    kg = G.group_algebra
    Q = cleaving.quotient.hopf
    tau = {}
    for r in range(Q.dim):
        g = cleaving.gamma.apply(unit_vec(r, F))
        acc = {}
        for (g1, g2, g3), c in kg.delta2(g).items():
            w = cleaving.eta_inv.apply(unit_vec(g1, F))
            e2 = cleaving.eta.apply(unit_vec(g2, F))
            e3 = cleaving.eta.apply(unit_vec(g3, F))
            if e2 and e3:
                v_axpy(F, acc, c, kg.tensor_square_product(kg.coproduct(w),
                                                           t2_outer(F, e2, e3)))
        own = t2_coordinates(F, triple.H.subspace, acc)
        if own is None:
            raise VerificationFailure("tensor legs leave the subgroup span")
        out = t2_map(F, triple.B.mat, triple.B.mat, own)
        if t2_swap(out) != out:
            raise VerificationFailure("tau is not symmetric in its legs")
        tau[r] = out
    return tau


class QuotientPair:
    """D(K, H, B) together with everything attached to it."""

    def __init__(self, triple, cleaving, sigma, tau, D, R, V):
        self.triple = triple
        self.cleaving = cleaving
        self.sigma = sigma
        self.tau = tau
        self.D = D
        self.qt = QuasiHopfData(D, R, V)

    @property
    def quotient(self) -> Quotient:
        return self.cleaving.quotient

    def index(self, a, r):
        return a * self.quotient.hopf.dim + r

    @cached_property
    def theta(self) -> LinMap:
        """theta: D(G) ->> D(K,H,B) out of the D(G) kept on G, certified
        (``build_theta``)."""
        return build_theta(self)

    @cached_property
    def kernel(self) -> Echelon:
        """ker(theta).  Two surjections out of D(G) are equivalent exactly
        when their kernels are equal, so its key is the canonical key of the
        pair."""
        return mat_kernel(self.D.field, self.theta.mat, self.theta.source.dim)

    @cached_property
    def lift(self):
        """A right inverse s of theta, as columns: theta(s(e)) = e for each
        basis vector e of D(K,H,B)."""
        F = self.D.field
        pe = ParallelEchelon(F, self.D.dim, self.theta.source.dim)
        for d, img in sorted(self.theta.mat.items()):
            pe.insert(img, unit_vec(d, F))
        return {e: pe.image_of(unit_vec(e, F)) for e in range(self.D.dim)}

    def factor(self, phi: LinMap) -> LinMap:
        """The surjective Hopf map psi: D(K,H,B) -> phi.target with
        psi . theta = phi, for phi out of the D(G) of theta: psi = phi . s
        for the right inverse s = ``lift`` of theta.

        Certificate.  psi theta(e_d) = phi(e_d), that is phi(k_d) = 0 for
        k_d = e_d - s(theta(e_d)), on every basis vector e_d of D(G).  The
        k_d lie in ker(theta) and span it, as every k in ker(theta) is
        k - s(theta(k)); so the check holds exactly when ker(theta) lies in
        ker(phi), and otherwise NoFactorization carries the first k_d that
        phi does not kill.  theta is onto, so psi is then the one linear map
        with psi . theta = phi; ``certify_hopf_map`` checks that it is a
        Hopf map of rank dim target.
        """
        theta = self.theta
        if phi.source is not theta.source:
            raise DimensionMismatch("phi does not start at the D(G) of theta")
        F = self.D.field
        for d in range(theta.source.dim):
            k_d = v_sub(F, unit_vec(d, F), mat_apply(F, self.lift, theta.mat.get(d, {})))
            if phi.apply(k_d):
                raise NoFactorization("phi does not factor through theta", witness=k_d)
        psi = LinMap(self.D, phi.target, mat_compose(F, phi.mat, self.lift))
        return certify_hopf_map(psi, "factor map", onto=True)


def build_quotient(triple: Triple) -> QuotientPair:
    """Assemble D(K,H,B) = O(K)^cop #_sigma^tau k[G/H] with ``crossed_product``
    from the section of K and the cleaving of H, both kept on their
    subgroups; built and certified once per triple and kept on it (the
    triples of ``kept_triple`` are one per key of G).

    product   (a # x)(b # y) = a (x_1 . b) sigma(x_2, y_1) # x_3 y_2,
    coproduct (a # x) -> (a_2 tau(x_1)^1 # x_2) (x) (a_1 tau(x_1)^2 # x_3),
    antipode  as in ``crossed_product``.

    The closed-form R-matrix and ribbon element are attached.  The algebra
    is certified by ``verify_hopf``: associativity by Light's test and
    multiplicativity of Delta and eps on a certified generating set, every
    other axiom, the antipode law among them, on all basis tuples.
    """
    if triple._pair is not None:
        return triple._pair
    G = triple.G
    F = G.field
    cleaving = triple.H.cleaving
    Q = cleaving.quotient.hopf
    OK = triple.K.own.coordinate_algebra
    dot = [{b: img for b in range(OK.dim)
            if (img := dot_action(triple, cleaving, unit_vec(r, F), unit_vec(b, F)))}
           for r in range(Q.dim)]
    sigma = build_sigma(triple, cleaving)
    tau = build_tau(triple, cleaving)
    labels = [f"{a}#{x}" for a in OK.labels for x in Q.labels]
    D = crossed_product(OK, Q, dot, sigma, tau, labels,
                        f"D(K{triple.K.order},H{triple.H.order};{G.name})")

    if D.dim != triple.fp_dimension():
        raise VerificationFailure("dim D(K,H,B) != |K|[G:H]")
    rep = verify_hopf(D)
    if not rep.ok:
        raise VerificationFailure(
            "D(K,H,B) violates Hopf axioms: "
            + "; ".join(f"{n} at {w}" for n, w in rep.failures()))

    R, V = _closed_form_r_v(triple, cleaving)
    triple._pair = QuotientPair(triple, cleaving, sigma, tau, D, R, V)
    return triple._pair


def _b_eta_pi(triple: Triple, cleaving: CleavingData, dw):
    """sum B(eta(w_1)) # pi(w_2) in D(K,H,B) for the Ten2 dw = Delta(w) of
    k[G]; index a * dim k[G/H] + r for e^a # x_r."""
    F = triple.G.field
    mQ = cleaving.quotient.hopf.dim
    out = {}
    for (x, y), c in dw.items():
        eta_x = cleaving.eta.apply(unit_vec(x, F))
        if not eta_x:
            continue
        b_val = triple.B.apply(to_own_coords(triple.H, eta_x))
        pi_y = cleaving.quotient.pi.apply(unit_vec(y, F))
        if b_val and pi_y:
            v_axpy(F, out, c, flat_outer(F, b_val, pi_y, mQ))
    return out


def _left_mul_o(OK, mQ, b, vec):
    """(b # 1) vec in D(K,H,B) for b in O(K)."""
    F = OK.field
    out = {}
    for key, c in vec.items():
        a, r = divmod(key, mQ)
        v_axpy(F, out, c, flat_outer(F, OK.product(b, unit_vec(a, F)), unit_vec(r, F), mQ))
    return out


def _closed_form_r_v(triple: Triple, cleaving: CleavingData):
    """R(K,H,B) = sum_w (B(eta(w_1)) # pi(w_2)) (x) (e^w # 1) and
    V(K,H,B) = sum_w S(e^w) B(eta(w_1)) # pi(w_2), summing over a basis w of
    k[K] with dual basis e^w of O(K).  Computed without building D(G)."""
    G = triple.G
    F = G.field
    kg = G.group_algebra
    OK = triple.K.own.coordinate_algebra
    Q = cleaving.quotient.hopf
    R = {}
    V = {}
    for t in range(triple.K.order):
        w_amb = triple.K.iota.apply(unit_vec(t, F))
        first = _b_eta_pi(triple, cleaving, kg.coproduct(w_amb))
        second = flat_outer(F, unit_vec(t, F), Q.unit, Q.dim)
        v_axpy(F, R, F.one(), t2_outer(F, first, second))
        s_dual = OK.antipode_of(unit_vec(t, F))
        v_axpy(F, V, F.one(), _left_mul_o(OK, Q.dim, s_dual, first))
    return R, V


def build_theta(qp: QuotientPair) -> LinMap:
    """theta(b |><| u) = q_K(b) B(eta_H(u_1)) # pi_H(u_2), out of the D(G)
    kept on G."""
    triple = qp.triple
    G = triple.G
    dd = drinfeld_double(G)
    F = G.field
    kg = G.group_algebra
    OK = triple.K.own.coordinate_algebra
    n = G.order
    mQ = qp.quotient.hopf.dim

    # theta(1 |><| u_i)
    part_of = [_b_eta_pi(triple, qp.cleaving, kg.comult[i]) for i in range(n)]

    mat = {}
    for a in range(n):
        q_col = triple.K.q.apply(unit_vec(a, F))
        for i in range(n):
            out = _left_mul_o(OK, mQ, q_col, part_of[i])
            if out:
                mat[dd.index(a, i)] = out
    return certify_hopf_map(LinMap(dd.D, qp.D, mat), "theta", onto=True)


def _ideal_multipliers(G: GroupScheme):
    """embed_O and embed_kG of the certified generators of O(G) and of k[G]:
    elements that generate D(G) as an algebra, since b |><| u is
    (b |><| 1)(1 |><| u) and both embeddings are algebra maps."""
    F = G.field
    dd = drinfeld_double(G)
    return ([dd.embed_O.apply(unit_vec(a, F))
             for a in G.coordinate_algebra.certified_generators]
            + [dd.embed_kG.apply(unit_vec(i, F))
               for i in G.group_algebra.certified_generators])


def theta_kernel_matches_ideal(qp: QuotientPair) -> bool:
    """ker(theta) must equal the ideal I generated by O(G/K)^+ |><| 1 and
    {mu_K(B(v)) |><| 1 - 1 |><| v}, as subspaces of D(G).

    Certificate.  Every generator is first checked to lie in ker(theta).
    The span of the generators is then closed under left and right
    multiplication by the multipliers of ``_ideal_multipliers`` only, giving
    a subspace S.  ``build_theta`` has checked theta(x y) = theta(x)
    theta(y) on every basis pair, so ker(theta) is a two-sided ideal of
    D(G); it contains the generators, so S within I within ker(theta).
    ``build_theta`` has also checked rank(theta) = dim D(K,H,B), so
    dim ker(theta) = N - dim D(K,H,B); when dim S reaches it, the three are
    equal.  No associativity of D(G) is used.  Only when S falls short is
    the closure continued under the whole basis, which gives I exactly, and
    compared with the kernel of theta.
    """
    triple = qp.triple
    G = triple.G
    F = G.field
    dd = drinfeld_double(G)
    D = dd.D
    N = D.dim
    theta = qp.theta

    coinv = coinvariant_subspace(G, triple.K)
    gens = [dd.embed_O.apply(c)
            for c in augmentation(G.coordinate_algebra, coinv.basis())]
    for j in range(triple.H.order):
        bv = triple.B.apply(unit_vec(j, F))
        lifted = triple.K.section.apply(bv)
        v_amb = triple.H.iota.apply(unit_vec(j, F))
        gens.append(v_sub(F, dd.embed_O.apply(lifted), dd.embed_kG.apply(v_amb)))

    ideal = Echelon(F, N)
    for g in gens:
        if theta.apply(g):
            return False
        ideal.insert(g)
    ideal_closure(D, ideal, _ideal_multipliers(G))
    if ideal.dim == N - qp.D.dim:
        return True
    return ideal_closure(D, ideal).key() == qp.kernel.key()


def quotient_r_and_v(qp: QuotientPair):
    """The closed-form (R, V) and the pushed forward (theta (x) theta)(R)
    and theta(V) of the canonical (R, V) of D(G); the two routes must agree
    entrywise."""
    theta = qp.theta
    can = drinfeld_double(qp.triple.G).qt
    pushed_R = t2_map(qp.D.field, theta.mat, theta.mat, can.R)
    pushed_V = theta.apply(can.V)
    if pushed_R != qp.qt.R or pushed_V != qp.qt.V:
        raise VerificationFailure(
            "closed-form R/V disagree with the pushforward along theta")
    return qp.qt, QuasiHopfData(qp.D, pushed_R, pushed_V)


def recognize_triple(G: GroupScheme, phi: LinMap):
    """Recover (K, H, B) from a surjective Hopf algebra map phi out of the
    D(G) kept on G, together with the isomorphism phibar: D(K,H,B) -> target
    with phibar . theta = phi.  A phi out of any other algebra is refused.

    K and H are the subgroups G keeps on their spans, and the triple the
    one G keeps for its key (``kept_triple``), so a triple met before, by
    recognition or enumeration, is not validated again and reuses its
    pair, already built and certified, and its theta.  phibar is
    ``qp.factor(phi)``, onto a target of dim D(K,H,B) (checked), so an
    isomorphism; a phi that does not factor through the recognized theta
    raises NoFactorization, not VerificationFailure.  phi is certified
    first, so phi(O(G)) holds phi(1) = 1 and eps(phi(b |><| 1)) = eps(b):
    ``augmentation`` of the phi(e^a |><| 1) spans phi(O(G))^+."""
    dd = drinfeld_double(G)
    if phi.source is not dd.D:
        raise DimensionMismatch("phi does not start at the D(G) kept on G")
    F = G.field
    n = G.order
    D_target = phi.target
    ok, wit = is_hopf_morphism(phi)
    if not ok:
        raise NotHopfMorphism(f"phi is not a Hopf morphism: {wit}")
    if phi.rank() != D_target.dim:
        raise NotSurjective("phi is not surjective")

    # K: annihilator in k[G] of ker(phi | O(G))
    restr = {a: phi.apply(dd.embed_O.apply(unit_vec(a, F))) for a in range(n)}
    K = subgroup_from_subspace(G, annihilator(mat_kernel(F, restr, n)), name="K")

    # H: kernel of u -> class of phi(1 |><| u) modulo the ideal of phi(O)^+
    ideal = ideal_closure(D_target, span(F, D_target.dim,
                                         augmentation(D_target, restr.values())))
    tau_map = {i: ideal.reduce(phi.apply(dd.embed_kG.apply(unit_vec(i, F))))
               for i in range(n)}
    tau_unit = ideal.reduce(phi.apply(dd.embed_kG.apply(G.group_algebra.unit)))
    # k[H] = {u : u_1 (x) tau(u_2) = u (x) tau(1)}
    kerH = coinvariants(G.group_algebra, tau_map, tau_unit)
    H = subgroup_from_subspace(G, kerH, name="H")

    # B: phi(1 |><| v) pulled back through psi(a) = phi(mu_K(a) |><| 1)
    OK = K.own.coordinate_algebra
    psi_cols = {a: phi.apply(dd.embed_O.apply(K.section.apply(unit_vec(a, F))))
                for a in range(K.order)}
    pe = ParallelEchelon(F, D_target.dim, K.order)
    for a in range(K.order):
        if pe.insert(psi_cols[a], unit_vec(a, F)) == "conflict":
            raise VerificationFailure("psi is not injective")
    B_mat = {}
    for j in range(H.order):
        v_amb = H.iota.apply(unit_vec(j, F))
        target = phi.apply(dd.embed_kG.apply(v_amb))
        sol = pe.image_of(target)
        if sol is None:
            raise VerificationFailure("phi(k[H]) leaves the O(K) image")
        B_mat[j] = sol
    B = LinMap(H.own.group_algebra, OK, B_mat)

    qp = build_quotient(kept_triple(G, K, H, B))
    if qp.D.dim != D_target.dim:
        raise VerificationFailure("recognition map is not an isomorphism")
    return qp, qp.factor(phi)

