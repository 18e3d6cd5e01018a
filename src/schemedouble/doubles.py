"""The Drinfeld double D(G) = O(G)^cop |><| k[G] with its canonical R-matrix
and ribbon element, and generic checkers for quasitriangular, ribbon,
triangular, and factorizable structures on any Hopf algebra carrying a
candidate R.

D(G) is built by ``hopf.crossed_product``, the builder of every quotient
D(K, H, B), as its K = G, H = 1 case with trivial sigma and tau.

Basis order in D(G) is (coordinate index, group index) row-major: the pair
(a, i) standing for delta_a |><| u_i sits at a * |G| + i.
"""

from __future__ import annotations

from .errors import BudgetExceeded, MissingRibbonElement, NoSolution, VerificationFailure
from .groupschemes import GroupScheme, coadjoint_matrices
from .hopf import (
    HopfAlgebra,
    LinMap,
    VerificationReport,
    certified_generators,
    crossed_product,
    first_failure,
    flat_outer,
    is_hopf_morphism,
    t2_contract,
    t2_map,
    t2_outer,
    t2_swap,
    variant,
)
from .linalg import (
    mat_apply,
    mat_identity,
    mat_rank,
    solve_affine,
    unit_vec,
    v_axpy,
    v_scale,
)
from .serialize import MAX_DOUBLE_DIM


class DoubleData:
    """D(G) with the embeddings of O(G)^cop and k[G], the projection onto
    k[G], and the canonical (R, V) once ``canonical_r_and_v`` has formed it.
    One per G, kept on it by ``drinfeld_double``."""

    def __init__(self, G, D, embed_O, embed_kG, proj_kG):
        self.G = G
        self.D = D
        self.embed_O = embed_O
        self.embed_kG = embed_kG
        self.proj_kG = proj_kG
        self._qt = None

    def index(self, a, i):
        return a * self.G.order + i


def drinfeld_double(G: GroupScheme) -> DoubleData:
    """D(G), built the first time it is asked for and kept on G, so every
    caller gets the same DoubleData (and a kept ``verify_hopf`` report on
    its algebra is seen by all of them)."""
    if G._double is None:
        G._double = _build_double(G)
    return G._double


def _build_double(G: GroupScheme) -> DoubleData:
    """Build D(G) with product (b |><| u)(b' |><| u') = b(u_1 ->> b') |><| u_2 u'
    on the tensor coalgebra of O(G)^cop (x) k[G].

    This is the K = G, H = 1 case of ``crossed_product``: the dot action is
    the coadjoint action u ->> b, sigma(x, y) = eps(x) eps(y) 1 and
    tau(x) = eps(x) 1 (x) 1.  Both are multiples of the unit, so no product
    with them is formed, and every cell has the same keys in the same order
    as the term-by-term expansion over (x, y) in Delta(u_i), then delta,
    then u.

    The embeddings of O(G)^cop and k[G], the projection onto k[G], and the
    normality of O(G) inside D(G) are verified on all basis tuples.  A
    double of dimension |G|^2 above MAX_DOUBLE_DIM raises BudgetExceeded
    before anything is built.
    """
    n = G.order
    N = n * n
    if N > MAX_DOUBLE_DIM:
        raise BudgetExceeded(
            f"D({G.name or 'G'}) has dimension {n}^2 = {N}, above the ceiling {MAX_DOUBLE_DIM}")
    kg = G.group_algebra
    O = G.coordinate_algebra
    F = G.field
    idx = lambda a, i: a * n + i
    coad = coadjoint_matrices(G)

    labels = [f"{O.labels[a]}><{kg.labels[i]}" for a in range(n) for i in range(n)]

    # sigma(x, y) = eps(x) eps(y) 1 and tau(x) = eps(x) 1 (x) 1
    eps = kg.counit
    times = lambda c, v: v if c == F.one() else v_scale(F, c, v)
    sigma = {(r, s): times(F.mul(er, es), O.unit)
             for r, er in eps.items() for s, es in eps.items()}
    unit2 = t2_outer(F, O.unit, O.unit)
    tau = {r: times(er, unit2) for r, er in eps.items()}
    D = crossed_product(O, kg, coad, sigma, tau, labels, f"D({G.name})")

    embed_O = LinMap(variant(O, "cop"), D,
                     {a: flat_outer(F, unit_vec(a, F), kg.unit, n) for a in range(n)})
    embed_kG = LinMap(kg, D,
                      {i: flat_outer(F, O.unit, unit_vec(i, F), n) for i in range(n)})
    proj_kG = LinMap(D, kg, {idx(a, i): {i: ea} for a, ea in sorted(O.counit.items())
                             for i in range(n)})

    for f, nm in ((embed_O, "O(G)^cop embedding"),
                  (embed_kG, "k[G] embedding"),
                  (proj_kG, "k[G] projection")):
        ok, wit = is_hopf_morphism(f)
        if not ok:
            raise VerificationFailure(f"{nm} fails: {wit}")
    # normality of O(G): (1|><|u_1)(b|><|1)(1|><|S(u_2)) = (u ->> b) |><| 1,
    # with the embedded basis vectors and antipodes formed once each
    u_img = [embed_kG.apply(unit_vec(x, F)) for x in range(n)]
    su_img = [embed_kG.apply(kg.antipode_of(unit_vec(y, F))) for y in range(n)]
    b_img = [embed_O.apply(unit_vec(b, F)) for b in range(n)]
    for i in range(n):
        for b in range(n):
            acc = {}
            for (x, y), c in kg.comult[i].items():
                v_axpy(F, acc, c, D.product(D.product(u_img[x], b_img[b]), su_img[y]))
            expect = embed_O.apply(mat_apply(F, coad[i], unit_vec(b, F)))
            if acc != expect:
                raise VerificationFailure(
                    f"O(G) not normal in D(G) at ({i},{b})")

    return DoubleData(G, D, embed_O, embed_kG, proj_kG)


class QuasiHopfData:
    """A Hopf algebra with a candidate R-matrix (Ten2) and optional ribbon
    element (Vec).  R and V are not changed after construction: R21 R and
    (S (x) id)R are formed once and kept, and so is whether
    ``verify_quasitriangular`` found R invertible with inverse (S (x) id)R."""

    def __init__(self, algebra: HopfAlgebra, R, V=None):
        self.algebra = algebra
        self.R = R
        self.V = V
        self._monodromy = None
        self._r_inverse = None
        self._r_invertible = False  # set by verify_quasitriangular


def canonical_r_and_v(dd: DoubleData) -> QuasiHopfData:
    """R = sum_u (1 |><| u) (x) (delta_u |><| 1) and V = sum_u S(delta_u) |><| u,
    formed once per D(G) and kept on dd with what is derived from them."""
    if dd._qt is not None:
        return dd._qt
    G = dd.G
    F = G.field
    n = G.order
    O = G.coordinate_algebra
    R = t2_map(F, dd.embed_kG.mat, dd.embed_O.mat,
               {(i, i): F.one() for i in range(n)})
    V = {}
    for i in range(n):
        v_axpy(F, V, F.one(), flat_outer(F, O.antipode.get(i, {}), unit_vec(i, F), n))
    dd._qt = QuasiHopfData(dd.D, R, V)
    return dd._qt


def monodromy(Q: QuasiHopfData):
    """R_21 R, the square-braiding element; formed once per Q."""
    if Q._monodromy is None:
        Q._monodromy = Q.algebra.tensor_square_product(t2_swap(Q.R), Q.R)
    return Q._monodromy


def r_inverse_candidate(Q: QuasiHopfData):
    """(S (x) id)(R), the inverse of any genuine R-matrix; formed once per Q."""
    if Q._r_inverse is None:
        H = Q.algebra
        F = H.field
        Q._r_inverse = t2_map(F, H.antipode, mat_identity(H.dim, F), Q.R)
    return Q._r_inverse


def _leg_sum(H, terms):
    """sum c x (x) y (x) z over (c, x, y, z) in terms, as a Ten3."""
    F = H.field
    out = {}
    zero = F.zero()
    add, mul = F.add, F.mul
    for c, x, y, z in terms:
        for i, cx in x.items():
            ci = mul(c, cx)
            for j, cy in y.items():
                cj = mul(ci, cy)
                for k, cz in z.items():
                    key = (i, j, k)
                    s = add(out.get(key, zero), mul(cj, cz))
                    if s == zero:
                        out.pop(key, None)
                    else:
                        out[key] = s
    return out


def hexagon_products(H, R):
    """(R13 R23, R13 R12) in H (x) H (x) H, formed leg by leg over the
    pairs of terms of R whose cell (b, b'), resp. (a, a'), is non-empty
    (see ``verify_quasitriangular`` for why this is exact).

    A pair with an empty cell adds 0 to the sum, so skipping it leaves the
    sum unchanged.  The pairs are found by walking, for each term of R, the
    non-empty cells of its leg (from ``cells``) and looking up the terms of
    R grouped by the same leg."""
    F = H.field
    one = F.one()
    by_left = H.cells()[0]
    legs = {i for ab in R for i in ab}
    left1 = {i: H.product({i: one}, H.unit) for i in legs}
    right1 = {i: H.product(H.unit, {i: one}) for i in legs}

    def pairs(leg):
        """(c c', a, b, a', b', cell) over the pairs of terms c e_a (x) e_b,
        c' e_a' (x) e_b' of R whose cell on that leg is non-empty."""
        groups = {}
        for (a, b), c in R.items():
            groups.setdefault((a, b)[leg], []).append((a, b, c))
        for (a, b), c in R.items():
            for k, cell in by_left[(a, b)[leg]].items():
                for a2, b2, c2 in groups.get(k, ()):
                    yield F.mul(c, c2), a, b, a2, b2, cell

    r13r23 = _leg_sum(H, ((c, left1[a], right1[a2], cell)
                          for c, a, b, a2, b2, cell in pairs(1)))
    r13r12 = _leg_sum(H, ((c, cell, right1[b2], left1[b])
                          for c, a, b, a2, b2, cell in pairs(0)))
    return r13r23, r13r12


def verify_quasitriangular(Q: QuasiHopfData) -> VerificationReport:
    """Counit laws, invertibility, the intertwining relation
    R Delta(h) = Delta^cop(h) R, and both hexagon identities, all exact.

    The hexagon right-hand sides come from ``hexagon_products``.  With
    R = sum R_ab e_a (x) e_b, R13 = sum R_ab e_a (x) 1 (x) e_b,
    R23 = sum R_ab 1 (x) e_a (x) e_b and R12 = sum R_ab e_a (x) e_b (x) 1.
    The product of H (x) H (x) H is legwise,
    (x (x) y (x) z)(x' (x) y' (x) z') = x x' (x) y y' (x) z z', and
    bilinear, so

        R13 R23 = sum R_ab R_a'b' (e_a 1) (x) (1 e_a') (x) (e_b e_b'),
        R13 R12 = sum R_ab R_a'b' (e_a e_a') (x) (1 e_b') (x) (e_b 1),

    summed over pairs of terms of R.  This uses only the definition of the
    product on H (x) H (x) H, not the unit law or any other axiom, so it
    holds for any structure constants.  Expanding 1 into basis vectors
    first, as a product of Ten3s does, costs |1|^2 times as many pair
    products.

    The products with R, in the invertibility row and in every row of
    R Delta = Delta^cop R, come from one ``t2_times`` index of R as the left
    factor and one as the right factor; each skips only pairs of terms
    with an empty cell, whose products are 0, so every product is exact.

    R Delta = Delta^cop R is checked on the certified generators A of H
    (``certified_generators``) when H carries a passing ``verify_hopf``
    report (``HopfAlgebra.certified``), and on every basis vector
    otherwise.  Proof: the report makes H, hence H (x) H, associative and
    Delta, hence Delta^cop, multiplicative, so
    M = {h : R Delta(h) = Delta^cop(h) R} is a subspace closed under
    products: R Delta(h g) = R Delta(h) Delta(g) = Delta^cop(h) R Delta(g)
    = Delta^cop(h) Delta^cop(g) R = Delta^cop(h g) R.  M contains A, so it
    contains every right product of elements of A, whose span is H.  The
    witness is then the first failing generator.  Whether R rinv =
    rinv R = 1 (x) 1 is kept on Q for ``verify_ribbon``.
    """
    H = Q.algebra
    F = H.field
    n = H.dim
    rep = VerificationReport(f"R on {H.name or 'dim %d' % n}")

    left_counit, right_counit = t2_contract(F, H.counit, Q.R)
    rep.record("counit law (eps(x)id)R = 1", left_counit == H.unit)
    rep.record("counit law (id(x)eps)R = 1", right_counit == H.unit)

    r_times = H.t2_times(Q.R, "left")
    times_r = H.t2_times(Q.R, "right")
    rinv = r_inverse_candidate(Q)
    unit2 = t2_outer(F, H.unit, H.unit)
    Q._r_invertible = r_times(rinv) == unit2 and times_r(rinv) == unit2
    rep.record("R invertible with (S(x)id)R", Q._r_invertible)

    on = certified_generators(H) if H.certified() else range(n)
    rep.record("R Delta = Delta^cop R", *first_failure(
        H.labels[h] for h in on if r_times(H.comult[h]) != times_r(t2_swap(H.comult[h]))))

    r13r23, r13r12 = hexagon_products(H, Q.R)
    rep.record("(Delta(x)id)R = R13 R23", H.delta_leg(Q.R, 0) == r13r23)
    rep.record("(id(x)Delta)R = R13 R12", H.delta_leg(Q.R, 1) == r13r12)
    return rep


def verify_ribbon(Q: QuasiHopfData) -> VerificationReport:
    """Centrality, invertibility, S(V) = V, eps(V) = 1, and the coproduct law
    Delta(V) = (R21 R)^-1 (V (x) V).

    When H carries a passing ``verify_hopf`` report, "V central" is checked
    on the certified generators A of H only: H is then associative, so
    {h : V h = h V} is a subspace closed under products
    (V h g = h V g = h g V), and it contains A, hence H.  Otherwise it is
    checked on every basis vector.

    The coproduct law uses the candidate (R21 R)^-1 = rinv swap(rinv) with
    rinv = (S (x) id)R.  It is confirmed by (R21 R)(rinv swap(rinv)) = 1
    (x) 1 unless H is certified and ``verify_quasitriangular`` found, on
    the same Q, R invertible with inverse rinv: then R rinv =
    rinv R = 1 (x) 1, H (x) H is associative and swap is multiplicative, so
    R21 R rinv rinv21 = R21 rinv21 = swap(R rinv) = 1 (x) 1, exactly."""
    if Q.V is None:
        raise MissingRibbonElement("no ribbon element supplied")
    H = Q.algebra
    F = H.field
    n = H.dim
    V = Q.V
    rep = VerificationReport(f"V on {H.name or 'dim %d' % n}")

    on = certified_generators(H) if H.certified() else range(n)
    rep.record("V central", *first_failure(
        H.labels[i] for i in on if H.product(V, {i: F.one()}) != H.product({i: F.one()}, V)))

    rep.record("eps(V) = 1", H.counit_of(V) == F.one())
    rep.record("S(V) = V", H.antipode_of(V) == V)

    # invertibility: solve V x = 1, then confirm x V = 1
    cols = {j: H.product(V, unit_vec(j, F)) for j in range(n)}
    try:
        vinv, _ = solve_affine(cols, H.unit, F, n, n)
        inv_ok = H.product(vinv, V) == H.unit and H.product(V, vinv) == H.unit
    except NoSolution:
        inv_ok = False
    rep.record("V invertible", inv_ok)

    rinv = r_inverse_candidate(Q)
    mono_inv = H.tensor_square_product(rinv, t2_swap(rinv))
    sane = ((H.certified() and Q._r_invertible)
            or H.tensor_square_product(monodromy(Q), mono_inv)
            == t2_outer(F, H.unit, H.unit))
    lhs = H.coproduct(V)
    rhs = H.tensor_square_product(mono_inv, t2_outer(F, V, V))
    rep.record("Delta(V) = (R21 R)^-1 (V(x)V)", sane and lhs == rhs)
    return rep


def is_triangular(Q: QuasiHopfData) -> bool:
    H = Q.algebra
    return monodromy(Q) == t2_outer(H.field, H.unit, H.unit)


def is_factorizable(Q: QuasiHopfData) -> bool:
    """Full rank of the Drinfeld map f -> (f (x) id)(R21 R)."""
    H = Q.algebra
    cols: dict = {}
    for (a, b), c in monodromy(Q).items():
        cols.setdefault(a, {})[b] = c
    return mat_rank(H.field, cols, H.dim) == H.dim
