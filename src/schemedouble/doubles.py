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

from functools import cached_property

from .errors import BudgetExceeded, MissingRibbonElement, NoSolution, VerificationFailure
from .groupschemes import GroupScheme
from .hopf import (
    HopfAlgebra,
    LinMap,
    VerificationReport,
    certify_hopf_map,
    crossed_product,
    first_failure,
    flat_outer,
    is_hopf_morphism,
    t2_contract,
    t2_map,
    t2_outer,
    t2_swap,
)
from .linalg import (
    mat_apply,
    mat_identity,
    mat_rank,
    mat_transpose,
    solve_rows,
    unit_vec,
    v_axpy,
    v_scale,
)
from .serialize import MAX_DOUBLE_DIM


class DoubleData:
    """D(G) = O(G)^cop |><| k[G] for one G, kept on it by ``drinfeld_double``.

    What the formulas give is formed at once: O(G)^cop (``O_cop``, O(G)
    with Delta swapped), the matrices of the embeddings b -> b |><| 1 and
    u -> 1 |><| u, and the canonical (R, V) (``r_and_v``).  The product
    table ``D``, its two embedding certificates and the normality check are
    one cached property, formed on first read (``_build_double``), with
    ``embed_O``, ``embed_kG`` and ``qt`` over it.  ``quotient`` reads them
    only in the whole-basis fallback of its kernel check: it certifies
    theta by the universal property of D(G) (``is_hopf_map_from_double``),
    on the tables of O(G) and k[G] alone.

    O(G)^cop keeps the antipode S of O(G), as S^-1 = S: k[G] is
    cocommutative, so O(G) is commutative, and the antipode of a
    commutative Hopf algebra is an involution (Sweedler, Hopf Algebras,
    Prop. 4.0.1; Montgomery, CBMS 82, Cor. 1.5.12).
    """

    def __init__(self, G):
        self.G = G
        F, n = G.field, G.order
        O, kg = G.coordinate_algebra, G.group_algebra
        self.O_cop = HopfAlgebra(F, O.labels, O.cells, O.unit,
                                 {i: t2_swap(t) for i, t in O.comult.items()}, O.counit,
                                 O.antipode, f"{O.name}^cop" if O.name else "")
        self.embed_O_mat = {a: flat_outer(F, unit_vec(a, F), kg.unit, n) for a in range(n)}
        self.embed_kG_mat = {i: flat_outer(F, O.unit, unit_vec(i, F), n) for i in range(n)}

    def index(self, a, i):
        return a * self.G.order + i

    @cached_property
    def _table(self):
        """(D, embed_O, embed_kG), certified (``_build_double``)."""
        return _build_double(self)

    @property
    def D(self) -> HopfAlgebra:
        return self._table[0]

    @property
    def embed_O(self) -> LinMap:
        return self._table[1]

    @property
    def embed_kG(self) -> LinMap:
        return self._table[2]

    @cached_property
    def r_and_v(self):
        """R = sum_u (1 |><| u) (x) (delta_u |><| 1) and
        V = sum_u S(delta_u) |><| u, by these formulas: no product is formed."""
        G = self.G
        F = G.field
        n = G.order
        O = G.coordinate_algebra
        R = t2_map(F, self.embed_kG_mat, self.embed_O_mat,
                   {(i, i): F.one() for i in range(n)})
        V = {}
        for i in range(n):
            v_axpy(F, V, F.one(), flat_outer(F, O.antipode.get(i, {}), unit_vec(i, F), n))
        return R, V

    @cached_property
    def qt(self) -> "QuasiHopfData":
        """The canonical (R, V) on D, with what is derived from them."""
        return QuasiHopfData(self.D, *self.r_and_v)


def drinfeld_double(G: GroupScheme) -> DoubleData:
    """D(G), kept on G the first time it is asked for, so every caller gets
    the same DoubleData (and a kept ``verify_hopf`` report on its algebra is
    seen by all of them).  A double of dimension |G|^2 above MAX_DOUBLE_DIM
    raises BudgetExceeded before anything is formed."""
    if G._double is None:
        n = G.order
        if n * n > MAX_DOUBLE_DIM:
            raise BudgetExceeded(f"D({G.name or 'G'}) has dimension {n}^2 = {n * n}, "
                                 f"above the ceiling {MAX_DOUBLE_DIM}")
        G._double = DoubleData(G)
    return G._double


def _build_double(dd: DoubleData):
    """The table D of D(G), with product (b |><| u)(b' |><| u') =
    b(u_1 ->> b') |><| u_2 u' on the tensor coalgebra of O(G)^cop (x) k[G],
    and the embeddings of O(G)^cop and k[G] into it, as (D, embed_O,
    embed_kG).

    This is the K = G, H = 1 case of ``crossed_product``: the dot action is
    the coadjoint action u ->> b, sigma(x, y) = eps(x) eps(y) 1 and
    tau(x) = eps(x) 1 (x) 1.  Both are multiples of the unit, so no product
    with them is formed, and every cell has the same keys in the same order
    as the term-by-term expansion over (x, y) in Delta(u_i), then delta,
    then u.

    D is certified by the two Hopf embeddings, on every basis vector,
    antipode included, and by the normality of O(G) inside D, on all basis
    tuples (``double`` also runs ``verify_hopf``).  Only code that prints D
    or multiplies in it reads it: ``double``, the whole-basis fallback of
    ``quotients.theta_kernel_matches_ideal``, and ``quotients.QuotientPair.theta``
    for ``factor`` and ``recognize_triple``.
    """
    G = dd.G
    n = G.order
    kg = G.group_algebra
    O = G.coordinate_algebra
    F = G.field
    coad = G.coadjoint

    labels = [f"{O.labels[a]}><{kg.labels[i]}" for a in range(n) for i in range(n)]

    # sigma(x, y) = eps(x) eps(y) 1 and tau(x) = eps(x) 1 (x) 1
    eps = kg.counit
    times = lambda c, v: v if c == F.one() else v_scale(F, c, v)
    sigma = {(r, s): times(F.mul(er, es), O.unit)
             for r, er in eps.items() for s, es in eps.items()}
    unit2 = t2_outer(F, O.unit, O.unit)
    tau = {r: times(er, unit2) for r, er in eps.items()}
    D = crossed_product(O, kg, coad, sigma, tau, labels, f"D({G.name})")

    embed_O = certify_hopf_map(LinMap(dd.O_cop, D, dd.embed_O_mat), "O(G)^cop embedding")
    embed_kG = certify_hopf_map(LinMap(kg, D, dd.embed_kG_mat), "k[G] embedding")
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
    return D, embed_O, embed_kG


def is_hopf_map_from_double(dd: DoubleData, target: HopfAlgebra, mat):
    """``is_hopf_morphism`` for the linear map Theta: D(G) -> target with
    matrix mat (column a * |G| + i the image of delta_a |><| u_i), decided
    by the universal property of the double (Kassel, Quantum Groups, GTM
    155, Ch. IX; Majid, Foundations of Quantum Group Theory, Ch. 7) on
    algebras of dimension |G|, with no product formed in D(G).  target
    must carry a passing ``verify_hopf`` report, so that it is an
    associative bialgebra with an antipode.

    With f = Theta o embed_O on O(G)^cop and g = Theta o embed_kG on k[G],
    Theta is checked by
    1. f and g pass ``is_hopf_morphism``;
    2. Theta(b |><| u) = f(b) g(u) for b, u in the bases;
    3. g(u) f(b) = sum over (u_1, u_2) in Delta(u) of f(u_1 ->> b) g(u_2),
       the straightening relation, for u, b in the bases (u ->> b is
       ``G.coadjoint``).  Given (2), the right side is
       Theta(sum (u_1 ->> b) |><| u_2), which is how it is formed.

    Proof that (1)-(3) hold exactly when Theta is a Hopf map out of D(G).
    All three are linear in b and u, so they hold on all of O(G) and k[G].
    (<=) Multiplicativity:
        Theta((b |><| u)(b' |><| u')) = sum Theta(b (u_1 ->> b') |><| u_2 u')
        = sum f(b) f(u_1 ->> b') g(u_2) g(u')      by (2) and (1)
        = f(b) g(u) f(b') g(u')                    by (3)
        = Theta(b |><| u) Theta(b' |><| u')        by (2).
    The coproduct: D(G) has the tensor coalgebra of O(G)^cop (x) k[G], and
    Delta(f(b) g(u)) = Delta f(b) Delta g(u) = sum f(b_2) g(u_1) (x)
    f(b_1) g(u_2) = (Theta (x) Theta) Delta(b |><| u), by (1) and (2).  The
    unit and counit follow in the same way, and the antipode from
    S(b |><| u) = (1 |><| S(u))(S(b) |><| 1), multiplicativity and S_target
    being anti-multiplicative: Theta S(b |><| u) = g(S u) f(S b)
    = S g(u) S f(b) = S(f(b) g(u)).
    (=>) Restricting a Hopf map Theta to the Hopf subalgebras O(G)^cop
    |><| 1 and 1 |><| k[G] gives (1); applying it to (b |><| 1)(1 |><| u)
    = b |><| u gives (2), and to (1 |><| u)(b |><| 1)
    = sum (u_1 ->> b) |><| u_2 gives (3).
    So the verdict is that of ``is_hopf_morphism`` on every basis tuple of
    a correct D(G) table; no associativity of D(G) is assumed.  The
    witness names the first failing check.
    """
    G = dd.G
    F = G.field
    n = G.order
    kg = G.group_algebra
    f = LinMap(dd.O_cop, target, {a: mat_apply(F, mat, col) for a, col in dd.embed_O_mat.items()})
    g = LinMap(kg, target, {i: mat_apply(F, mat, col) for i, col in dd.embed_kG_mat.items()})
    for name, m in (("O(G)^cop", f), ("k[G]", g)):
        ok, wit = is_hopf_morphism(m)
        if not ok:
            return False, f"{wit} on {name}"
    f_img = [f.mat.get(a, {}) for a in range(n)]
    g_img = [g.mat.get(i, {}) for i in range(n)]
    O = G.coordinate_algebra
    for a in range(n):
        for i in range(n):
            if mat.get(a * n + i, {}) != target.product(f_img[a], g_img[i]):
                return False, f"factorization at ({O.labels[a]},{kg.labels[i]})"
    coad = G.coadjoint
    for i in range(n):
        for b in range(n):
            straight = {}
            for (x, y), c in kg.comult[i].items():
                for a, ca in coad[x].get(b, {}).items():
                    v_axpy(F, straight, F.mul(c, ca), {a * n + y: F.one()})
            if target.product(g_img[i], f_img[b]) != mat_apply(F, mat, straight):
                return False, f"straightening at ({kg.labels[i]},{O.labels[b]})"
    return True, ""


class QuasiHopfData:
    """A Hopf algebra with a candidate R-matrix (Ten2) and optional ribbon
    element (Vec).  R and V are not changed after construction, so what is
    derived from them is a cached property."""

    def __init__(self, algebra: HopfAlgebra, R, V=None):
        self.algebra = algebra
        self.R = R
        self.V = V

    @cached_property
    def monodromy(self):
        """R_21 R, the square-braiding element."""
        return self.algebra.tensor_square_product(t2_swap(self.R), self.R)

    @cached_property
    def r_inverse(self):
        """(S (x) id)(R), the inverse of any genuine R-matrix."""
        H = self.algebra
        return t2_map(H.field, H.antipode, mat_identity(H.dim, H.field), self.R)

    @cached_property
    def r_invertible(self) -> bool:
        """Whether R r_inverse = r_inverse R = 1 (x) 1."""
        H = self.algebra
        unit2 = t2_outer(H.field, H.unit, H.unit)
        return (H.t2_times(self.R, "left")(self.r_inverse) == unit2
                and H.t2_times(self.R, "right")(self.r_inverse) == unit2)


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
    by_left = H.cells
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
    (``HopfAlgebra.certified_generators``) when H carries a passing
    ``verify_hopf`` report (``HopfAlgebra.certified``), and on every basis
    vector otherwise.  Proof: the report makes H, hence H (x) H,
    associative and Delta, hence Delta^cop, multiplicative, so
    M = {h : R Delta(h) = Delta^cop(h) R} is a subspace closed under
    products: R Delta(h g) = R Delta(h) Delta(g) = Delta^cop(h) R Delta(g)
    = Delta^cop(h) Delta^cop(g) R = Delta^cop(h g) R.  M contains A, so it
    contains every right product of elements of A, whose span is H.  The
    witness is then the first failing generator.  Invertibility is
    ``Q.r_invertible``, which ``verify_ribbon`` reads too.
    """
    H = Q.algebra
    F = H.field
    n = H.dim
    rep = VerificationReport(f"R on {H.name or 'dim %d' % n}")

    left_counit, right_counit = t2_contract(F, H.counit, Q.R)
    rep.record("counit law (eps(x)id)R = 1", left_counit == H.unit)
    rep.record("counit law (id(x)eps)R = 1", right_counit == H.unit)

    rep.record("R invertible with (S(x)id)R", Q.r_invertible)

    r_times = H.t2_times(Q.R, "left")
    times_r = H.t2_times(Q.R, "right")

    on = H.certified_generators if H.certified() else range(n)
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
    (x) 1 unless H is certified and ``Q.r_invertible`` holds: then R rinv =
    rinv R = 1 (x) 1, H (x) H is associative and swap is multiplicative, so
    R21 R rinv rinv21 = R21 rinv21 = swap(R rinv) = 1 (x) 1, exactly."""
    if Q.V is None:
        raise MissingRibbonElement("no ribbon element supplied")
    H = Q.algebra
    F = H.field
    n = H.dim
    V = Q.V
    rep = VerificationReport(f"V on {H.name or 'dim %d' % n}")

    on = H.certified_generators if H.certified() else range(n)
    rep.record("V central", *first_failure(
        H.labels[i] for i in on if H.product(V, {i: F.one()}) != H.product({i: F.one()}, V)))

    rep.record("eps(V) = 1", H.counit_of(V) == F.one())
    rep.record("S(V) = V", H.antipode_of(V) == V)

    # invertibility: solve V x = 1, then confirm x V = 1
    rows = mat_transpose({j: H.product(V, unit_vec(j, F)) for j in range(n)})
    try:
        vinv, _ = solve_rows(F, [(rows.get(i, {}), H.unit.get(i, F.zero()))
                                 for i in range(n)], n)
        inv_ok = H.product(vinv, V) == H.unit and H.product(V, vinv) == H.unit
    except NoSolution:
        inv_ok = False
    rep.record("V invertible", inv_ok)

    rinv = Q.r_inverse
    mono_inv = H.tensor_square_product(rinv, t2_swap(rinv))
    sane = ((H.certified() and Q.r_invertible)
            or H.tensor_square_product(Q.monodromy, mono_inv)
            == t2_outer(F, H.unit, H.unit))
    lhs = H.coproduct(V)
    rhs = H.tensor_square_product(mono_inv, t2_outer(F, V, V))
    rep.record("Delta(V) = (R21 R)^-1 (V(x)V)", sane and lhs == rhs)
    return rep


def is_triangular(Q: QuasiHopfData) -> bool:
    H = Q.algebra
    return Q.monodromy == t2_outer(H.field, H.unit, H.unit)


def is_factorizable(Q: QuasiHopfData) -> bool:
    """Full rank of the Drinfeld map f -> (f (x) id)(R21 R)."""
    H = Q.algebra
    cols: dict = {}
    for (a, b), c in Q.monodromy.items():
        cols.setdefault(a, {})[b] = c
    return mat_rank(H.field, cols, H.dim) == H.dim
