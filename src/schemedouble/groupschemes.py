"""Finite group schemes as dual pairs (k[G], O(G)) plus the subgroup-scheme
machinery: normality, centralizing, quotients, the section mu_K of q_K read
off the pivots (any linear section gives the same outputs; proof in
``section_mu``), the colinear, convolution-invertible cleaving maps gamma_H
(a closed form, else one solve with the grouplike lifts fixed; invertible by
Takeuchi's criterion, proof in ``cleaving_gamma``), adjoint actions, and
products/intersections of subgroups.

The coordinate algebra is always the literal dual of the group algebra in the
dual basis, so the perfect pairing is the identity matrix and transposition
implements duality on maps.
"""

from __future__ import annotations

import itertools
from functools import cached_property

from .errors import (
    CharZero,
    ClosureNotHopf,
    DimensionMismatch,
    FieldMismatch,
    NoInvertibleSectionFound,
    NoSolution,
    NotAGroup,
    NotInvertible,
    NotNormal,
    NotRestrictedLie,
    VerificationFailure,
)
from .fields import binomial
from .hopf import (
    HopfAlgebra,
    LinMap,
    augmentation,
    certify_hopf_map,
    coinvariants,
    convolution,
    convolution_inverse,
    convolution_unit,
    dual_hopf,
    ideal_closure,
    identity_map,
    induced_hopf,
    pair_rows,
    quotient_by_hopf_ideal,
    span_closure,
    t2_coordinates,
    t2_map,
    tensor_hopf,
    verify_hopf,
)
from .linalg import (
    Echelon,
    annihilator,
    mat_compose,
    mat_identity,
    mat_rank,
    mat_transpose,
    solve_rows,
    span,
    subspace_intersection,
    unit_vec,
    v_axpy,
    v_scale,
)


class GroupScheme:
    """A finite group scheme: cocommutative k[G] with O(G) its dual.

    ``order_connected`` and ``order_points`` record |G^0| and |G(k)| when
    the constructor knows them structurally (constant, infinitesimal,
    products, subgroups of a constant or connected G); otherwise
    ``points_order`` counts the grouplikes of k[G] and fills both.

    G keeps what is derived from it by canonical key:
    ``subgroups`` maps ``Echelon.key()`` to the SubgroupScheme on that span
    (``subgroup_from_subspace``), ``triples`` maps ``Triple.key()`` to the
    validated triple (``quotients.kept_triple``), which carries its quotient
    pair, and ``inclusions`` maps a pair of subgroups to the inclusion of the
    first into the second, or None (``inclusion``).  ``products`` and
    ``meets`` map a pair of subgroups to their product and intersection
    (``product_subgroup``, ``intersect_subgroup``), and ``_double`` holds
    the DoubleData of D(G) once asked for (``doubles.drinfeld_double``).

    A value derived from one object is a cached property of that object:
    ``coadjoint`` of G, and likewise the derived values of a subgroup, an
    algebra (its ``grouplikes`` among them), a quotient pair and an (R, V).
    D(G) and D(K, H, B) stay functions, ``doubles.drinfeld_double`` and
    ``quotients.build_quotient``, which keep their result on G and on the
    triple.  G keeps one subgroup per span and one triple per key, so kept
    subgroups and triples are compared by identity.
    """

    def __init__(self, group_algebra: HopfAlgebra, kind="generic", payload=None,
                 order_connected=None, order_points=None, name=""):
        self.group_algebra = group_algebra
        self.coordinate_algebra = dual_hopf(group_algebra)
        self.kind = kind
        self.payload = payload
        self.order_connected = order_connected
        self.order_points = order_points
        self.name = name or group_algebra.name
        if name and not group_algebra.name:
            group_algebra.name = f"k[{name}]"
            self.coordinate_algebra.name = f"O({name})"
        self.field = group_algebra.field
        self._double = None
        self.subgroups = {}
        self.triples = {}
        self.inclusions = {}
        self.products = {}
        self.meets = {}

    @property
    def order(self):
        return self.group_algebra.dim

    def __repr__(self):
        return f"GroupScheme({self.name or 'order %d' % self.order})"

    def points_order(self):
        """|G(k)|, structurally when known, else by counting those of k[G]."""
        if self.order_points is None:
            self.order_points = len(self.group_algebra.grouplikes)
            self.order_connected = self.order // self.order_points
        return self.order_points

    def connected_order(self):
        if self.order_connected is None:
            self.points_order()
        return self.order_connected

    @cached_property
    def coadjoint(self):
        """For each basis u_i of k[G], the matrix of u_i ->> (-) on O(G),
        where u ->> b = <S(b_1) b_3, u> b_2, read from the identity pairing
        of dual bases.  Every caller gets the same list, which must not be
        mutated."""
        O = self.coordinate_algebra
        F = self.field
        n = self.order
        mats = [dict() for _ in range(n)]
        for b in range(n):
            for (x, y, z), c in O.delta2(unit_vec(b, F)).items():
                w = O.product(O.antipode_of(unit_vec(x, F)), unit_vec(z, F))
                for i, wi in w.items():
                    coef = F.mul(c, wi)
                    if coef != F.zero():
                        col = mats[i].setdefault(b, {})
                        v_axpy(F, col, coef, unit_vec(y, F))
        for m in mats:
            for b in [b for b, col in m.items() if not col]:
                del m[b]
        return mats


def _check_group_table(table):
    n = len(table)
    for row in table:
        if len(row) != n or any(not (0 <= x < n) for x in row):
            raise NotAGroup("table is not square over valid indices")
    ident = None
    for e in range(n):
        if all(table[e][x] == x and table[x][e] == x for x in range(n)):
            ident = e
            break
    if ident is None:
        raise NotAGroup("no identity element")
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    raise NotAGroup(f"associativity fails at ({a},{b},{c})")
    inv = [None] * n
    for a in range(n):
        for b in range(n):
            if table[a][b] == ident and table[b][a] == ident:
                inv[a] = b
        if inv[a] is None:
            raise NotAGroup(f"element {a} has no inverse")
    return ident, inv


def constant_group(elements, table, field, name="") -> GroupScheme:
    """The constant group scheme of a finite group given by its Cayley table.

    k[G] is the group algebra on the element basis; O(G) is spanned by the
    delta functions with pointwise product.
    """
    ident, inv = _check_group_table(table)
    n = len(elements)
    F = field
    one = F.one()
    point = [{k: one} for k in range(n)]  # one cell per element, shared
    cells = [{j: point[k] for j, k in enumerate(row)} for row in table]
    unit = {ident: one}
    comult = {i: {(i, i): one} for i in range(n)}
    counit = {i: one for i in range(n)}
    antipode = {i: {inv[i]: one} for i in range(n)}
    kG = HopfAlgebra(F, list(elements), cells, unit, comult, counit, antipode,
                     name=f"k[{name}]" if name else "")
    return GroupScheme(kG, kind="constant",
                       payload={"table": [list(r) for r in table], "inverse": inv},
                       order_connected=1, order_points=n, name=name)


def ga_kernel(r: int, field, name="") -> GroupScheme:
    """The r-th Frobenius kernel of the additive group.

    O = k[t]/(t^(p^r)) with t primitive; the dual basis multiplies by binomial
    coefficients (Lucas pattern) and has the divided-power coproduct.
    """
    p = field.char
    if p == 0:
        raise CharZero("Frobenius kernels need positive characteristic")
    q = p**r
    F = field
    one = F.one()
    cells = pair_rows(q, (((m, n_), {m + n_: c}) for m in range(q) for n_ in range(q - m)
                          if (c := binomial(m + n_, m, F)) != F.zero()))
    unit = {0: one}
    comult = {n_: {(a, n_ - a): one for a in range(n_ + 1)} for n_ in range(q)}
    counit = {0: one}
    antipode = {}
    for n_ in range(q):
        c = one if n_ % 2 == 0 else F.neg(one)
        antipode[n_] = {n_: c}
    labels = [f"d{n_}" for n_ in range(q)]
    nm = name or f"Ga_{r}"
    kG = HopfAlgebra(F, labels, cells, unit, comult, counit, antipode, name=f"k[{nm}]")
    return GroupScheme(kG, kind="ga", payload={"r": r},
                       order_connected=q, order_points=1, name=nm)


def mu_p_kernel(field, name="") -> GroupScheme:
    """The first Frobenius kernel of the multiplicative group.

    O = k[s]/(s^p - 1) with s grouplike; the dual is the algebra of p
    orthogonal idempotent projections.
    """
    p = field.char
    if p == 0:
        raise CharZero("mu_p needs positive characteristic")
    F = field
    one = F.one()
    # group algebra side: dual of k[s]/(s^p - 1); e_i are idempotents
    cells = [{i: {i: one}} for i in range(p)]
    unit = {i: one for i in range(p)}
    comult = {i: {(j, (i - j) % p): one for j in range(p)} for i in range(p)}
    counit = {0: one}
    antipode = {i: {(-i) % p: one} for i in range(p)}
    labels = [f"e{i}" for i in range(p)]
    nm = name or "mu_p"
    kG = HopfAlgebra(F, labels, cells, unit, comult, counit, antipode, name=f"k[{nm}]")
    return GroupScheme(kG, kind="mu_p", order_connected=p, order_points=1, name=nm)


def direct_product(G1: GroupScheme, G2: GroupScheme, name="") -> GroupScheme:
    if G1.field != G2.field:
        raise FieldMismatch("factors over different fields")
    kG = tensor_hopf(G1.group_algebra, G2.group_algebra)
    oc = op = None
    if G1.order_connected is not None and G2.order_connected is not None:
        oc = G1.order_connected * G2.order_connected
        op = G1.order_points * G2.order_points
    nm = name or f"{G1.name}x{G2.name}"
    kG.name = f"k[{nm}]"
    return GroupScheme(kG, kind="product", order_connected=oc, order_points=op, name=nm)


def _gen_labels(n):
    base = "xyzw"
    return [base[i] if n <= 4 else f"x{i}" for i in range(n)]


def restricted_enveloping(n: int, bracket, p_map, field, name="") -> GroupScheme:
    """u^[p] of a restricted Lie algebra, on the PBW basis of exponents < p.

    ``bracket[i][j]`` and ``p_map[i]`` are coefficient dicts over the
    generators.  Straightening moves generators into sorted order with bracket
    corrections and reduces p-th powers through the p-map.  Antisymmetry and
    the Jacobi identity are checked up front; a p-map incompatible with the
    bracket makes the straightened product non-associative, which the final
    axiom sweep detects.
    """
    p = field.char
    if p == 0:
        raise CharZero("restricted enveloping algebras need characteristic p > 0")
    F = field
    one = F.one()
    zero = F.zero()

    def brk(i, j):
        return {g: F.from_int(c) if isinstance(c, int) else c
                for g, c in bracket[i][j].items()}

    for i in range(n):
        if brk(i, i):
            raise NotRestrictedLie(f"[x{i},x{i}] != 0")
        for j in range(n):
            lhs = brk(i, j)
            rhs = {g: F.neg(c) for g, c in brk(j, i).items()}
            if lhs != rhs:
                raise NotRestrictedLie(f"bracket not antisymmetric at ({i},{j})")

    def brk_vec(v, w):
        out = {}
        for i, a in v.items():
            for j, b in w.items():
                v_axpy(F, out, F.mul(a, b), brk(i, j))
        return out

    for i in range(n):
        for j in range(n):
            for k in range(n):
                acc = {}
                v_axpy(F, acc, one, brk_vec({i: one}, brk(j, k)))
                v_axpy(F, acc, one, brk_vec({j: one}, brk(k, i)))
                v_axpy(F, acc, one, brk_vec({k: one}, brk(i, j)))
                if acc:
                    raise NotRestrictedLie(f"Jacobi fails at ({i},{j},{k})")

    pmap = [
        {g: F.from_int(c) if isinstance(c, int) else c for g, c in p_map[i].items()}
        for i in range(n)
    ]

    exponents = list(itertools.product(range(p), repeat=n))
    index = {e: i for i, e in enumerate(exponents)}
    dim = p**n

    def word_of(exp):
        w = []
        for g, a in enumerate(exp):
            w.extend([g] * a)
        return tuple(w)

    memo = {}

    def normalize(word):
        """The PBW expansion of a generator word as Vec over monomial indices."""
        if word in memo:
            return memo[word]
        # first descent
        for i in range(len(word) - 1):
            a, b = word[i], word[i + 1]
            if a > b:
                out = {}
                swapped = word[:i] + (b, a) + word[i + 2:]
                v_axpy(F, out, one, normalize(swapped))
                for g, c in brk(a, b).items():
                    rest = word[:i] + (g,) + word[i + 2:]
                    v_axpy(F, out, c, normalize(rest))
                memo[word] = out
                return out
        # sorted; reduce p-th powers
        for i in range(len(word) - p + 1):
            if len(set(word[i:i + p])) == 1:
                g = word[i]
                out = {}
                for h, c in pmap[g].items():
                    rest = word[:i] + (h,) + word[i + p:]
                    v_axpy(F, out, c, normalize(rest))
                memo[word] = out
                return out
        exp = [0] * n
        for g in word:
            exp[g] += 1
        out = {index[tuple(exp)]: one}
        memo[word] = out
        return out

    cells = pair_rows(dim, (((index[e1], index[e2]), normalize(word_of(e1) + word_of(e2)))
                            for e1 in exponents for e2 in exponents))

    glabels = _gen_labels(n)

    def label(exp):
        parts = [
            (glabels[g] if a == 1 else f"{glabels[g]}^{a}")
            for g, a in enumerate(exp)
            if a
        ]
        return "*".join(parts) if parts else "1"

    unit = {index[(0,) * n]: one}
    comult = {}
    for e in exponents:
        t = {}
        for sub in itertools.product(*(range(a + 1) for a in e)):
            c = one
            for ai, bi in zip(e, sub):
                c = F.mul(c, binomial(ai, bi, F))
            if c != zero:
                rest = tuple(a - b for a, b in zip(e, sub))
                t[(index[sub], index[rest])] = c
        comult[index[e]] = t
    counit = {index[(0,) * n]: one}
    antipode = {}
    for e in exponents:
        sign = one if sum(e) % 2 == 0 else F.neg(one)
        rev = tuple(reversed(word_of(e)))
        col = v_scale(F, sign, normalize(rev))
        if col:
            antipode[index[e]] = col

    nm = name or f"u(g{n})"
    kG = HopfAlgebra(F, [label(e) for e in exponents], cells, unit, comult,
                     counit, antipode, name=f"k[{nm}]")
    rep = verify_hopf(kG)
    if not rep.ok:
        raise NotRestrictedLie(
            "p-map incompatible with bracket: " + "; ".join(
                f"{nm_} at {w}" for nm_, w in rep.failures())
        )
    return GroupScheme(kG, kind="restricted_lie", order_connected=dim, order_points=1,
                       name=nm)


# -- adjoint and coadjoint actions ----------------------------------------


def ad_l(G: GroupScheme, u, w):
    """ad_l(u)(w) = u_1 w S(u_2) in k[G]."""
    H = G.group_algebra
    F = G.field
    out = {}
    for (j, k), c in H.coproduct(u).items():
        sk = H.antipode_of(unit_vec(k, F))
        v_axpy(F, out, c, H.product(H.product(unit_vec(j, F), w), sk))
    return out


# -- subgroup schemes -------------------------------------------------------


class SubgroupScheme:
    """A closed subgroup scheme, carried as (iota: k[L] -> k[G], q = iota^T).
    Its span does not change after construction, so its key is formed once
    and its normality, section and cleaving are cached properties.  G keeps
    one subgroup per span (``subgroup_from_subspace``), so two kept
    subgroups are equal exactly when they are the same object."""

    def __init__(self, ambient: GroupScheme, own: GroupScheme, iota: LinMap,
                 subspace: Echelon):
        self.ambient = ambient
        self.own = own
        self.iota = iota
        self.q = LinMap(ambient.coordinate_algebra, own.coordinate_algebra,
                        mat_transpose(iota.mat))
        self.subspace = subspace
        self._key = subspace.key()

    @property
    def order(self):
        return self.own.order

    @cached_property
    def is_normal(self) -> bool:
        """``is_normal`` of this subgroup."""
        return is_normal(self)

    @cached_property
    def section(self) -> LinMap:
        """``section_mu`` of this subgroup."""
        return section_mu(self)

    @cached_property
    def cleaving(self) -> "CleavingData":
        """``cleaving_gamma`` of this (normal) subgroup, with its quotient."""
        return cleaving_gamma(self.ambient, self)

    def key(self):
        return self._key

    def contains_subgroup(self, other: "SubgroupScheme"):
        return all(self.subspace.contains(r) for r in other.subspace.basis())

    def __repr__(self):
        return f"SubgroupScheme(order {self.order} in {self.ambient.name})"


def _extract_sub_hopf(G: GroupScheme, ech: Echelon, name=""):
    """Structure constants of the Hopf subalgebra spanned by ech, in its
    canonical (RREF) basis.  Raises ClosureNotHopf when the span is not
    actually closed."""
    H = G.group_algebra
    F = G.field
    pivots = ech.pivots()
    rows = ech.basis()

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
    return induced_hopf(H, rows, coords, t2_coords, labels, name=name)


def _sub_connectivity(G: GroupScheme, dim: int):
    if G.order_points == 1:
        return dim, 1
    if G.order_connected == 1:
        return 1, dim
    return None, None


def subgroup_from_subspace(G: GroupScheme, ech: Echelon, name="") -> SubgroupScheme:
    """The subgroup scheme G keeps on the span of ech, built and certified
    the first time that span is met, by its inclusion iota alone; a span not
    closed under the structure maps raises ClosureNotHopf while its
    structure is extracted, and is not kept.  The kept subgroup carries the
    name of its first builder, and its normality, section and cleaving once
    found; ech must not be changed afterwards.

    Proof.  k[G] is Hopf: by construction for each constructor
    (``restricted_enveloping`` verifies its own), by this argument for a
    subgroup scheme.  ``is_hopf_morphism(iota)`` gives that iota respects
    product, unit, coproduct, counit and antipode, and iota and its tensor
    powers are injective, so each Hopf axiom of k[L] is the iota-preimage
    of the same axiom in k[G]: iota((x y) z) = iota(x (y z)), and so on.
    """
    sub = G.subgroups.get(ech.key())
    if sub is None:
        kL = _extract_sub_hopf(G, ech, name=f"k[{name}]" if name else "")
        iota = certify_hopf_map(LinMap(kL, G.group_algebra, dict(enumerate(ech.basis()))),
                                "inclusion", error=ClosureNotHopf)
        oc, op = _sub_connectivity(G, kL.dim)
        own = GroupScheme(kL, kind="derived", order_connected=oc, order_points=op, name=name)
        sub = G.subgroups[ech.key()] = SubgroupScheme(G, own, iota, ech)
    return sub


def inclusion(inner: SubgroupScheme, outer: SubgroupScheme):
    """The matrix of the inclusion k[inner] -> k[outer] in the subgroups'
    own bases, or None when inner is not inside outer; decided once per
    pair of spans and kept on G.

    Once every row of inner is known to lie in the span of outer, its
    coordinates are read at the pivots of outer: the rows of outer are in
    reduced row echelon form, so the row with pivot p is 1 at p and 0 at
    every other pivot, and v = sum_r c_r row_r has v[p_r] = c_r."""
    if inner.ambient is not outer.ambient:
        raise DimensionMismatch("subgroups of different ambient schemes")
    table = inner.ambient.inclusions
    if (inner, outer) not in table:
        pivots = outer.subspace.pivots()
        table[inner, outer] = {
            j: {r: row[p] for r, p in enumerate(pivots) if p in row}
            for j, row in enumerate(inner.subspace.basis())
        } if outer.contains_subgroup(inner) else None
    return table[inner, outer]


def _slices(F, t):
    """The left slices (e_a* (x) id)(t) and the right slices
    (id (x) e_b*)(t) of a Ten2 t."""
    left, right = {}, {}
    for (a, b), c in t.items():
        v_axpy(F, left.setdefault(a, {}), c, unit_vec(b, F))
        v_axpy(F, right.setdefault(b, {}), c, unit_vec(a, F))
    return list(left.values()) + list(right.values())


def hopf_closure(G: GroupScheme, generators, base: Echelon = None) -> Echelon:
    """The smallest Hopf subalgebra A of k[G] containing the generators and
    the Hopf subalgebra ``base`` (default: none), as a new Echelon.
    ``span_closure`` closes base, 1 and the generators under the antipode
    and the left and right slices of the coproduct (base is closed under
    both already), giving C, then C under right multiplication by a basis
    of C, giving A.

    Proof.  For v in C, Delta(v) = sum_a e_a (x) l_a = sum_b r_b (x) e_b
    with its slices l_a, r_b in C, so Delta(v) is in (k[G] (x) C) meet
    (C (x) k[G]) = C (x) C: C is an S-stable subcoalgebra holding 1.  k[G]
    is associative, so A, spanned by the products (...(c_1 c_2)...) c_k in
    C, is the subalgebra C generates, and a Hopf subalgebra, as Delta is
    multiplicative and S anti-multiplicative.  A Hopf subalgebra holding
    base and the generators holds 1, S-images, slices and products, hence C
    and A.  So do the former rounds, applying all three maps to every member
    until nothing is added: they end in such a subalgebra, so at A, and
    reduced row echelon form is unique, so the basis is the same.
    """
    H = G.group_algebra
    F = G.field
    ech = base.copy() if base is not None else Echelon(F, G.order)
    span_closure(ech, [H.unit] + list(generators),
                 lambda v: [H.antipode_of(v)] + _slices(F, H.coproduct(v)))
    C = [dict(row) for row in ech.basis()]
    return span_closure(ech, C, lambda v: [H.product(v, c) for c in C])


def subgroup_from_generators(G: GroupScheme, generators, name="") -> SubgroupScheme:
    """The subgroup scheme on ``hopf_closure(G, generators)``."""
    return subgroup_from_subspace(G, hopf_closure(G, generators), name=name)


def trivial_subgroup(G: GroupScheme) -> SubgroupScheme:
    return subgroup_from_generators(G, [], name="1")


def full_subgroup(G: GroupScheme) -> SubgroupScheme:
    e = span(G.field, G.order, [unit_vec(i, G.field) for i in range(G.order)])
    return subgroup_from_subspace(G, e, name=G.name)


def ga_frobenius_subgroup(G: GroupScheme, s: int) -> SubgroupScheme:
    """The standard order-p^s Frobenius kernel inside a ga_kernel(r) ambient."""
    if G.kind != "ga":
        raise DimensionMismatch("frobenius_sub needs a ga_kernel ambient")
    p = G.field.char
    e = span(G.field, G.order, [unit_vec(i, G.field) for i in range(p**s)])
    return subgroup_from_subspace(G, e, name=f"Ga_{s}")


def is_normal(L: SubgroupScheme) -> bool:
    """Whether k[L] is stable under ad_l(u) for every u of k[G]; callers
    read ``L.is_normal``, which keeps the answer.  k[G] is Hopf by
    construction, so u -> ad_l(u) is an algebra map and the u that keep
    k[L] form a subalgebra: u is tested on the certified generators of k[G]
    (``HopfAlgebra.certified_generators``) only, which generate it.

    The right action ad_r(u)(w) = S(u_1) w u_2 has the same stable
    subspaces.  k[G] is cocommutative, so Delta(S(u)) = S(u_1) (x) S(u_2)
    and S^2 = id, whence ad_r(u) = ad_l(S(u)); and S is bijective."""
    G, S = L.ambient, L.subspace
    return all(S.contains(ad_l(G, unit_vec(i, G.field), row))
               for i in G.group_algebra.certified_generators for row in S.basis())


def centralize(H: SubgroupScheme, K: SubgroupScheme) -> bool:
    G = H.ambient
    kg = G.group_algebra
    for v in H.subspace.basis():
        for w in K.subspace.basis():
            if kg.product(v, w) != kg.product(w, v):
                return False
    return True


# -- quotients, sections, cleavings ----------------------------------------


class Quotient:
    """k[G/H] with the canonical projection pi."""

    def __init__(self, hopf, pi):
        self.hopf = hopf
        self.pi = pi


def coinvariant_subspace(G: GroupScheme, sub: SubgroupScheme) -> Echelon:
    """O(G/L) = {b in O(G) : b_1 (x) q_L(b_2) = b (x) 1} as a subspace of O(G)."""
    return coinvariants(G.coordinate_algebra, sub.q.mat,
                        sub.own.coordinate_algebra.unit)


def quotient_by_normal(G: GroupScheme, H_sub: SubgroupScheme) -> Quotient:
    """k[G/H] = k[G]/(k[H]^+ k[G]) with canonical complement-of-pivots basis."""
    if not H_sub.is_normal:
        raise NotNormal(f"{H_sub} is not normal in {G.name}")
    kg = G.group_algebra
    F = G.field
    n = G.order
    # the two-sided ideal k[H]^+ k[G] = k[G] k[H]^+ (H is normal)
    J = ideal_closure(kg, span(F, n, augmentation(kg, H_sub.subspace.basis())))
    reps = [i for i in range(n) if i not in J.rows]
    m = len(reps)
    if m * H_sub.order != n:
        raise VerificationFailure("quotient dimension violates Lagrange")
    hopf, pi = quotient_by_hopf_ideal(kg, J, name=f"k[{G.name}/{H_sub.own.name}]")

    coinv = coinvariant_subspace(G, H_sub)
    if coinv.dim != m:
        raise VerificationFailure("coinvariant model has wrong dimension")
    # mutual duality: <rep_r, c_s> must be a nondegenerate pairing
    pair_cols = {s: {r: c.get(reps[r]) for r in range(m) if c.get(reps[r])}
                 for s, c in enumerate(coinv.basis())}
    if mat_rank(F, pair_cols, m) != m:
        raise VerificationFailure("coinvariants do not pair perfectly with k[G/H]")
    return Quotient(hopf, pi)


class CleavingData:
    def __init__(self, gamma, gamma_inv, eta, eta_inv, quotient: Quotient):
        self.gamma = gamma
        self.gamma_inv = gamma_inv
        self.eta = eta
        self.eta_inv = eta_inv
        self.quotient = quotient


def _colinear_section_equations(F, src, tgt, proj_mat):
    """Rows for ``solve_rows`` in the entries s[y][j] (unknown y * dim src + j)
    of a map s: src -> tgt with proj(s(x)) = x, s(1) = 1 and
    s(x_1) (x) x_2 = s(x)_1 (x) proj(s(x)_2)."""
    n = src.dim
    zero, one = F.zero(), F.one()
    rows = []
    # section: proj . s = id
    for j in range(n):
        for i in range(n):
            rows.append(({y * n + j: col[i] for y, col in proj_mat.items() if i in col},
                         one if i == j else zero))
    # colinearity, one equation per (source basis j, tgt coord x, src coord v)
    for j in range(n):
        eqs: dict = {}
        for (u, v), c in src.comult[j].items():
            for x in range(tgt.dim):
                v_axpy(F, eqs.setdefault((x, v), {}), c, {x * n + u: one})
        for y in range(tgt.dim):
            for (x, z), c in tgt.comult[y].items():
                for v, pv in proj_mat.get(z, {}).items():
                    v_axpy(F, eqs.setdefault((x, v), {}), F.neg(F.mul(c, pv)),
                           {y * n + j: one})
        rows.extend((row, zero) for row in eqs.values())
    # unit normalization s(1_src) = 1_tgt
    for x in range(tgt.dim):
        rows.append(({x * n + j: c for j, c in src.unit.items()},
                     tgt.unit.get(x, zero)))
    return rows


def section_mu(L: SubgroupScheme) -> LinMap:
    """A linear section mu of q_L: O(G) -> O(L), read off the pivots: the
    dual basis vector e^r of RREF row r of k[L] goes to e^p, p that row's
    pivot, and q_L(e^p) = sum_s row_s[p] e^s = e^r, as row r is 1 at p and
    every other row is 0 there.  Callers read ``L.section``, which keeps it.

    Every linear section gives the same outputs.  Two differ by a map into
    ker q_K = k[K]^perp, K the normal subgroup of a triple, which each
    reader kills:
    * u * a = q_K(u ->> mu(a)) (``quotients.Triple.star``, so ``dot_action``
      and ``build_quotient``): <u ->> b, w> = <b, ad_r(u)(w)> and ad_r(u)
      keeps k[K] (``is_normal``), so u ->> (-) keeps k[K]^perp.
    * the generators mu(B(v)) |><| 1 - 1 |><| v of ker theta
      (``quotients.theta_kernel_matches_ideal``): theta(b |><| 1) = q_K(b) # 1
      kills k[K]^perp |><| 1, which lies in the ideal of the generators
      O(G/K)^+ |><| 1: the normal Hopf ideal k[K]^perp of O(G) is
      O(G) O(G/K)^+ (Takeuchi, Manuscripta Math. 7, 1972).
    * psi(a) = phi(mu(a) |><| 1) (``quotients.recognize_triple``): K is read
      as the annihilator of ker(phi on O(G) |><| 1), which is k[K]^perp.
    * the appendix's ``mu``, of Ga_1 in ga_kernel(2), is extension by zero
      (the rows are unit vectors); it is also unit-preserving, colinear and
      convolution invertible, which only the cleaving needs of its section
      (Montgomery, Hopf Algebras and Their Actions on Rings, CBMS 82, Ch. 7).
    """
    pivots = L.subspace.pivots()
    return LinMap(L.own.coordinate_algebra, L.ambient.coordinate_algebra,
                  {r: unit_vec(p, L.ambient.field) for r, p in enumerate(pivots)})


def _colinear_section_ok(s: LinMap, proj: LinMap) -> bool:
    """Whether s: Q -> A is a unit- and counit-preserving section of the Hopf
    map proj: A -> Q with s(x_1) (x) x_2 = s(x)_1 (x) proj(s(x)_2).

    The counit check rejects no s that passes proj o s = id: proj is a Hopf
    map, so eps o s = eps o proj o s = eps.
    """
    Q, A, F = s.source, s.target, s.target.field
    id_Q, id_A = mat_identity(Q.dim, F), mat_identity(A.dim, F)
    if mat_compose(F, proj.mat, s.mat) != id_Q:
        return False
    if s.apply(Q.unit) != A.unit:
        return False
    for j in range(Q.dim):
        sj = s.apply(unit_vec(j, F))
        if (t2_map(F, s.mat, id_Q, Q.comult[j])
                != t2_map(F, id_A, proj.mat, A.coproduct(sj))):
            return False
        if A.counit_of(sj) != Q.counit.get(j, F.zero()):
            return False
    return True


def cleaving_gamma(G: GroupScheme, H_sub: SubgroupScheme) -> CleavingData:
    """A convolution-invertible colinear section gamma of pi: k[G] -> k[G/H]
    with gamma(1) = 1, its convolution inverse, the retraction
    eta = id * (gamma^-1 pi) and the closed-form eta^-1.  Callers read
    ``H.cleaving``, which keeps it with its quotient.

    The closed form sends each class x_r to the first of 1, e_0, e_1, ...
    that pi sends to x_r (coset representatives of a constant group, the
    Frobenius-tower lifts, the identity when H = 1).  When some class has
    none, or that map is no invertible colinear section, gamma is the
    particular solution of the section system with the rows gamma(pi(g)) =
    g, for g = 1 and, when G(k) is not trivial, the first grouplike g of
    k[G] of each class pi(g), re-checked.  NoInvertibleSectionFound is
    raised when that system is inconsistent or its solution not invertible;
    neither happens when k[G] is pointed, as for constant and infinitesimal
    G, their products and subgroups, which are all the constructors build.

    Proof.  Invertible: a coalgebra surjection maps the coradical onto a
    space holding the coradical of its image (Montgomery, Hopf Algebras and
    Their Actions on Rings, CBMS 82, Cor. 5.3.5), so k[G/H] is pointed with
    grouplikes the pi(g).  gamma sends them to grouplikes, which are
    invertible, and a map out of a pointed coalgebra invertible on its
    grouplikes is convolution invertible (Takeuchi; Montgomery, Lemma
    5.2.10).  Consistent: k[G] is cleft over k[G/H] for normal H
    (Schneider, J. Algebra 152, 1992), by some colinear gamma_0 with
    pi gamma_0 = id and gamma_0(1) = 1 after normalizing.  By colinearity
    gamma_0(pi(g)) g^-1 is coinvariant, so gamma_0(pi(g)) = h_g g with h_g
    in k[H], invertible and of counit 1.  A unital lambda: k[G/H] -> k[H]
    with lambda(pi(g)) = h_g^-1, and 1 eps on a complement of the
    grouplikes, is invertible by the same criterion, and lambda * gamma_0,
    x -> lambda(x_1) gamma_0(x_2), solves the system.
    """
    quotient = quotient_by_normal(G, H_sub)
    F = G.field
    kg = G.group_algebra
    Q, pi, n = quotient.hopf, quotient.pi, quotient.hopf.dim

    pre = {}
    for v in [kg.unit] + [unit_vec(i, F) for i in range(G.order)]:
        img = pi.apply(v)
        if len(img) == 1 and F.one() in img.values():
            pre.setdefault(next(iter(img)), v)
    gamma = LinMap(Q, kg, {r: dict(v) for r, v in pre.items()})
    gamma_inv = None
    if len(pre) == n and _colinear_section_ok(gamma, pi):
        try:
            gamma_inv = convolution_inverse(gamma)
        except NotInvertible:
            pass
    if gamma_inv is None:
        rows = _colinear_section_equations(F, Q, kg, pi.mat)
        seen = {tuple(sorted(Q.unit.items()))}  # gamma(1) = 1 is a row already
        for g in kg.grouplikes if G.points_order() > 1 else []:
            x = pi.apply(g)
            if (key := tuple(sorted(x.items()))) not in seen:
                seen.add(key)
                rows.extend(({y * n + j: c for j, c in x.items()}, g.get(y, F.zero()))
                            for y in range(G.order))
        try:
            part, _ = solve_rows(F, rows, G.order * n)
            mat: dict = {}
            for key, c in part.items():
                mat.setdefault(key % n, {})[key // n] = c
            gamma = LinMap(Q, kg, mat)
            gamma_inv = convolution_inverse(gamma)
        except (NoSolution, NotInvertible) as exc:
            raise NoInvertibleSectionFound(f"no invertible colinear section: {exc}")
        if not _colinear_section_ok(gamma, pi):
            raise VerificationFailure("solved section fails its defining identities")
    return _finish_cleaving(G, H_sub, quotient, gamma, gamma_inv)


def _finish_cleaving(G, H_sub, quotient, gamma, gamma_inv) -> CleavingData:
    F = G.field
    kg = G.group_algebra
    gp = gamma_inv.compose(quotient.pi)
    eta = convolution(identity_map(kg), gp)
    eta_inv = convolution(gamma.compose(quotient.pi),
                          LinMap(kg, kg, kg.antipode))
    # retraction identities
    for row in H_sub.subspace.basis():
        if eta.apply(row) != row:
            raise VerificationFailure("eta does not retract onto k[H]")
    for i in range(G.order):
        if not H_sub.subspace.contains(eta.apply(unit_vec(i, F))):
            raise VerificationFailure("eta image leaves k[H]")
    chk = convolution(eta, eta_inv)
    if chk.mat != convolution_unit(kg, kg).mat:
        raise VerificationFailure("eta inverse is not a convolution inverse")
    return CleavingData(gamma, gamma_inv, eta, eta_inv, quotient)


# -- lattice operations on subgroups ---------------------------------------


def product_subgroup(H: SubgroupScheme, K: SubgroupScheme, name="") -> SubgroupScheme:
    """The subgroup generated by the products v w, v in k[H], w in k[K];
    closed once per pair and kept on G."""
    if H.ambient is not K.ambient:
        raise DimensionMismatch("subgroups of different ambient schemes")
    G = H.ambient
    if (H, K) not in G.products:
        kg = G.group_algebra
        gens = [kg.product(v, w) for v in H.subspace.basis() for w in K.subspace.basis()]
        G.products[H, K] = subgroup_from_generators(G, gens, name=name)
    return G.products[H, K]


def intersect_subgroup(H: SubgroupScheme, K: SubgroupScheme, name="") -> SubgroupScheme:
    """K meet K', computed dually via the ideal sum and cross-checked against
    the plain subspace intersection, once per pair, and kept on G.  A
    mismatch is a hard error."""
    if H.ambient is not K.ambient:
        raise DimensionMismatch("subgroups of different ambient schemes")
    G = H.ambient
    if (H, K) not in G.meets:
        G.meets[H, K] = _checked_meet(G, H, K, name)
    return G.meets[H, K]


def _checked_meet(G, H, K, name):
    F = G.field
    O = G.coordinate_algebra
    n = G.order

    def defining_ideal(sub):
        coinv = coinvariant_subspace(G, sub)
        ideal = Echelon(F, n)
        for cplus in augmentation(O, coinv.basis()):
            for j in range(n):
                ideal.insert(O.product(cplus, unit_vec(j, F)))
        return ideal

    ideal_sum = defining_ideal(H)
    for row in defining_ideal(K).basis():
        ideal_sum.insert(row)
    dual_result = annihilator(ideal_sum)
    direct = subspace_intersection(H.subspace, K.subspace)
    if dual_result.key() != direct.key():
        raise VerificationFailure(
            "dual and direct subgroup intersections disagree")
    return subgroup_from_subspace(G, direct, name=name)
