"""Finite dimensional Hopf algebras as labeled bases with sparse structure
constants, plus exact axiom verification, duals, tensor products,
morphism tests, convolution algebra, coinvariants, ideal closures and
quotients by Hopf ideals, the grouplike search and defect complements.

Conventions.  A Hopf algebra of dimension n carries

* ``cells``:    list of n rows, cells[i] a dict j -> Vec holding the
                non-empty products e_i e_j, the one stored product table,
* ``unit``:     Vec, the coordinates of 1,
* ``comult``:   dict i -> Ten2 (dict (j, k) -> scalar),
* ``counit``:   Vec viewed as a functional,
* ``antipode``: Mat (dict column -> image Vec).

Verification is exact: each axiom is checked on every basis tuple, or, for
associativity and multiplicativity, on the tuples that a certified
generating set needs (see ``verify_hopf``).  Reports carry the first
violating tuple found as a witness.
"""

from __future__ import annotations

from functools import cached_property

from .errors import (
    BudgetExceeded,
    FieldMismatch,
    FieldTooLargeForEnumeration,
    NoSolution,
    NotInvertible,
    VerificationFailure,
)
from .linalg import (
    Echelon,
    ParallelEchelon,
    affine_insert,
    echelon_points,
    mat_apply,
    mat_compose,
    mat_identity,
    mat_key,
    mat_kernel,
    mat_rank,
    mat_transpose,
    solve_rows,
    span,
    unit_vec,
    v_axpy,
    v_scale,
)

_GROUPLIKE_BUDGET = 10**7  # branches the grouplike search may form (n^2 |V|)
_MAP_BUDGET = 500_000  # branches the Hopf algebra map search may visit


def t2_outer(F, v, w):
    mul = F.mul
    return {(i, j): mul(a, b) for i, a in v.items() for j, b in w.items()}


def t2_map(F, f, g, t):
    """(f (x) g)(t) for matrices f, g (column -> image) and a Ten2 t."""
    out = {}
    for (a, b), c in t.items():
        fa, gb = f.get(a), g.get(b)
        if fa and gb:
            v_axpy(F, out, c, t2_outer(F, fa, gb))
    return out


def t2_contract(F, f, t):
    """((f (x) id)(t), (id (x) f)(t)) for a functional f (Vec) and a Ten2 t."""
    left, right = {}, {}
    for (a, b), c in t.items():
        fa = f.get(a)
        if fa is not None:
            v_axpy(F, left, F.mul(c, fa), unit_vec(b, F))
        fb = f.get(b)
        if fb is not None:
            v_axpy(F, right, F.mul(c, fb), unit_vec(a, F))
    return left, right


def t2_swap(t):
    return {(b, a): c for (a, b), c in t.items()}


def flat_outer(F, v, w, m):
    """v (x) w on the product basis, with index a * m + r for e_a (x) e_r."""
    mul = F.mul
    return {a * m + r: mul(ca, cr) for a, ca in v.items() for r, cr in w.items()}


def pair_rows(dim, pairs):
    """The row table of a product given as ((i, j), cell) pairs:
    rows[i][j] = cell for each non-empty cell, in the order of pairs."""
    rows = [{} for _ in range(dim)]
    for (i, j), cell in pairs:
        if cell:
            rows[i][j] = cell
    return rows


class HopfAlgebra:
    """A Hopf algebra on a labeled basis (see the module conventions).

    ``cells`` is the one stored product table.  Cells are shared: an
    algebra may hold one dict for many equal cells (``crossed_product``),
    the O(G)^cop of ``doubles`` holds the rows of O(G), and
    ``column_cells`` holds the same dicts as ``cells``.  So no cell, row or
    table of an algebra is changed after construction; a caller that needs
    a changed table copies it first.
    """

    def __init__(self, field, labels, cells, unit, comult, counit, antipode, name=""):
        self.field = field
        self.labels = list(labels)
        self.dim = len(self.labels)
        self.cells = cells
        self.unit = unit
        self.comult = comult
        self.counit = counit
        self.antipode = antipode
        self.name = name
        self._report = None  # kept by verify_hopf

    def __repr__(self):
        return f"HopfAlgebra({self.name or 'dim %d' % self.dim})"

    # -- structure evaluated on general elements -------------------------

    def product(self, v, w):
        F = self.field
        out = {}
        mul, axpy = F.mul, F.axpy
        by_left = self.cells
        for i, a in v.items():
            row = by_left[i]
            for j, b in w.items():
                cell = row.get(j)
                if cell:
                    axpy(out, mul(a, b), cell)
        return out

    def coproduct(self, v):
        axpy = self.field.axpy
        out = {}
        for i, a in v.items():
            axpy(out, a, self.comult[i])
        return out

    def delta_leg(self, t, leg):
        """Delta applied to leg 0 or leg 1 of the Ten2 t, as a Ten3."""
        F = self.field
        out = {}
        zero = F.zero()
        add, mul = F.add, F.mul
        comult = self.comult
        for (j, k), c in t.items():
            for (a, b), d in comult[k if leg else j].items():
                key = (j, a, b) if leg else (a, b, k)
                s = add(out.get(key, zero), mul(c, d))
                if s == zero:
                    out.pop(key, None)
                else:
                    out[key] = s
        return out

    def delta2(self, v):
        """(Delta x id)Delta(v) as a Ten3; coassociativity makes the order
        immaterial for valid inputs."""
        return self.delta_leg(self.coproduct(v), 0)

    def counit_of(self, v):
        F = self.field
        acc = F.zero()
        for i, a in v.items():
            c = self.counit.get(i)
            if c is not None:
                acc = F.add(acc, F.mul(a, c))
        return acc

    def antipode_of(self, v):
        return mat_apply(self.field, self.antipode, v)

    def t2_times(self, x, side):
        """For a fixed Ten2 x, the map y -> x y (side "left") or y -> y x
        (side "right") on H (x) H.

        A product of terms (e_a (x) e_b)(e_c (x) e_d) = e_a e_c (x) e_b e_d
        is zero unless both cells[a][c] and cells[b][d] are non-empty.
        Each term of x is filed once under every basis vector
        that its first leg meets in a non-empty cell (from ``cells`` or
        ``column_cells``, on the side of x), with the row of cells of its
        second leg.  A term of y visits only the terms filed under its
        first leg, and its second cell is one lookup in that row.  Every
        skipped pair has an empty cell, so its product is 0, and the result
        is the sum over all pairs of terms, exactly.  With x on the right, each term of y visits the
        terms of x in their order, as the loop over pairs (term of y, term
        of x) does, so the result also has that loop's key order.
        """
        F = self.field
        mul, add, zero = F.mul, F.add, F.zero()
        cells = self.cells if side == "left" else self.column_cells
        index = {}
        for (a, b), cx in x.items():
            second = cells[b]
            for c, cell in cells[a].items():
                index.setdefault(c, []).append((second, cx, cell))

        def times(y):
            out = {}
            for (c, d), cy in y.items():
                for second, cx, lcell in index.get(c, ()):
                    rcell = second.get(d)
                    if not rcell:
                        continue
                    coef = mul(cx, cy)
                    for l, cl in lcell.items():
                        cc = mul(coef, cl)
                        for r, cr in rcell.items():
                            key = (l, r)
                            sm = add(out.get(key, zero), mul(cc, cr))
                            if sm == zero:
                                out.pop(key, None)
                            else:
                                out[key] = sm
            return out

        return times

    def tensor_square_product(self, x, y):
        """Product of two elements of H (x) H given as Ten2 dicts."""
        return self.t2_times(y, "right")(x)

    # -- values derived from the structure constants, kept on first use ----

    @cached_property
    def column_cells(self):
        """The column index of the cells: column_cells[k] maps i to
        cells[i][k], the same dict.  Formed on its own first use, since most
        algebras (D(G) in ``quotient``, for one) are only ever multiplied
        through the rows."""
        by_right = [{} for _ in range(self.dim)]
        for i, row in enumerate(self.cells):
            for k, cell in row.items():
                by_right[k][i] = cell
        return by_right

    @property
    def mult(self):
        """The cells by pairs (i, j), in row order, formed on each read; only
        ``perfbench/tracer.py`` reads it, to key each ``verify_hopf`` input."""
        return {(i, j): cell for i, row in enumerate(self.cells) for j, cell in row.items()}

    def certified(self):
        """True when ``verify_hopf`` has passed on this algebra; its report
        is kept here, so evidence is only what was earned."""
        return self._report is not None and self._report.ok

    @cached_property
    def is_commutative(self):
        """cells[i][k] = cells[k][i] for all i, k, i.e. the non-empty
        cells with i as left factor are those with i as right factor."""
        return self.cells == self.column_cells

    @cached_property
    def is_cocommutative(self):
        return all(t.get((k, j)) == c for t in self.comult.values()
                   for (j, k), c in t.items())

    @cached_property
    def is_involutive(self):
        F = self.field
        s2 = mat_compose(F, self.antipode, self.antipode)
        return all(s2.get(i, {}) == unit_vec(i, F) for i in range(self.dim))

    @cached_property
    def grouplikes(self):
        """``grouplikes`` of this algebra, searched once."""
        return grouplikes(self)

    @cached_property
    def source_chain(self):
        """``_source_chain`` of this (cocommutative) algebra, formed once."""
        return _source_chain(self)

    @cached_property
    def certified_generators(self):
        """Basis indices A, taken greedily in basis order, such that the
        closure S of span A under right multiplication by A is all of H.

        Index i joins A when e_i is not yet in S; S is then re-closed with a
        worklist that multiplies each newly added vector by every element
        of A (and every earlier vector by the new generator), so products
        are formed once each.  Every e_i ends up in S, so the greedy pass
        always terminates with S = H; in the worst case A is the whole
        basis.
        """
        F = self.field
        one = F.one()
        S = Echelon(F, self.dim)
        gens, members, work = [], [], []
        for i in range(self.dim):
            if S.dim == self.dim:
                break
            e = {i: one}
            if not S.insert(e):
                continue
            work.extend((m, i) for m in members)
            members.append(e)
            gens.append(i)
            work.extend((e, a) for a in gens)
            while work:
                v, a = work.pop()
                p = self.product(v, {a: one})
                if p and S.insert(p):
                    members.append(p)
                    work.extend((p, b) for b in gens)
        return gens


class VerificationReport:
    """Outcome of an exact axiom check: one (name, ok, witness) row per
    axiom, plus structural flags."""

    def __init__(self, subject=""):
        self.subject = subject
        self.checks = []
        self.flags = {}

    def record(self, name, ok, witness=""):
        self.checks.append((name, bool(ok), witness))

    @property
    def ok(self):
        return all(ok for _, ok, _ in self.checks)

    def failures(self):
        return [(n, w) for n, ok, w in self.checks if not ok]

    def as_dict(self):
        return {
            "subject": self.subject,
            "ok": self.ok,
            "checks": [
                {"name": n, "ok": ok, "witness": w} for n, ok, w in self.checks
            ],
            "flags": dict(self.flags),
        }

    def lines(self):
        out = []
        for n, ok, w in self.checks:
            mark = "pass" if ok else "FAIL"
            out.append(f"  [{mark}] {n}" + (f"  witness: {w}" if w and not ok else ""))
        for k, v in self.flags.items():
            out.append(f"  flag {k} = {v}")
        return out


def first_failure(witnesses):
    """(False, the first witness) when the iterable yields one, else
    (True, "").  Yielding is the failure signal, so a witness counts
    whatever its value (a label read from a document may be 0, "" or
    None)."""
    for wit in witnesses:
        return False, wit
    return True, ""


def _light_test(H: HopfAlgebra, gens):
    """(ok, witness) of x (a y) = (x a) y for x, y in the basis and a in
    gens; the witness is the first failing (i, j, k) in that order.

    For each (x, a) = (e_i, e_j) the rows (e_i e_j) e_k and e_i (e_j e_k)
    are formed for every k at once: the first sums c cell over c e_l in
    e_i e_j and the non-empty cells[l][k] of by_left[l], the second
    sums c cells[i][l] over the terms c e_l of each non-empty cell
    cells[j][k].  A k met by neither sum has both sides {} (every cell
    involved is empty), so the rows compared are all that can differ, and
    the smallest differing k is the first failing one of the loop over k.
    """
    F = H.field
    axpy = F.axpy
    labels = H.labels
    by_left = H.cells
    for i in range(H.dim):
        row_i = by_left[i]
        for j in gens:
            lhs = {}
            for l, c in row_i.get(j, {}).items():
                for k, cell in by_left[l].items():
                    acc = lhs.get(k)
                    if acc is None:
                        acc = lhs[k] = {}
                    axpy(acc, c, cell)
            rhs = {}
            for k, cell_jk in by_left[j].items():
                acc = {}
                for l, c in cell_jk.items():
                    cell = row_i.get(l)
                    if cell:
                        axpy(acc, c, cell)
                if acc:
                    rhs[k] = acc
            if lhs != rhs:  # perhaps only by rows of lhs that summed to {}
                bad = [k for k in lhs.keys() | rhs.keys() if lhs.get(k, {}) != rhs.get(k, {})]
                if bad:
                    return False, f"({labels[i]},{labels[j]},{labels[min(bad)]})"
    return True, ""


def verify_hopf(H: HopfAlgebra) -> VerificationReport:
    """Check every Hopf axiom exactly and report witnesses; the report is
    kept on H (see ``HopfAlgebra.certified``).

    The unit law, the counit law, the unit and counit compatibilities and
    the antipode law are checked on every basis vector.  Associativity and
    the multiplicativity of the comultiplication and the counit are checked
    over the generating set A of ``HopfAlgebra.certified_generators``
    (Light's associativity test, see ``_light_test``):

    * associativity on the triples x (a y) = (x a) y, for x, y in the basis
      and a in A;
    * Delta(a y) = Delta(a) Delta(y) and eps(a y) = eps(a) eps(y) on
      A x basis;
    * coassociativity on A when the associativity, "comultiplication
      multiplicative" and "comultiplication unital" rows of this report
      passed, and on every basis vector otherwise.

    Proof that this certifies the axioms on all of H.  Let
    M = {a : x (a y) = (x a) y for all x, y}.  M is a subspace, by
    bilinearity of the product, and it is closed under products: for a, b
    in M,

        x ((a b) y) = x (a (b y)) = (x a) (b y) = ((x a) b) y = (x (a b)) y,

    using b in M (with x := a), a in M (with y := b y), b in M (with
    x := x a) and a in M (with y := b) in turn.  No associativity of H is
    assumed.  The check gives A within M, so every vector of S, a linear
    combination of right products (...(a1 a2)...) ak of elements of A, lies
    in M.  S = H, so M = H and H is associative.

    Once H is associative, so is H (x) H, and
    N = {a : Delta(a y) = Delta(a) Delta(y) for all y} is a subspace closed
    under products: Delta((a b) y) = Delta(a (b y)) = Delta(a) Delta(b y)
    = Delta(a) Delta(b) Delta(y) = Delta(a b) Delta(y).  The check gives
    A within N, hence S = H within N.  The same argument, with eps in place
    of Delta and k in place of H (x) H, covers the counit.  If H is not
    associative, the associativity row fails, so the report fails whatever
    the two multiplicativity rows say.

    Coassociativity.  Once Delta is multiplicative on all of H (the rows
    above), so is Delta (x) id on H (x) H, as the product there is legwise:
    (Delta (x) id)(X Y) = sum Delta(x1 y1) (x) x2 y2 = (Delta (x) id)(X)
    (Delta (x) id)(Y), and likewise id (x) Delta.  So (Delta (x) id) Delta
    and (id (x) Delta) Delta are multiplicative, the set where they agree
    is a subspace closed under products, and it contains A, hence S = H.
    When a premise row fails, the report fails anyway, and coassociativity
    is checked on every basis vector so the row says what a sweep says.

    The Delta row forms each Delta(a) Delta(e_j) with ``t2_times``, its
    terms indexed once per a and reused over every j; it skips only pairs
    of terms with an empty cell, whose products are 0, so each product is
    exact and the pairs (a, j) are checked in the same order.
    """
    F = H.field
    n = H.dim
    zero = F.zero()
    labels = H.labels
    by_left = H.cells
    gens = H.certified_generators
    rows = {"associativity": _light_test(H, gens)}

    def unit_fails(i):
        e = unit_vec(i, F)
        return H.product(H.unit, e) != e or H.product(e, H.unit) != e

    rows["unit law"] = first_failure(labels[i] for i in range(n) if unit_fails(i))

    def counit_fails(i):
        left, right = t2_contract(F, H.counit, H.comult[i])
        return left != unit_vec(i, F) or right != unit_vec(i, F)

    rows["counit law"] = first_failure(labels[i] for i in range(n) if counit_fails(i))

    def delta_failures(i):
        times = H.t2_times(H.comult[i], "left")
        row = by_left[i]
        return (j for j in range(n) if H.coproduct(row.get(j, {})) != times(H.comult[j]))

    rows["comultiplication multiplicative"] = first_failure(
        f"({labels[i]},{labels[j]})" for i in gens for j in delta_failures(i))

    def eps_failures(i):
        ei, row = H.counit.get(i, zero), by_left[i]
        return (j for j in range(n)
                if H.counit_of(row.get(j, {})) != F.mul(ei, H.counit.get(j, zero)))

    rows["counit multiplicative"] = first_failure(
        f"({labels[i]},{labels[j]})" for i in gens for j in eps_failures(i))
    rows["comultiplication unital"] = (
        H.coproduct(H.unit) == t2_outer(F, H.unit, H.unit), "")
    rows["counit of unit"] = (H.counit_of(H.unit) == F.one(), "")

    premises = ("associativity", "comultiplication multiplicative", "comultiplication unital")
    coassoc_on = gens if all(rows[r][0] for r in premises) else range(n)
    rows["coassociativity"] = first_failure(
        labels[i] for i in coassoc_on
        if H.delta_leg(H.comult[i], 0) != H.delta_leg(H.comult[i], 1))

    def antipode_fails(i):
        left, right = {}, {}
        for (j, k), c in H.comult[i].items():
            sj = H.antipode.get(j)
            if sj:
                v_axpy(F, left, c, H.product(sj, unit_vec(k, F)))
            sk = H.antipode.get(k)
            if sk:
                v_axpy(F, right, c, H.product(unit_vec(j, F), sk))
        target = v_scale(F, H.counit.get(i, zero), H.unit)
        return left != target or right != target

    rows["antipode law"] = first_failure(labels[i] for i in range(n) if antipode_fails(i))

    rep = VerificationReport(H.name or f"hopf(dim {n})")
    for name in ("associativity", "unit law", "coassociativity", "counit law",
                 "comultiplication multiplicative", "counit multiplicative",
                 "comultiplication unital", "counit of unit", "antipode law"):
        rep.record(name, *rows[name])
    rep.flags["commutative"] = H.is_commutative
    rep.flags["cocommutative"] = H.is_cocommutative
    rep.flags["involutive"] = H.is_involutive
    H._report = rep
    return rep


def dual_hopf(H: HopfAlgebra) -> HopfAlgebra:
    """The dual Hopf algebra in the dual basis.

    Multiplication and comultiplication trade places (with the evident
    transposes), unit and counit swap, and the antipode transposes.
    """
    F = H.field
    n = H.dim
    cells = [{} for _ in range(n)]
    for k in range(n):
        for (i, j), c in H.comult[k].items():
            cells[i].setdefault(j, {})[k] = c
    comult = {k: {} for k in range(n)}
    for i, row in enumerate(H.cells):
        for j, cell in row.items():
            for k, c in cell.items():
                comult[k][(i, j)] = c
    return HopfAlgebra(
        field=F,
        labels=[lab + "*" for lab in H.labels],
        cells=cells,
        unit=dict(H.counit),
        comult=comult,
        counit=dict(H.unit),
        antipode=mat_transpose(H.antipode),
        name=f"{H.name}*" if H.name else "",
    )


def _unit_multiple(F, unit, v):
    """The scalar c with v = c unit, or None when v is no non-zero multiple."""
    if v == unit:
        return F.one()
    k, u = next(iter(unit.items()))
    c = F.div(v.get(k, F.zero()), u)
    return c if c != F.zero() and v == v_scale(F, c, unit) else None


def crossed_product(A: HopfAlgebra, Q: HopfAlgebra, dot, sigma, tau, labels, name):
    """The crossed product A^cop #_sigma^tau Q on the basis a * dim Q + x:

    product   (a # x)(b # y) = a (x_1 . b) sigma(x_2, y_1) # x_3 y_2,
    coproduct (a # x) -> (a_2 tau(x_1)^1 # x_2) (x) (a_1 tau(x_1)^2 # x_3),
    antipode  S(a # x) = j^-1(x) (S(a) # 1), unit 1 # 1, counit eps # eps,

    with j: Q -> D, x -> 1 # x and j^-1 its convolution inverse in
    Hom(Q, D), solved by ``convolution_inverse`` when some sigma(x, y) is no
    multiple of 1.

    ``dot[x]`` is the matrix of x . (-) on A, ``sigma`` maps (x, y) to a
    vector of A and ``tau`` maps x to a Ten2 over A; a missing entry is 0.

    Antipode.  With sigma and tau normalized, a # x = (a # 1)(1 # x) and
    A^cop # 1 is a Hopf subalgebra, so S(a # x) = S(1 # x) (S(a) # 1), as S
    is anti-multiplicative.  When tau is trivial, Delta(1 # x) =
    (1 # x_1) (x) (1 # x_2), so j is a coalgebra map and S o j is a
    convolution inverse of j, hence j^-1, which is unique.  When tau is not
    trivial, j is no coalgebra map and S o j need not be j^-1.  For A
    commutative and Q cocommutative, as for every triple, the antipode law
    on 1 # x reads S(1 # x_1)(omega(x_2) # x_3) = eps(x) 1 with
    omega(x) = S(tau(x)^1) tau(x)^2, so S(1 # x_1)(omega(x_2) # 1) = j^-1(x),
    and j^-1(x)(S(a) # 1) is the antipode exactly when omega = eps 1.  The
    closed form of the antipode of A #_sigma^tau Q in sigma^-1 and tau, for
    sigma and tau both non-trivial, is Andruskiewitsch and Devoto's
    (Extensions of Hopf algebras, St. Petersburg Math. J. 7 (1996); also
    Agore, Comm. Algebra 2013); it is not formed here, and in every case
    but trivial tau the antipode row of ``verify_hopf`` decides.  A multiple c 1 of 1
    has c = eps(x) eps(y) when eps o sigma = eps (x) eps, as for the sigma
    of a triple, so when every sigma(x, y) is one, sigma is trivial, j is
    an algebra map and j^-1(x) = j(S(x)) = 1 # S(x), formed without
    solving: D(G) and the triples with trivial sigma keep that formula.

    Reading (x_1, x_2, x_3) as (x_1, (x_2)_1, (x_2)_2), which
    coassociativity of Q allows, the product is the sum over Delta(x) of
    P[a][x_1][b] T(x_2, y) with P[a][x][b] = a (x . b) formed once per
    (a, x, b) and T(x, y) = sum sigma(x_1, y_1) (x) x_2 y_2 once per (x, y),
    and the coproduct is the sum over Delta(x) of
    (a_2 (x) a_1) tau(x_1) (x) Delta(x_2).  Terms are grouped by their sigma
    or tau value; a value c 1 or c 1 (x) 1 needs no product in A, by the
    unit law.  So with sigma and tau trivial, as for D(G), every cell has the
    keys of the term-by-term expansion in its order.
    """
    F = A.field
    zero, one, add, mul = F.zero(), F.one(), F.add, F.mul
    mA, mQ = A.dim, Q.dim

    sig_unit = {xy: _unit_multiple(F, A.unit, v) for xy, v in sigma.items() if v}
    # T[x][y]: [(sigma key, or None for the multiples of 1, Q vector)], for
    # the y with a non-empty list only, in ascending order
    T = [{} for _ in range(mQ)]
    for x in range(mQ):
        for y in range(mQ):
            groups = {}
            for (x1, x2), cx in Q.comult[x].items():
                for (y1, y2), cy in Q.comult[y].items():
                    cell = Q.cells[x2].get(y2)
                    if (x1, y1) in sig_unit and cell:
                        c = sig_unit[(x1, y1)]
                        coef = mul(cx, cy)
                        key, coef = ((x1, y1), coef) if c is None else (None, mul(coef, c))
                        v_axpy(F, groups.setdefault(key, {}), coef, cell)
            terms = [(key, list(w.items())) for key, w in groups.items() if w]
            if terms:
                T[x][y] = terms

    # one dict per distinct cell value, keyed by its items in order: most
    # cells repeat (D(ga_kernel(4)) has 11,016 cells of 256 values)
    cells, shared = [{} for _ in range(mA * mQ)], {}
    for a in range(mA):
        ea = {a: one}
        P = {(x, b): A.product(ea, w) for x in range(mQ) for b, w in dot[x].items()}
        for r in range(mQ):
            for b in range(mA):
                # per term c x_1 (x) x_2 of Delta(x_r) with p = P[a][x_1][b] != 0:
                # T[x_2] and the rows [(mQ * index in A, coefficient)] of c p
                # (key None) and of c p sigma(key), formed when first met
                terms = [(T[x2], {None: [(o * mQ, mul(c, co)) for o, co in P[(x1, b)].items()]},
                          c, P[(x1, b)]) for (x1, x2), c in Q.comult[r].items() if P.get((x1, b))]
                # only the s with a non-empty T[x_2][s] for some term give a
                # non-empty cell; they run in ascending order, as range(mQ) did
                for s in sorted(set().union(*(Tx for Tx, _, _, _ in terms))):
                    out = {}
                    for Tx, rows, c, p in terms:
                        for key, w in Tx.get(s, ()):
                            row = rows.get(key)
                            if row is None:
                                row = rows[key] = [(o * mQ, mul(c, co)) for o, co in
                                                   A.product(p, sigma[key]).items()]
                            for base, coc in row:
                                for kk, ck in w:
                                    k = base + kk
                                    sm = add(out.get(k, zero), mul(coc, ck))
                                    if sm == zero:
                                        out.pop(k, None)
                                    else:
                                        out[k] = sm
                    if out:
                        cells[a * mQ + r][b * mQ + s] = shared.setdefault(
                            tuple(out.items()), out)

    unit2 = t2_outer(F, A.unit, A.unit)
    tau_unit = {x: _unit_multiple(F, unit2, t) for x, t in tau.items() if t}
    # U[r]: [(tau key, or None for the multiples of 1 (x) 1, Ten2 over Q)]
    U = []
    for r in range(mQ):
        groups = {}
        for (x1, x2), c in Q.comult[r].items():
            if x1 in tau_unit:
                ct = tau_unit[x1]
                key, coef = (x1, c) if ct is None else (None, mul(c, ct))
                v_axpy(F, groups.setdefault(key, {}), coef, Q.comult[x2])
        U.append([(key, list(w.items())) for key, w in groups.items() if w])

    comult = {}
    for a in range(mA):
        # (a_2 (x) a_1) tau(key) in A (x) A, key None standing for 1 (x) 1
        legs = {None: t2_swap(A.comult[a])}
        for r in range(mQ):
            out = {}
            for key, w in U[r]:
                if key not in legs:
                    legs[key] = A.tensor_square_product(legs[None], tau[key])
                for (o1, o2), c in legs[key].items():
                    for (x2, x3), cw in w:
                        k = (o1 * mQ + x2, o2 * mQ + x3)
                        cur = out.get(k)
                        sm = mul(c, cw) if cur is None else add(cur, mul(c, cw))
                        if sm == zero:
                            out.pop(k, None)
                        else:
                            out[k] = sm
            comult[a * mQ + r] = out

    D = HopfAlgebra(F, labels, cells, flat_outer(F, A.unit, Q.unit, mQ), comult,
                    flat_outer(F, A.counit, Q.counit, mQ), {}, name=name)
    if None in sig_unit.values():
        j = {x: flat_outer(F, A.unit, {x: one}, mQ) for x in range(mQ)}
        j_inv = convolution_inverse(LinMap(Q, D, j)).mat
    else:
        j_inv = {x: flat_outer(F, A.unit, Q.antipode.get(x, {}), mQ) for x in range(mQ)}
    for a in range(mA):
        right = flat_outer(F, A.antipode.get(a, {}), Q.unit, mQ)
        for x in range(mQ):
            col = D.product(j_inv.get(x, {}), right)
            if col:
                D.antipode[a * mQ + x] = col
    return D


def tensor_hopf(A: HopfAlgebra, B: HopfAlgebra) -> HopfAlgebra:
    """Componentwise Hopf structure on A (x) B, basis index (i, j) -> i*dim(B)+j."""
    if A.field != B.field:
        raise FieldMismatch("tensor factors over different fields")
    F = A.field
    nb = B.dim
    idx = lambda i, j: i * nb + j

    labels = [f"{a}(x){b}" for a in A.labels for b in B.labels]
    cells = []
    for row1 in A.cells:
        for row2 in B.cells:
            cells.append({idx(j1, j2): out for j1, cell1 in row1.items()
                          for j2, cell2 in row2.items()
                          if (out := flat_outer(F, cell1, cell2, nb))})
    unit = flat_outer(F, A.unit, B.unit, nb)
    comult = {}
    for i in range(A.dim):
        for j in range(B.dim):
            t = {}
            for (a1, a2), ca in A.comult[i].items():
                for (b1, b2), cb in B.comult[j].items():
                    t[(idx(a1, b1), idx(a2, b2))] = F.mul(ca, cb)
            comult[idx(i, j)] = t
    counit = flat_outer(F, A.counit, B.counit, nb)
    antipode = {}
    for i in range(A.dim):
        sa = A.antipode.get(i, {})
        for j in range(B.dim):
            col = flat_outer(F, sa, B.antipode.get(j, {}), nb)
            if col:
                antipode[idx(i, j)] = col
    name = f"{A.name}(x){B.name}" if A.name and B.name else ""
    return HopfAlgebra(F, labels, cells, unit, comult, counit, antipode, name=name)


class LinMap:
    """A linear map between the underlying spaces of two Hopf algebras."""

    def __init__(self, source: HopfAlgebra, target: HopfAlgebra, mat):
        self.source = source
        self.target = target
        self.mat = {j: dict(col) for j, col in mat.items() if col}

    def apply(self, v):
        return mat_apply(self.target.field, self.mat, v)

    def compose(self, other: "LinMap") -> "LinMap":
        return LinMap(
            other.source, self.target, mat_compose(self.target.field, self.mat, other.mat)
        )

    def rank(self):
        return mat_rank(self.target.field, self.mat, self.target.dim)

    def key(self):
        return mat_key(self.mat)


def identity_map(H: HopfAlgebra) -> LinMap:
    return LinMap(H, H, mat_identity(H.dim, H.field))


def is_hopf_morphism(f: LinMap):
    """True plus empty witness when f respects mult, unit, comult, counit on
    all basis tuples; otherwise (False, witness).  Antipode compatibility is
    automatic for bialgebra maps between Hopf algebras but is verified anyway.

    The image f(e_i) of each basis vector is formed once.  Multiplicativity
    f(e_i e_j) = f(e_i) f(e_j) is checked on the pairs (i, j) whose source
    cell cells[i][j] is non-empty or whose images f(e_i) and f(e_j) are
    both non-zero, in (i, j) order.  On every other pair
    both sides are 0: e_i e_j = 0, and f(e_i) or f(e_j) is 0.  So the check
    holds on all n^2 basis pairs exactly when it holds on the visited ones,
    and the witness is the first failing pair in (i, j) order.

    It is not checked on A x basis for a certified generating set A of the
    source, as ``verify_hopf`` does: that argument (N = {a : f(a y) =
    f(a) f(y)} is closed under products) needs the source to be
    associative, which no caller certifies beforehand.  A map out of D(G)
    need not come here at all: ``doubles.is_hopf_map_from_double`` decides
    it by the universal property of D(G), on sources of dimension |G|.
    """
    A, B, F = f.source, f.target, f.target.field
    img = [f.apply(unit_vec(i, F)) for i in range(A.dim)]
    by_left = A.cells
    nonzero = [j for j, fj in enumerate(img) if fj]
    for i, fi in enumerate(img):
        row = by_left[i]
        for j in sorted(row.keys() | nonzero if fi else row):
            lhs = f.apply(row.get(j, {}))
            rhs = B.product(fi, img[j]) if fi and img[j] else {}
            if lhs != rhs:
                return False, f"mult at ({A.labels[i]},{A.labels[j]})"
    if f.apply(A.unit) != B.unit:
        return False, "unit"
    for i, fi in enumerate(img):
        if B.coproduct(fi) != t2_map(F, f.mat, f.mat, A.comult[i]):
            return False, f"comult at {A.labels[i]}"
        if B.counit_of(fi) != A.counit.get(i, F.zero()):
            return False, f"counit at {A.labels[i]}"
    for i, fi in enumerate(img):
        if f.apply(A.antipode.get(i, {})) != B.antipode_of(fi):
            return False, f"antipode at {A.labels[i]}"
    return True, ""


def certify_hopf_map(f: LinMap, name: str, onto=False, error=VerificationFailure):
    """f, once ``is_hopf_morphism`` passes and, when onto, rank f = dim of
    its target; otherwise error, naming f and the witness."""
    ok, wit = is_hopf_morphism(f)
    if not ok:
        raise error(f"{name} is not a Hopf morphism: {wit}")
    if onto and f.rank() != f.target.dim:
        raise error(f"{name} is not surjective")
    return f


def convolution(f: LinMap, g: LinMap) -> LinMap:
    """(f * g)(c) = f(c_1) g(c_2), using the source coalgebra and target algebra."""
    A, B = f.source, f.target
    F = B.field
    mat = {}
    for i in range(A.dim):
        out = {}
        for (j, k), c in A.comult[i].items():
            v_axpy(F, out, c, B.product(f.apply(unit_vec(j, F)), g.apply(unit_vec(k, F))))
        if out:
            mat[i] = out
    return LinMap(A, B, mat)


def convolution_unit(source: HopfAlgebra, target: HopfAlgebra) -> LinMap:
    return LinMap(source, target, {i: v_scale(target.field, c, target.unit)
                                   for i, c in sorted(source.counit.items())})


def convolution_inverse(f: LinMap) -> LinMap:
    """Solve f * g = unit.counit = g * f exactly; NotInvertible if impossible.

    The unknown g[k][b] enters f(e_j) g(e_k) through cells[l][b]
    of B and g(e_j) f(e_k) through cells[b][l], for l in the
    support of the image of f; only the non-empty ones (from ``cells``) are
    visited, as the empty ones add nothing to any row.  ``solve_rows``
    returns the canonical solution of the system, so the order in which the
    rows and their entries are formed does not change the result.
    """
    A, B = f.source, f.target
    F = B.field
    nA, nB = A.dim, B.dim
    flat = lambda col, coord: col * nB + coord
    by_left, by_right = B.cells, B.column_cells

    rows = []
    for i in range(nA):
        lhs_rows: dict = {}
        rhs_rows: dict = {}
        for (j, k), c in A.comult[i].items():
            fj = f.apply(unit_vec(j, F))
            # f(e_j) * g(e_k): coefficient of unknown g[k][b] in output coord a
            for l, cl in fj.items():
                for b, cell in by_left[l].items():
                    coef = F.mul(c, cl)
                    for a, ca in cell.items():
                        key = flat(k, b)
                        d = lhs_rows.setdefault(a, {})
                        d[key] = F.add(d.get(key, F.zero()), F.mul(coef, ca))
            fk = f.apply(unit_vec(k, F))
            # g(e_j) * f(e_k)
            for l, cl in fk.items():
                for b, cell in by_right[l].items():
                    coef = F.mul(c, cl)
                    for a, ca in cell.items():
                        key = flat(j, b)
                        d = rhs_rows.setdefault(a, {})
                        d[key] = F.add(d.get(key, F.zero()), F.mul(coef, ca))
        target = v_scale(F, A.counit.get(i, F.zero()), B.unit)
        for a in set(lhs_rows) | set(target):
            rows.append((lhs_rows.get(a, {}), target.get(a, F.zero())))
        for a in set(rhs_rows) | set(target):
            rows.append((rhs_rows.get(a, {}), target.get(a, F.zero())))
    try:
        particular, kernel = solve_rows(F, rows, nA * nB)
    except NoSolution:
        raise NotInvertible("map has no convolution inverse")
    if kernel.dim:
        raise NotInvertible("convolution inverse system is underdetermined")
    mat: dict = {}
    for key, c in particular.items():
        col, coord = divmod(key, nB)
        mat.setdefault(col, {})[coord] = c
    return LinMap(A, B, {j: {k: v for k, v in col.items() if v != F.zero()} for j, col in mat.items()})


def induced_hopf(H: HopfAlgebra, basis, coords, t2_coords, labels, name=""):
    """The Hopf structure H induces on a Hopf subalgebra or quotient with the
    given basis (elements of H): ``coords`` gives the coordinates of an
    element of H, ``t2_coords`` those of a Ten2 of H."""
    F = H.field
    cells = [{s: cell for s, y in enumerate(basis) if (cell := coords(H.product(x, y)))}
             for x in basis]
    unit = coords(H.unit)
    comult = {r: t2_coords(H.coproduct(x)) for r, x in enumerate(basis)}
    counit = {r: c for r, x in enumerate(basis) if (c := H.counit_of(x)) != F.zero()}
    antipode = {r: col for r, x in enumerate(basis) if (col := coords(H.antipode_of(x)))}
    return HopfAlgebra(F, labels, cells, unit, comult, counit, antipode, name=name)


def ideal_projection(H: HopfAlgebra, ideal: Echelon, name="") -> LinMap:
    """pi: H ->> H/I onto the induced structure on the complement-of-pivots
    basis, uncertified: ``quotient_by_hopf_ideal`` says what certifies it."""
    F = H.field
    reps = [i for i in range(H.dim) if i not in ideal.rows]
    cls = {i: r for r, i in enumerate(reps)}

    def project(v):
        return {cls[i]: c for i, c in ideal.reduce(v).items()}

    pi_mat = {i: col for i in range(H.dim) if (col := project(unit_vec(i, F)))}
    Q = induced_hopf(H, [unit_vec(i, F) for i in reps], project,
                     lambda t: t2_map(F, pi_mat, pi_mat, t),
                     [f"[{H.labels[i]}]" for i in reps],
                     name=name or (f"{H.name}/I" if H.name else ""))
    return LinMap(H, Q, pi_mat)


def quotient_by_hopf_ideal(H: HopfAlgebra, ideal: Echelon, name=""):
    """The quotient Hopf algebra H/I of the Hopf algebra H by a Hopf ideal
    I, with the projection pi of ``ideal_projection``; certified by
    ``is_hopf_morphism(pi)`` alone.

    Proof.  The check gives that pi respects product, unit, coproduct,
    counit and antipode, and pi is onto, so each Hopf axiom of H/I is the
    pi-image of the same axiom in H: (pi(x) pi(y)) pi(z) = pi((x y) z)
    = pi(x (y z)) = pi(x) (pi(y) pi(z)), S(pi(x)_1) pi(x)_2
    = pi(S(x_1) x_2) = eps(x) 1, and so on.  If I is not a Hopf ideal, the
    induced structure disagrees with pi somewhere and the check fails.
    """
    pi = certify_hopf_map(ideal_projection(H, ideal, name), "ideal projection")
    return pi.target, pi


def coinvariants(A: HopfAlgebra, f_mat, f_unit) -> Echelon:
    """{v in A : v_1 (x) f(v_2) = v (x) f(1)} for a linear map f out of A,
    given by its matrix (column -> image) and f(1): the kernel of the map
    whose column i is (id (x) f)Delta(e_i) - e_i (x) f(1)."""
    F = A.field
    ident = mat_identity(A.dim, F)
    minus_one = F.neg(F.one())
    cols = {i: v_axpy(F, t2_map(F, ident, f_mat, A.comult[i]), minus_one,
                      t2_outer(F, ident[i], f_unit))
            for i in range(A.dim)}
    return mat_kernel(F, cols, A.dim)


def augmentation(H: HopfAlgebra, vecs):
    """The non-zero v - eps(v) 1 for v in vecs, which span V^+ = V meet
    ker(eps) for V = span(vecs) when 1 is in V.  Proof: each lies in V and,
    as eps(1) = 1, in ker(eps); and x = sum c_v v in V^+ has
    sum c_v eps(v) = eps(x) = 0, so x = sum c_v (v - eps(v) 1)."""
    F = H.field
    return [w for v in vecs if (w := v_axpy(F, dict(v), F.neg(H.counit_of(v)), H.unit))]


def span_closure(ech: Echelon, seeds, images) -> Echelon:
    """Grow ech, in place, to the smallest subspace containing it and the
    seeds that is closed under ``images``: images(v) lists the images of v,
    and those of a linear combination lie in the span of those of its terms.

    A worklist holds the seeds, then every image that enlarged the span;
    each is processed, and its images formed, once.  If the rows ech had on
    entry are seeds or have their images in ech, then ech, spanned by them
    and the processed vectors, is closed when the worklist is empty.
    """
    work = [dict(v) for v in seeds]  # rows of ech change as it grows
    for v in work:
        ech.insert(v)
    while work:
        for w in images(work.pop()):
            if ech.insert(w):
                work.append(w)
    return ech


def ideal_closure(H: HopfAlgebra, ech: Echelon) -> Echelon:
    """``span_closure`` of the rows of ech under left and right
    multiplication by the basis of H: the two-sided ideal of H the span
    generates."""
    F = H.field
    basis = [unit_vec(d, F) for d in range(H.dim)]
    return span_closure(ech, ech.basis(), lambda row: [
        p for e in basis for p in (H.product(e, row), H.product(row, e))])


def grouplikes(H: HopfAlgebra):
    """All g != 0 with Delta(g) = g(x)g and counit(g) = 1, sorted.

    The search runs over the coordinate values V = F over a finite field
    and V = {0, 1, -1} over the rationals, and is refused up front when its
    branch bound n^2 |V| (below) exceeds _GROUPLIKE_BUDGET.  It finds every
    grouplike whose coordinates lie in V, so it is complete over a finite
    field, and over the rationals wherever every grouplike has coordinates
    in {0, 1, -1}, as in k[L], O(L) and D(L) of a constant group L: the
    grouplikes of k[L] are the basis vectors u_g; those of O(L) are the
    characters chi: L -> Q^x, whose values are roots of unity in Q, hence
    +/-1; and those of the tensor coalgebra O(L)^cop (x) k[L] of D(L) are
    the chi |><| u_g, with coordinates chi(a) at (a, g) and 0 elsewhere.

    The search solves linear constraints instead of sweeping V^n.  With
    T_k = (id (x) e_k*) Delta, Delta(g) = sum_k T_k(g) (x) e_k and
    g (x) g = sum_k g_k g (x) e_k, so g is grouplike iff eps(g) = 1 and
    T_k g = g_k g for every k.  The search fixes g_0, g_1, ... in turn: a
    branch at level k is the affine system eps(g) = 1, g_j = c_j and
    (T_j - c_j) g = 0 for j < k, kept as an Echelon.  Each c in V for g_k
    adds the rows g_k = c and (T_k - c) g = 0 to a copy, and a copy whose
    rows are inconsistent is dropped.  Every grouplike g with coordinates
    in V satisfies the system of the branch (g_0, g_1, ...), so it
    survives, and a branch that survives level n - 1 has every coordinate
    fixed, so it is one point, which satisfies the criterion above.  Each
    point is re-checked with the defining identities all the same.

    At most n branches are alive at any level.  A live branch
    (c_0, ..., c_k) has a solution g, which is nonzero (eps(g) = 1) and a
    common eigenvector of T_0, ..., T_k with eigenvalues c_0, ..., c_k.
    Common eigenvectors with distinct eigenvalue tuples are linearly
    independent: applying T_j - c_j, at a position j where two tuples of a
    shortest dependency differ, gives a shorter one.  So a level forms at
    most n |V| branches, n^2 |V| over the n levels, instead of the |V|^n
    candidates of a sweep.
    """
    F = H.field
    n = H.dim
    one = F.one()
    size = 3 if F.size is None else F.size
    if n * n * size > _GROUPLIKE_BUDGET:
        raise FieldTooLargeForEnumeration(
            f"{n}^2 * {size} branches exceed budget {_GROUPLIKE_BUDGET}")
    values = (F.zero(), one, F.neg(one)) if F.size is None else list(F.elements())
    found = [v for v in _grouplike_points(H, values)
             if v and H.counit_of(v) == one and H.coproduct(v) == t2_outer(F, v, v)]
    found.sort(key=lambda v: tuple(sorted(v.items(), key=str)))
    return found


def _grouplike_points(H: HopfAlgebra, values):
    """The solutions of eps(g) = 1, T_k g = g_k g for all k with every
    coordinate in values, by the branch search described in ``grouplikes``."""
    F = H.field
    n = H.dim
    zero, one = F.zero(), F.one()
    T = [{} for _ in range(n)]  # T[k][j]: row j of T_k, over the coordinates of g
    for i in range(n):
        for (j, k), c in H.comult[i].items():
            T[k].setdefault(j, {})[i] = c
    root = Echelon(F, n + 1)
    branches = [((), root)] if affine_insert(root, H.counit, one) else []
    for k in range(n):
        grown = []
        for coords, ech in branches:
            for c in values:
                branch = ech.copy()
                if not affine_insert(branch, {k: one}, c):
                    continue
                for j in range(n):
                    row = dict(T[k].get(j, {}))
                    v_axpy(F, row, F.neg(c), {j: one})
                    if not affine_insert(branch, row, zero):
                        break
                else:
                    grown.append((coords + (c,), branch))
        branches = grown
    return [{i: c for i, c in enumerate(coords) if c != zero}
            for coords, _ in branches]


def t2_coordinates(F, ech: Echelon, t):
    """The coefficients of the Ten2 t in the basis row_r (x) row_s of
    span (x) span, keyed by (r, s); None when t is outside span (x) span.

    Each basis row is 1 at its own pivot and 0 at the others, so the
    coefficient of row_r (x) row_s is the entry of t at their pivots.
    """
    pivots = ech.pivots()
    grid = {(r, s): t[(a, b)] for r, a in enumerate(pivots)
            for s, b in enumerate(pivots) if (a, b) in t}
    basis = dict(enumerate(ech.basis()))
    return grid if t2_map(F, basis, basis, grid) == t else None


def _primitive_defect(A: HopfAlgebra, v):
    """Delta(v) - v (x) 1 - 1 (x) v."""
    F = A.field
    d = A.coproduct(v)
    minus_one = F.neg(F.one())
    v_axpy(F, d, minus_one, t2_outer(F, v, A.unit))
    v_axpy(F, d, minus_one, t2_outer(F, A.unit, v))
    return d


def defect_complement(H: HopfAlgebra, S: Echelon) -> Echelon:
    """A complement of S in W_S = {v : Delta(v) - v (x) 1 - 1 (x) v in
    S (x) S}, rows reduced modulo S, for a subcoalgebra S holding 1 of a
    cocommutative H: the next generators after S of ``_source_chain`` and
    ``lattice.normal_subgroups``.  W_S is the kernel of v -> (pi (x) id)
    of that defect, pi the reduction modulo S: the defect d is symmetric,
    so d in S (x) H gives d in (H (x) S) meet (S (x) H) = S (x) S.  S lies
    in W_S, so the residues of a basis of W_S span a complement."""
    F, n = H.field, H.dim
    pi = {i: S.reduce(unit_vec(i, F)) for i in range(n)}
    ident = mat_identity(n, F)
    W = mat_kernel(F, {i: t2_map(F, pi, ident, _primitive_defect(H, unit_vec(i, F)))
                       for i in range(n)}, n)
    return span(F, n, [S.reduce(w) for w in W.basis()])


def _source_chain(A: HopfAlgebra):
    """Generators (v, defect) of a cocommutative A.  First the grouplikes
    outside the subalgebra S generated so far, with defect None; then,
    while S is not A, the first row v of ``defect_complement(A, S)``, with
    defect the basis rows of S and the coordinates of v's primitive defect
    in their square.  For a pointed A the complement is non-zero while S
    is not A (the proof of ``lattice.normal_subgroups``), so a zero one
    means A is not pointed, and BudgetExceeded is raised.  A is
    associative, so the subalgebra generated by 1 and the chain is their
    span closed under right multiplication by them."""
    F = A.field
    ech = Echelon(F, A.dim)
    ech.insert(A.unit)
    chain, gens = [], [A.unit]

    def adjoin(v, defect):
        chain.append((v, defect))
        gens.append(v)
        span_closure(ech, ech.basis() + [v], lambda w: [A.product(w, g) for g in gens])

    for g in A.grouplikes:
        if not ech.contains(g):
            adjoin(g, None)
    while ech.dim < A.dim:
        complement = defect_complement(A, ech)
        if not complement.dim:
            raise BudgetExceeded("source algebra is not pointed: W_S lies in S, "
                                 "a proper subalgebra")
        v, S = complement.basis()[0], ech.copy()
        adjoin(v, (dict(enumerate(S.basis())), t2_coordinates(F, S, _primitive_defect(A, v))))
    return chain


def hopf_algebra_maps(A: HopfAlgebra, C: HopfAlgebra):
    """All Hopf algebra maps A -> C of Hopf algebras A and C, sorted by key.

    Each generator v of ``_source_chain`` in turn is sent to each grouplike
    of C when v is grouplike, and otherwise to each solution z of the
    affine system Delta(z) - z (x) 1 - 1 (x) z = (f (x) f)(Delta(v) - v (x) 1
    - 1 (x) v), eps(z) = eps(v), f the map so far (for a primitive v, the
    primitives of C).  The pairs (v, f(v)) are kept in a ParallelEchelon
    whose span, with (1, 1), is closed under right multiplication by them:
    by associativity, the subalgebra of A x C they generate.  A branch
    whose span is no graph of a map (a conflict) is dropped.  Complete: a
    Hopf map g sends each generator to an image tried for it (with f = g
    on the subalgebra before it), and for a pointed A the chain generates
    A (``_source_chain``); raises BudgetExceeded if the chain stops short
    there (A is not pointed) or the branch count exceeds _MAP_BUDGET.

    Every map found is a Hopf algebra map, once and only once:

    * The span at a leaf is the graph of f on the subalgebra the chain
      generates.  That subalgebra is A, so f is an algebra map.
    * Delta_C f and (f (x) f) Delta_A are algebra maps A -> C (x) C, and
      they agree on the chain: on a grouplike g as f(g) is grouplike, on
      any other v by the affine rows, as f(1) = 1.  So they are equal, and
      likewise eps_C f = eps_A.  A bialgebra map of Hopf algebras respects
      the antipodes.
    * Two leaves differ in the image of a generator, as the images tried
      at one step are distinct, so no map is found twice.

    A and C must be Hopf algebras, A cocommutative: k[H] and O(K) of
    subgroup schemes are, and ``Triple.validate`` checks every B all the same.
    """
    if A.field != C.field:
        raise FieldMismatch("source and target over different fields")
    F = A.field
    chain = A.source_chain
    glC = C.grouplikes
    prim_rows_C = mat_transpose({i: _primitive_defect(C, unit_vec(i, F)) for i in range(C.dim)})

    results = []
    counter = [0]

    def affine_images(pech, v, defect):
        """The solutions z for v, its defect mapped by f from S (x) S."""
        basis, coords = defect
        f = {r: pech.image_of(row) for r, row in basis.items()}
        img = t2_map(F, f, f, coords)
        rows = [(prim_rows_C.get(key, {}), img.get(key, F.zero()))
                for key in set(prim_rows_C) | set(img)]
        rows.append((dict(C.counit), A.counit_of(v)))
        try:
            part, kern = solve_rows(F, rows, C.dim)
        except NoSolution:
            return []
        return [v_axpy(F, dict(part), F.one(), z0) for z0 in echelon_points(kern, F)]

    def close(pech, span, gens):
        """A copy of pech with the last pair of gens added and its span
        closed under right multiplication by gens, and the pairs spanning
        it; None on a conflict.  The span of span is that of pech, holds
        (1, 1) and is closed under gens[:-1], so each pair of span is
        multiplied by the new pair only."""
        v, z = gens[-1]
        pech, span = pech.copy(), list(span)
        work = [(v, z)] + [(A.product(x, v), C.product(y, z)) for x, y in span]
        while work:
            x, y = work.pop()
            st = pech.insert(x, y)
            if st == "conflict":
                return None
            if st == "new":
                span.append((x, y))
                work.extend((A.product(x, a), C.product(y, c)) for a, c in gens)
        return pech, span

    def rec(pech, span, gens):
        counter[0] += 1
        if counter[0] > _MAP_BUDGET:
            raise BudgetExceeded(f"candidate budget {_MAP_BUDGET} exhausted")
        if len(gens) == len(chain):
            results.append(LinMap(A, C, {i: pech.image_of(unit_vec(i, F))
                                         for i in range(A.dim)}))
            return
        v, defect = chain[len(gens)]
        for z in glC if defect is None else affine_images(pech, v, defect):
            pairs = gens + [(v, z)]
            if closed := close(pech, span, pairs):
                rec(*closed, pairs)

    root = ParallelEchelon(F, A.dim, C.dim)
    root.insert(dict(A.unit), dict(C.unit))
    rec(root, [(dict(A.unit), dict(C.unit))], [])
    results.sort(key=lambda f: str(f.key()))
    return results
