"""Finite dimensional Hopf algebras as labeled bases with sparse structure
constants, plus exact axiom verification, duals, variants, tensor
products, morphism tests, convolution algebra, coinvariants, ideal closures
and quotients by Hopf ideals, and grouplike/primitive searches.

Conventions.  A Hopf algebra of dimension n carries

* ``mult``:     dict (i, j) -> Vec, the product of basis vectors i and j,
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

from .errors import (
    AntipodeNotInvertible,
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
    mat_inverse,
    mat_key,
    mat_rank,
    mat_transpose,
    solve_rows,
    unit_vec,
    v_axpy,
    v_scale,
)


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


class HopfAlgebra:
    def __init__(self, field, labels, mult, unit, comult, counit, antipode, name=""):
        self.field = field
        self.labels = list(labels)
        self.dim = len(self.labels)
        self.mult = mult
        self.unit = unit
        self.comult = comult
        self.counit = counit
        self.antipode = antipode
        self.name = name
        self._flags = {}
        self._cells = None
        self._generators = None  # kept by certified_generators
        self._report = None  # kept by verify_hopf

    def __repr__(self):
        return f"HopfAlgebra({self.name or 'dim %d' % self.dim})"

    # -- structure evaluated on general elements -------------------------

    def product(self, v, w):
        F = self.field
        out = {}
        mul, axpy = F.mul, F.axpy
        by_left = self.cells()[0]
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
        is zero unless both cells mult[(a, c)] and mult[(b, d)] are
        non-empty.  Each term of x is filed once under every basis vector
        that its first leg meets in a non-empty cell (from ``cells``, on the
        side of x), with the row of cells of its second leg.  A term of y
        visits only the terms filed under its first leg, and its second
        cell is one lookup in that row.  Every skipped pair has an empty
        cell, so its product is 0, and the result is the sum over all pairs
        of terms, exactly.  With x on the right, each term of y visits the
        terms of x in their order, as the loop over pairs (term of y, term
        of x) does, so the result also has that loop's key order.
        """
        F = self.field
        mul, add, zero = F.mul, F.add, F.zero()
        cells = self.cells()[0 if side == "left" else 1]
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

    # -- cached global properties ----------------------------------------

    def cells(self):
        """(by_left, by_right) over the non-empty cells of mult: by_left[i]
        maps k to mult[(i, k)] and by_right[k] maps i to it.  Built on
        first use and kept, like the flags below, so mult is not changed
        after construction."""
        if self._cells is None:
            by_left = [{} for _ in range(self.dim)]
            by_right = [{} for _ in range(self.dim)]
            for (i, k), cell in self.mult.items():
                if cell:
                    by_left[i][k] = cell
                    by_right[k][i] = cell
            self._cells = by_left, by_right
        return self._cells

    def certified(self):
        """True when ``verify_hopf`` has passed on this algebra; its report
        is kept here, like ``cells``, so evidence is only what was earned."""
        return self._report is not None and self._report.ok

    def is_commutative(self):
        """mult[(i, k)] = mult[(k, i)] for all i, k, i.e. the non-empty
        cells with i as left factor are those with i as right factor."""
        if "comm" not in self._flags:
            by_left, by_right = self.cells()
            self._flags["comm"] = by_left == by_right
        return self._flags["comm"]

    def is_cocommutative(self):
        if "cocomm" not in self._flags:
            ok = True
            for i in range(self.dim):
                t = self.comult[i]
                if any(t.get((k, j)) != c for (j, k), c in t.items()):
                    ok = False
                    break
            self._flags["cocomm"] = ok
        return self._flags["cocomm"]

    def is_involutive(self):
        if "inv" not in self._flags:
            F = self.field
            s2 = mat_compose(F, self.antipode, self.antipode)
            self._flags["inv"] = all(
                s2.get(i, {}) == unit_vec(i, F) for i in range(self.dim)
            )
        return self._flags["inv"]

    def basis_vec(self, i):
        return {i: self.field.one()}


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


def certified_generators(H: HopfAlgebra):
    """Basis indices A, taken greedily in basis order, such that the closure
    S of span A under right multiplication by A is all of H.

    Index i joins A when e_i is not yet in S; S is then re-closed with a
    worklist that multiplies each newly added vector by every element of A
    (and every earlier vector by the new generator), so products are formed
    once each.  Every e_i ends up in S, so the greedy pass always terminates
    with S = H; in the worst case A is the whole basis.  Computed once per
    algebra and kept on it, like ``cells``.
    """
    if H._generators is not None:
        return H._generators
    F = H.field
    one = F.one()
    S = Echelon(F, H.dim)
    gens, members, work = [], [], []
    for i in range(H.dim):
        if S.dim == H.dim:
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
            p = H.product(v, {a: one})
            if p and S.insert(p):
                members.append(p)
                work.extend((p, b) for b in gens)
    H._generators = gens
    return gens


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
    e_i e_j and the non-empty cells mult[(l, k)] of by_left[l], the second
    sums c mult[(i, l)] over the terms c e_l of each non-empty cell
    mult[(j, k)].  A k met by neither sum has both sides {} (every cell
    involved is empty), so the rows compared are all that can differ, and
    the smallest differing k is the first failing one of the loop over k.
    """
    F = H.field
    axpy = F.axpy
    labels = H.labels
    by_left = H.cells()[0]
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
    over the generating set A of ``certified_generators`` (Light's
    associativity test, see ``_light_test``):

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
    mult = H.mult
    gens = certified_generators(H)
    rows = {"associativity": _light_test(H, gens)}

    def unit_fails(i):
        e = H.basis_vec(i)
        return H.product(H.unit, e) != e or H.product(e, H.unit) != e

    rows["unit law"] = first_failure(labels[i] for i in range(n) if unit_fails(i))

    def counit_fails(i):
        left, right = t2_contract(F, H.counit, H.comult[i])
        return left != H.basis_vec(i) or right != H.basis_vec(i)

    rows["counit law"] = first_failure(labels[i] for i in range(n) if counit_fails(i))

    def delta_failures(i):
        times = H.t2_times(H.comult[i], "left")
        return (j for j in range(n) if H.coproduct(mult.get((i, j), {})) != times(H.comult[j]))

    rows["comultiplication multiplicative"] = first_failure(
        f"({labels[i]},{labels[j]})" for i in gens for j in delta_failures(i))

    def eps_failures(i):
        ei = H.counit.get(i, zero)
        return (j for j in range(n)
                if H.counit_of(mult.get((i, j), {})) != F.mul(ei, H.counit.get(j, zero)))

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
                v_axpy(F, left, c, H.product(sj, H.basis_vec(k)))
            sk = H.antipode.get(k)
            if sk:
                v_axpy(F, right, c, H.product(H.basis_vec(j), sk))
        target = v_scale(F, H.counit.get(i, zero), H.unit)
        return left != target or right != target

    rows["antipode law"] = first_failure(labels[i] for i in range(n) if antipode_fails(i))

    rep = VerificationReport(H.name or f"hopf(dim {n})")
    for name in ("associativity", "unit law", "coassociativity", "counit law",
                 "comultiplication multiplicative", "counit multiplicative",
                 "comultiplication unital", "counit of unit", "antipode law"):
        rep.record(name, *rows[name])
    rep.flags["commutative"] = H.is_commutative()
    rep.flags["cocommutative"] = H.is_cocommutative()
    rep.flags["involutive"] = H.is_involutive()
    H._report = rep
    return rep


def dual_hopf(H: HopfAlgebra) -> HopfAlgebra:
    """The dual Hopf algebra in the dual basis.

    Multiplication and comultiplication trade places (with the evident
    transposes), unit and counit swap, and the antipode transposes.
    """
    F = H.field
    n = H.dim
    mult = {}
    for k in range(n):
        for (i, j), c in H.comult[k].items():
            mult.setdefault((i, j), {})[k] = c
    comult = {k: {} for k in range(n)}
    for (i, j), cell in H.mult.items():
        for k, c in cell.items():
            comult[k][(i, j)] = c
    return HopfAlgebra(
        field=F,
        labels=[lab + "*" for lab in H.labels],
        mult=mult,
        unit=dict(H.counit),
        comult=comult,
        counit=dict(H.unit),
        antipode=mat_transpose(H.antipode),
        name=f"{H.name}*" if H.name else "",
    )


def variant(H: HopfAlgebra, which: str) -> HopfAlgebra:
    """The opposite ("op") or co-opposite ("cop") Hopf algebra; the antipode
    is replaced by its inverse."""
    F = H.field
    s_inv = mat_inverse(F, H.antipode, H.dim)
    if s_inv is None:
        raise AntipodeNotInvertible("antipode matrix is singular")
    if which == "op":
        mult = {(j, i): cell for (i, j), cell in H.mult.items()}
        comult = H.comult
    elif which == "cop":
        mult = H.mult
        comult = {i: t2_swap(t) for i, t in H.comult.items()}
    else:
        raise ValueError("variant must be 'op' or 'cop'")
    return HopfAlgebra(
        field=F,
        labels=list(H.labels),
        mult=mult,
        unit=dict(H.unit),
        comult=comult,
        counit=dict(H.counit),
        antipode=s_inv,
        name=f"{H.name}^{which}" if H.name else "",
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
    convolution inverse of j, hence j^-1, which is unique.  In every other
    case the antipode row of ``verify_hopf`` decides.  A multiple c 1 of 1
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
                    cell = Q.mult.get((x2, y2))
                    if (x1, y1) in sig_unit and cell:
                        c = sig_unit[(x1, y1)]
                        coef = mul(cx, cy)
                        key, coef = ((x1, y1), coef) if c is None else (None, mul(coef, c))
                        v_axpy(F, groups.setdefault(key, {}), coef, cell)
            terms = [(key, list(w.items())) for key, w in groups.items() if w]
            if terms:
                T[x][y] = terms

    mult = {}
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
                        mult[(a * mQ + r, b * mQ + s)] = out

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

    D = HopfAlgebra(F, labels, mult, flat_outer(F, A.unit, Q.unit, mQ), comult,
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
    mult = {}
    for (i1, j1), cell1 in A.mult.items():
        for (i2, j2), cell2 in B.mult.items():
            out = flat_outer(F, cell1, cell2, nb)
            if out:
                mult[(idx(i1, i2), idx(j1, j2))] = out
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
    return HopfAlgebra(F, labels, mult, unit, comult, counit, antipode, name=name)


class LinMap:
    """A linear map between the underlying spaces of two Hopf algebras."""

    def __init__(self, source: HopfAlgebra, target: HopfAlgebra, mat):
        self.source = source
        self.target = target
        self.mat = {j: dict(col) for j, col in mat.items() if col}

    def apply(self, v):
        return mat_apply(self.target.field, self.mat, v)

    def __call__(self, v):
        return self.apply(v)

    def compose(self, other: "LinMap") -> "LinMap":
        return LinMap(
            other.source, self.target, mat_compose(self.target.field, self.mat, other.mat)
        )

    def transpose(self, dual_source: HopfAlgebra, dual_target: HopfAlgebra) -> "LinMap":
        """The dual map between the given dual Hopf algebras."""
        return LinMap(dual_target, dual_source, mat_transpose(self.mat))

    def rank(self):
        return mat_rank(self.target.field, self.mat, self.target.dim)

    def key(self):
        return mat_key(self.mat)

    def __eq__(self, other):
        return isinstance(other, LinMap) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())


def identity_map(H: HopfAlgebra) -> LinMap:
    return LinMap(H, H, mat_identity(H.dim, H.field))


def is_hopf_morphism(f: LinMap):
    """True plus empty witness when f respects mult, unit, comult, counit on
    all basis tuples; otherwise (False, witness).  Antipode compatibility is
    automatic for bialgebra maps between Hopf algebras but is verified anyway.

    The image f(e_i) of each basis vector is formed once.  Multiplicativity
    f(e_i e_j) = f(e_i) f(e_j) is checked on the pairs (i, j) whose source
    cell mult[(i, j)] is non-empty (from ``cells``) or whose images f(e_i)
    and f(e_j) are both non-zero, in (i, j) order.  On every other pair
    both sides are 0: e_i e_j = 0, and f(e_i) or f(e_j) is 0.  So the check
    holds on all n^2 basis pairs exactly when it holds on the visited ones,
    and the witness is the first failing pair in (i, j) order.

    It is not checked on A x basis for a certified generating set A of the
    source, as ``verify_hopf`` does: that argument (N = {a : f(a y) =
    f(a) f(y)} is closed under products) needs the source to be
    associative, and callers such as ``build_theta`` do not certify the
    associativity of their source.
    """
    A, B, F = f.source, f.target, f.target.field
    img = [f.apply(A.basis_vec(i)) for i in range(A.dim)]
    by_left = A.cells()[0]
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


def convolution(f: LinMap, g: LinMap) -> LinMap:
    """(f * g)(c) = f(c_1) g(c_2), using the source coalgebra and target algebra."""
    A, B = f.source, f.target
    F = B.field
    mat = {}
    for i in range(A.dim):
        out = {}
        for (j, k), c in A.comult[i].items():
            v_axpy(F, out, c, B.product(f.apply(A.basis_vec(j)), g.apply(A.basis_vec(k))))
        if out:
            mat[i] = out
    return LinMap(A, B, mat)


def convolution_unit(source: HopfAlgebra, target: HopfAlgebra) -> LinMap:
    return LinMap(source, target, {i: v_scale(target.field, c, target.unit)
                                   for i, c in sorted(source.counit.items())})


def convolution_inverse(f: LinMap) -> LinMap:
    """Solve f * g = unit.counit = g * f exactly; NotInvertible if impossible.

    The unknown g[k][b] enters f(e_j) g(e_k) through the cells mult[(l, b)]
    of B and g(e_j) f(e_k) through the cells mult[(b, l)], for l in the
    support of the image of f; only the non-empty ones (from ``cells``) are
    visited, as the empty ones add nothing to any row.  ``solve_rows``
    returns the canonical solution of the system, so the order in which the
    rows and their entries are formed does not change the result.
    """
    A, B = f.source, f.target
    F = B.field
    nA, nB = A.dim, B.dim
    flat = lambda col, coord: col * nB + coord
    by_left, by_right = B.cells()

    rows = []
    for i in range(nA):
        lhs_rows: dict = {}
        rhs_rows: dict = {}
        for (j, k), c in A.comult[i].items():
            fj = f.apply(A.basis_vec(j))
            # f(e_j) * g(e_k): coefficient of unknown g[k][b] in output coord a
            for l, cl in fj.items():
                for b, cell in by_left[l].items():
                    coef = F.mul(c, cl)
                    for a, ca in cell.items():
                        key = flat(k, b)
                        d = lhs_rows.setdefault(a, {})
                        d[key] = F.add(d.get(key, F.zero()), F.mul(coef, ca))
            fk = f.apply(A.basis_vec(k))
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
    mult = {(r, s): cell for r, x in enumerate(basis) for s, y in enumerate(basis)
            if (cell := coords(H.product(x, y)))}
    unit = coords(H.unit)
    comult = {r: t2_coords(H.coproduct(x)) for r, x in enumerate(basis)}
    counit = {r: c for r, x in enumerate(basis) if (c := H.counit_of(x)) != F.zero()}
    antipode = {r: col for r, x in enumerate(basis) if (col := coords(H.antipode_of(x)))}
    return HopfAlgebra(F, labels, mult, unit, comult, counit, antipode, name=name)


def quotient_by_hopf_ideal(H: HopfAlgebra, ideal: Echelon, name=""):
    """The quotient Hopf algebra H/I of the Hopf algebra H by a Hopf ideal
    I, on the canonical complement-of-pivots basis, with the projection pi;
    certified by ``is_hopf_morphism(pi)`` alone.

    Proof.  The check gives that pi respects product, unit, coproduct,
    counit and antipode, and pi is onto, so each Hopf axiom of H/I is the
    pi-image of the same axiom in H: (pi(x) pi(y)) pi(z) = pi((x y) z)
    = pi(x (y z)) = pi(x) (pi(y) pi(z)), S(pi(x)_1) pi(x)_2
    = pi(S(x_1) x_2) = eps(x) 1, and so on.  If I is not a Hopf ideal, the
    induced structure disagrees with pi somewhere and the check fails.
    """
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
    pi = LinMap(H, Q, pi_mat)
    ok, wit = is_hopf_morphism(pi)
    if not ok:
        raise VerificationFailure(f"ideal projection is not a Hopf morphism: {wit}")
    return Q, pi


def coinvariants(A: HopfAlgebra, f_mat, f_unit) -> Echelon:
    """{v in A : v_1 (x) f(v_2) = v (x) f(1)} for a linear map f out of A,
    given by its matrix (column -> image) and f(1)."""
    F = A.field
    coef: dict = {}
    for i in range(A.dim):
        for (a, b), c in A.comult[i].items():
            for l, fl in f_mat.get(b, {}).items():
                d = coef.setdefault((a, l), {})
                d[i] = F.add(d.get(i, F.zero()), F.mul(c, fl))
        for l, ul in f_unit.items():
            d = coef.setdefault((i, l), {})
            d[i] = F.sub(d.get(i, F.zero()), ul)
    rows = [({i: c for i, c in r.items() if c != F.zero()}, F.zero())
            for r in coef.values()]
    _, kernel = solve_rows(F, rows, A.dim)
    return kernel


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


def ideal_closure(H: HopfAlgebra, ech: Echelon, multipliers=None) -> Echelon:
    """``span_closure`` of the rows of ech under left and right
    multiplication by ``multipliers`` (default: the basis of H, which gives
    the two-sided ideal of H the span generates)."""
    F = H.field
    if multipliers is None:
        multipliers = [unit_vec(d, F) for d in range(H.dim)]
    return span_closure(ech, ech.basis(), lambda row: [
        p for e in multipliers for p in (H.product(e, row), H.product(row, e))])


def _primitive_rows(H: HopfAlgebra):
    """The coefficients of Delta(z) - z(x)1 - 1(x)z, one row over the
    coordinates of z per Ten2 key."""
    F = H.field
    coef: dict = {}
    for i in range(H.dim):
        for (j, k), c in H.comult[i].items():
            coef.setdefault((j, k), {})[i] = c
        for k, u in H.unit.items():
            d = coef.setdefault((i, k), {})
            d[i] = F.sub(d.get(i, F.zero()), u)
            d2 = coef.setdefault((k, i), {})
            d2[i] = F.sub(d2.get(i, F.zero()), u)
    return {key: {i: c for i, c in r.items() if c != F.zero()}
            for key, r in coef.items()}


def primitives(H: HopfAlgebra) -> Echelon:
    """The subspace of v with Delta(v) = v(x)1 + 1(x)v."""
    F = H.field
    rows = [(r, F.zero()) for r in _primitive_rows(H).values()]
    _, kernel = solve_rows(F, rows, H.dim)
    return kernel


def grouplikes(H: HopfAlgebra, budget: int = 10**7):
    """All g != 0 with Delta(g) = g(x)g and counit(g) = 1, sorted.

    The search runs over the coordinate values V = F over a finite field
    and V = {0, 1, -1} over the rationals, and is refused up front when its
    branch bound n^2 |V| (below) exceeds the budget.  It finds every
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
    if n * n * size > budget:
        raise FieldTooLargeForEnumeration(f"{n}^2 * {size} branches exceed budget {budget}")
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


class _SourceStep:
    __slots__ = ("kind", "vec", "basis_index")

    def __init__(self, kind, vec=None, basis_index=None):
        self.kind = kind
        self.vec = vec
        self.basis_index = basis_index


def _primitive_defect(A: HopfAlgebra, i):
    """Delta(e_i) - e_i (x) 1 - 1 (x) e_i."""
    F = A.field
    e = A.basis_vec(i)
    d = dict(A.comult[i])
    v_axpy(F, d, F.neg(F.one()), t2_outer(F, e, A.unit))
    v_axpy(F, d, F.neg(F.one()), t2_outer(F, A.unit, e))
    return d


def _source_chain(A: HopfAlgebra, src_grouplikes, src_primitives):
    """Assignment chain (grouplikes, primitive basis, filtration extensions)
    whose subalgebra closure reaches all of A, or None past the supported
    filtration.  A is associative, so the subalgebra generated by 1 and the
    chain is their span closed under right multiplication by them."""
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
            if ech.contains(A.basis_vec(i)):
                continue
            if t2_coordinates(F, ech, _primitive_defect(A, i)) is not None:
                found = i
                break
        if found is None:
            return None
        adjoin(_SourceStep("extension", basis_index=found), A.basis_vec(found))
    return chain


def hopf_algebra_maps(
    A: HopfAlgebra,
    C: HopfAlgebra,
    src_grouplikes=None,
    tgt_grouplikes=None,
    budget: int = 500_000,
):
    """All Hopf algebra maps A -> C, by constraint-pruned generator images.

    Candidate images: grouplikes of A map into grouplikes of C, primitives
    into the primitive subspace, and filtration extensions into the affine
    solution set of their coproduct constraint.  Complete whenever the chain
    construction covers A (grouplike/primitively generated algebras and
    divided-power towers); raises BudgetExceeded otherwise or when the
    candidate count explodes.
    """
    if A.field != C.field:
        raise FieldMismatch("source and target over different fields")
    F = A.field
    glA = src_grouplikes if src_grouplikes is not None else grouplikes(A)
    glC = tgt_grouplikes if tgt_grouplikes is not None else grouplikes(C)
    prA = primitives(A)
    prC = primitives(C)
    prim_rows_C = _primitive_rows(C)
    chain = _source_chain(A, glA, prA)
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

    def emit(pech: ParallelEchelon):
        mat = {}
        for i in range(A.dim):
            img = pech.image_of(A.basis_vec(i))
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
        """Close the recorded pairs under products; False on contradiction."""
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
            e = A.basis_vec(step.basis_index)
            # push both legs through the partial map
            img: dict = {}
            bad = False
            for (j, k), c in _primitive_defect(A, step.basis_index).items():
                xj = pech.image_of(unit_vec(j, F))
                xk = pech.image_of(unit_vec(k, F))
                if xj is None or xk is None:
                    bad = True
                    break
                v_axpy(F, img, c, t2_outer(F, xj, xk))
            if bad:
                return
            # solve Delta(z) - z(x)1 - 1(x)z = img, counit(z) = counit(e)
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
