"""Sparse exact linear algebra over a field.

Vectors are dicts ``index -> nonzero scalar``; matrices are dicts
``column -> vector`` (the image of the column basis vector); rank-3 tensors
are dicts ``(i, j) -> vector``.  No explicit zeros are ever stored, and all
pivot choices are canonical (leftmost pivot, unit pivot entries), so every
result is deterministic and directly comparable.
"""

from __future__ import annotations

import itertools

from .errors import DimensionMismatch, FieldTooLargeForEnumeration, NoSolution


def v_sub(F, a, b):
    out = dict(a)
    sub = F.sub
    zero = F.zero()
    for k, v in b.items():
        s = sub(out.get(k, zero), v)
        if s == zero:
            out.pop(k, None)
        else:
            out[k] = s
    return out


def v_scale(F, c, a):
    if c == F.zero():
        return {}
    mul = F.mul
    return {k: mul(c, v) for k, v in a.items()}


def v_axpy(F, acc, c, a):
    """acc += c * a, in place; acc is mutated and returned."""
    if c == F.zero():
        return acc
    return F.axpy(acc, c, a)


def v_neg(F, a):
    neg = F.neg
    return {k: neg(v) for k, v in a.items()}


def unit_vec(i, F):
    return {i: F.one()}


def mat_identity(n, F):
    one = F.one()
    return {i: {i: one} for i in range(n)}


def mat_apply(F, M, vec):
    """M applied to vec, with M a dict column -> image vector."""
    out = {}
    axpy = F.axpy
    for j, c in vec.items():
        col = M.get(j)
        if col:
            axpy(out, c, col)
    return out


def mat_compose(F, M2, M1):
    """The matrix of x -> M2(M1(x)); empty image columns are not stored."""
    out = {}
    for j, col in M1.items():
        img = mat_apply(F, M2, col)
        if img:
            out[j] = img
    return out


def mat_transpose(M):
    out = {}
    for j, col in M.items():
        for i, v in col.items():
            out.setdefault(i, {})[j] = v
    return out


def mat_key(M):
    """Canonical hashable form of a sparse matrix (or of rows by pivot):
    equal matrices give equal keys."""
    return tuple((j, tuple(sorted(M[j].items()))) for j in sorted(M))


class Echelon:
    """A reduced-row-echelon spanning set, kept fully reduced incrementally.

    Rows are stored by pivot column; pivots are the leftmost nonzero entries
    and are normalized to 1.  Because RREF is unique, the final state does not
    depend on insertion order, which makes subspaces canonically comparable.
    """

    def __init__(self, F, ambient: int):
        self.F = F
        self.ambient = ambient
        self.rows: dict = {}  # pivot column -> row vector

    def reduce(self, vec):
        """The residue of vec modulo the current row space (a fresh dict
        without zero entries).

        Every row is zero at the other pivots, so eliminating one pivot adds
        no pivot key and changes no other pivot entry: one ascending pass over
        the pivots present in vec is enough.  The same pass drops the zero
        entries vec may carry, so ``add_residue`` never takes a zero pivot.
        """
        F = self.F
        zero, neg, axpy = F.zero(), F.neg, F.axpy
        out = dict(vec)
        rows = self.rows
        for k in sorted(out):
            c = out.get(k)
            if c == zero:
                del out[k]
            elif c is not None:
                row = rows.get(k)
                if row is not None:
                    axpy(out, neg(c), row)
        return out

    def add_residue(self, res):
        """Add a nonzero residue of ``reduce`` as a new row: normalize its
        leftmost entry to 1 and eliminate that pivot from the other rows."""
        F = self.F
        piv = min(res)
        row = v_scale(F, F.inv(res[piv]), res)
        for r in self.rows.values():
            c = r.get(piv)
            if c is not None:
                v_axpy(F, r, F.neg(c), row)
        self.rows[piv] = row

    def insert(self, vec) -> bool:
        """Add vec to the span; True when the dimension grew."""
        res = self.reduce(vec)
        if not res:
            return False
        self.add_residue(res)
        return True

    @property
    def dim(self) -> int:
        return len(self.rows)

    def contains(self, vec) -> bool:
        return not self.reduce(vec)

    def pivots(self):
        return sorted(self.rows)

    def basis(self):
        return [self.rows[p] for p in self.pivots()]

    def coordinates(self, vec):
        """Coordinates of vec in the canonical basis; None when not in span.

        Rows are fully reduced, so the coordinate along the row with pivot p
        is just vec[p] once membership is known.
        """
        if not self.contains(vec):
            return None
        zero = self.F.zero()
        return [vec.get(p, zero) for p in self.pivots()]

    def copy(self):
        e = Echelon(self.F, self.ambient)
        e.rows = {p: dict(r) for p, r in self.rows.items()}
        return e

    def key(self):
        """Canonical hashable form; equal subspaces give equal keys."""
        return mat_key(self.rows)

    def __eq__(self, other):
        return (
            isinstance(other, Echelon)
            and self.ambient == other.ambient
            and self.key() == other.key()
        )

    def __hash__(self):
        return hash((self.ambient, self.key()))


def span(F, ambient, vecs) -> Echelon:
    e = Echelon(F, ambient)
    for v in vecs:
        e.insert(v)
    return e


def subspace_sum(U: Echelon, V: Echelon) -> Echelon:
    if U.ambient != V.ambient:
        raise DimensionMismatch("ambient dimensions differ")
    out = U.copy()
    for row in V.basis():
        out.insert(row)
    return out


def annihilator(U: Echelon) -> Echelon:
    """All x with sum_i row_i x_i = 0 for every basis row, i.e. the kernel of
    the basis matrix.  Realizes the orthogonal complement under the standard
    dual pairing."""
    rows = [(dict(r), U.F.zero()) for r in U.basis()]
    _, kernel = solve_rows(U.F, rows, U.ambient)
    return kernel


def subspace_intersection(U: Echelon, V: Echelon) -> Echelon:
    if U.ambient != V.ambient:
        raise DimensionMismatch("ambient dimensions differ")
    return annihilator(subspace_sum(annihilator(U), annihilator(V)))


def affine_insert(ech: Echelon, coeffs, rhs) -> bool:
    """Add the equation coeffs . x = rhs to ech, whose last column is the
    right-hand side; False, leaving ech unchanged, when it is inconsistent
    with the equations already there."""
    RHS = ech.ambient - 1
    aug = dict(coeffs)
    if rhs != ech.F.zero():
        aug[RHS] = rhs
    res = ech.reduce(aug)
    if res:
        if min(res) == RHS:
            return False
        ech.add_residue(res)
    return True


def solve_rows(F, rows, n):
    """Solve the affine system given as (coefficient vector, rhs) rows.

    Returns ``(particular, kernel)`` where the particular solution sets every
    free variable to zero (canonical) and the kernel is an Echelon with one
    canonical generator per free variable.  Raises NoSolution when the system
    is inconsistent.
    """
    RHS = n  # augmented column index
    ech = Echelon(F, n + 1)
    for coeffs, rhs in rows:
        if not affine_insert(ech, coeffs, rhs):
            raise NoSolution("inconsistent linear system")

    pivots = ech.pivots()
    particular = {}
    for p in pivots:
        c = ech.rows[p].get(RHS)
        if c is not None:
            particular[p] = c
    free = [j for j in range(n) if j not in ech.rows]
    kernel = Echelon(F, n)
    one = F.one()
    for f in free:
        vec = {f: one}
        for p in pivots:
            c = ech.rows[p].get(f)
            if c is not None:
                vec[p] = F.neg(c)
        kernel.insert(vec)
    return particular, kernel


def mat_rank(F, M, nrows=None) -> int:
    ech = Echelon(F, nrows if nrows is not None else 1 << 30)
    for j in sorted(M):
        ech.insert(M[j])
    return ech.dim


def mat_kernel(F, M, ncols: int) -> Echelon:
    """Kernel of the linear map given by columns of M (unknowns = columns)."""
    rows = [(r, F.zero()) for _, r in sorted(mat_transpose(M).items())]
    _, kernel = solve_rows(F, rows, ncols)
    return kernel


def echelon_points(ech: Echelon, F):
    """Every vector of the subspace, coefficients enumerated in field order."""
    basis = ech.basis()
    if not basis:
        yield {}
        return
    if F.size is None:
        raise FieldTooLargeForEnumeration("cannot enumerate a rational subspace")
    for coeffs in itertools.product(list(F.elements()), repeat=len(basis)):
        out: dict = {}
        for c, b in zip(coeffs, basis):
            v_axpy(F, out, c, b)
        yield out


class ParallelEchelon:
    """Echelon on source vectors with mirrored images, for consistency checks.

    Inserting a pair (a, c) records that a linear map sends a to c.  The pair
    is reduced as one vector of an Echelon whose columns are the source
    columns followed by the image columns.  A residue whose pivot is an image
    column is a dependent source vector with an inconsistent image: ``insert``
    reports it as a conflict and never adds it, so every pivot is a source
    column.
    """

    def __init__(self, F, ambient_src, ambient_dst):
        self.F = F
        self.n_src = ambient_src
        self.ech = Echelon(F, ambient_src + ambient_dst)

    def insert(self, a, c):
        """Returns "new", "consistent", or "conflict"."""
        n = self.n_src
        vec = dict(a)
        for j, v in c.items():
            vec[n + j] = v
        res = self.ech.reduce(vec)
        if not res:
            return "consistent"
        if min(res) >= n:
            return "conflict"
        self.ech.add_residue(res)
        return "new"

    @property
    def dim(self):
        return self.ech.dim

    def copy(self):
        out = ParallelEchelon(self.F, self.n_src, self.ech.ambient - self.n_src)
        out.ech = self.ech.copy()
        return out

    def image_of(self, vec):
        """Image of vec under the recorded partial map; None if outside span."""
        n = self.n_src
        res = self.ech.reduce(vec)
        if min(res, default=n) < n:
            return None
        return v_neg(self.F, {j - n: v for j, v in res.items()})
