import itertools
import random
from fractions import Fraction

import pytest

from schemedouble.errors import NoSolution
from schemedouble.fields import QQ, make_field
from schemedouble.groupschemes import ga_frobenius_subgroup, ga_kernel, quotient_by_normal
from schemedouble.linalg import (
    Echelon,
    ParallelEchelon,
    annihilator,
    mat_identity,
    mat_transpose,
    solve_rows,
    span,
    subspace_intersection,
    subspace_sum,
    unit_vec,
    v_axpy,
)

F3 = make_field("prime", p=3)
F2 = make_field("prime", p=2)


def test_solve_identity_system():
    rows = [(row, {0: 1, 2: 2}.get(i, 0))
            for i, row in sorted(mat_transpose(mat_identity(3, F3)).items())]
    part, kern = solve_rows(F3, rows, 3)
    assert part == {0: 1, 2: 2}
    assert kern.dim == 0


def test_solve_zero_system_full_kernel():
    part, kern = solve_rows(F3, [], 3)
    assert part == {}
    assert kern.dim == 3


def test_solve_inconsistent_raises():
    # 0 * x = 1
    with pytest.raises(NoSolution):
        solve_rows(QQ, [({}, QQ.one())], 1)


def test_solver_is_deterministic():
    A = {0: {0: 1, 1: 2}, 1: {0: 2, 1: 1}, 2: {0: 1, 1: 1}}
    rows = [(row, 1) for _, row in sorted(mat_transpose(A).items())]
    out1 = solve_rows(F3, rows, 3)
    out2 = solve_rows(F3, rows, 3)
    assert out1[0] == out2[0]
    assert out1[1].key() == out2[1].key()


def test_frobenius_tower_cleaving_solves_section_system():
    """The closed-form cleaving of the height-four kernel modulo the height-one
    kernel at p=2 satisfies the section and colinearity constraints."""
    G = ga_kernel(4, F2)
    H = ga_frobenius_subgroup(G, 1)
    q = quotient_by_normal(G, H)
    kg = G.group_algebra
    Q = q.hopf
    gamma = {r: unit_vec(2 * r, F2) for r in range(Q.dim)}
    # section: pi(gamma(x)) = x
    for r in range(Q.dim):
        img = {}
        for i, c in gamma[r].items():
            col = q.pi.mat.get(i, {})
            for k, v in col.items():
                img[k] = F2.add(img.get(k, F2.zero()), F2.mul(c, v))
        assert {k: v for k, v in img.items() if v} == unit_vec(r, F2)
    # colinearity: gamma(x_1) (x) x_2 = gamma(x)_1 (x) pi(gamma(x)_2)
    from schemedouble.hopf import t2_outer
    for r in range(Q.dim):
        lhs = {}
        for (u, v), c in Q.comult[r].items():
            v_axpy(F2, lhs, c, t2_outer(F2, gamma[u], unit_vec(v, F2)))
        rhs = {}
        for (x, z), c in kg.coproduct(gamma[r]).items():
            pz = q.pi.apply(unit_vec(z, F2))
            if pz:
                v_axpy(F2, rhs, c, t2_outer(F2, unit_vec(x, F2), pz))
        assert lhs == rhs


def test_subspace_lattice_laws():
    U = span(F3, 4, [{0: 1, 1: 1}, {2: 1}])
    V = span(F3, 4, [{1: 1}, {3: 1}])
    assert subspace_intersection(U, U).key() == U.key()
    S = subspace_sum(U, V)
    for row in U.basis():
        assert S.contains(row)
    I = subspace_intersection(U, V)
    assert S.dim + I.dim == U.dim + V.dim


def test_dimension_formula_over_random_spans():
    vec_pool = [{0: 1}, {1: 1}, {0: 1, 1: 2}, {2: 1, 0: 1}, {3: 1, 1: 1}]
    for i in range(len(vec_pool)):
        for j in range(len(vec_pool)):
            U = span(F3, 4, vec_pool[: i + 1])
            V = span(F3, 4, vec_pool[j:])
            S = subspace_sum(U, V)
            I = subspace_intersection(U, V)
            assert S.dim + I.dim == U.dim + V.dim


def test_delta_span_intersection_in_height_two_kernel():
    # span{d0, d2} meet span{d0, d1} = span{d0} inside k[Ga_2] at p=2
    G = ga_kernel(2, F2)
    U = span(F2, 4, [unit_vec(0, F2), unit_vec(2, F2)])
    V = span(F2, 4, [unit_vec(0, F2), unit_vec(1, F2)])
    I = subspace_intersection(U, V)
    assert I.dim == 1 and I.contains(unit_vec(0, F2))


def test_annihilator_involution():
    U = span(F3, 5, [{0: 1, 4: 2}, {1: 1}])
    assert annihilator(annihilator(U)).key() == U.key()


def test_contract_group_algebra_multiplication():
    # dual-basis product of the height-one kernel is binomial
    G = ga_kernel(1, F3)
    kg = G.group_algebra
    out = kg.product(unit_vec(1, F3), unit_vec(1, F3))
    assert out == {2: 2}  # binom(2,1) = 2
    out = kg.product(unit_vec(2, F3), unit_vec(1, F3))
    assert out == {}  # m + n beyond the truncation


def test_contract_with_unit_is_identity():
    G = ga_kernel(2, F3)
    kg = G.group_algebra
    unit = kg.unit
    for i in range(G.order):
        assert kg.product(unit, unit_vec(i, F3)) == unit_vec(i, F3)
        assert kg.product(unit_vec(i, F3), unit) == unit_vec(i, F3)


def test_contract_matches_dense_oracle():
    """The structure-constant product against the dense triple sum."""
    G = ga_kernel(2, F3)  # dim 9, well under the dense cap
    n = G.order
    dense = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i, row in enumerate(G.group_algebra.cells):
        for j, cell in row.items():
            for k, c in cell.items():
                dense[i][j][k] = c
    x = {0: 1, 1: 2, 4: 1}
    y = {2: 2, 3: 1}
    out = G.group_algebra.product(x, y)
    expect = [0] * n
    for i in range(n):
        for j in range(n):
            ci = x.get(i, 0)
            cj = y.get(j, 0)
            if ci and cj:
                for k in range(n):
                    expect[k] = (expect[k] + ci * cj * dense[i][j][k]) % 3
    assert out == {k: v for k, v in enumerate(expect) if v}


def test_parallel_echelon_outcomes():
    pe = ParallelEchelon(F3, 3, 2)
    assert pe.insert({0: 1}, {0: 1}) == "new"
    assert pe.insert({1: 1}, {1: 2}) == "new"
    # e0 + e1 is dependent and its image agrees with the recorded map
    assert pe.insert({0: 1, 1: 1}, {0: 1, 1: 2}) == "consistent"
    # 2 e0 + e1 must go to {0: 2, 1: 2}
    assert pe.insert({0: 2, 1: 1}, {0: 1}) == "conflict"
    assert pe.dim == 2
    assert pe.image_of({0: 2, 1: 1}) == {0: 2, 1: 2}


def test_parallel_echelon_image_of_inside_and_outside_span():
    pe = ParallelEchelon(F3, 3, 2)
    assert pe.insert({0: 1, 1: 1}, {0: 1}) == "new"
    # a non-unit pivot is normalized and back-eliminated from the first row
    assert pe.insert({1: 2}, {1: 1}) == "new"
    assert pe.image_of({1: 1}) == {1: 2}
    assert pe.image_of({0: 1}) == {0: 1, 1: 1}
    assert pe.image_of({0: 1, 1: 2}) == {0: 1, 1: 2}
    assert pe.image_of({}) == {}
    assert pe.image_of({2: 1}) is None
    assert pe.image_of({0: 1, 2: 2}) is None


def _random_scalar(F, rng):
    if F.size is None:
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    return rng.choice(list(F.elements()))


def _random_vec(F, n, rng):
    vec = {}
    for i in rng.sample(range(n), rng.randint(0, n)):
        c = _random_scalar(F, rng)
        if c != F.zero():
            vec[i] = c
    return vec


@pytest.mark.parametrize("F", [F3, make_field("extension", p=2, k=2), QQ],
                         ids=["GF3", "GF4", "Q"])
def test_echelon_reduce_properties(F):
    """The residue has no pivot key, is its own residue, and spans the same
    space together with the rows as vec does."""
    rng = random.Random(7)
    n = 6
    for _ in range(60):
        ech = Echelon(F, n)
        for _ in range(rng.randint(0, 4)):
            ech.insert(_random_vec(F, n, rng))
        vec = _random_vec(F, n, rng)
        res = ech.reduce(vec)
        assert not set(res) & set(ech.rows)
        assert ech.reduce(res) == res
        with_vec, with_res = ech.copy(), ech.copy()
        with_vec.insert(vec)
        with_res.insert(res)
        assert with_vec.key() == with_res.key()


@pytest.mark.parametrize("F", [F3, QQ], ids=["GF3", "Q"])
def test_reduce_and_insert_drop_explicit_zeros(F):
    """A vector carrying explicit zero entries reduces to a residue without
    them, so insert never takes a zero pivot (F.inv(0) would raise)."""
    zero, one = F.zero(), F.one()
    ech = Echelon(F, 4)
    ech.insert({1: one, 3: one})
    vec = {0: zero, 1: one, 2: zero, 3: F.from_int(2)}
    res = ech.reduce(vec)
    assert res == {3: one} and zero not in res.values()
    assert ech.reduce({0: zero, 1: zero}) == {}
    assert not ech.insert({0: zero, 2: zero})
    assert ech.insert(vec)
    assert ech.pivots() == [1, 3]
    assert all(zero not in row.values() for row in ech.rows.values())
