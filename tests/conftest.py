import pytest

from schemedouble.fields import QQ, make_field
from schemedouble.groupschemes import constant_group, ga_kernel, mu_p_kernel, restricted_enveloping


def s3_perms():
    return [(0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (2, 0, 1)]


def s3_cayley():
    perms = s3_perms()

    def comp(p, q):
        return tuple(p[q[i]] for i in range(3))

    idx = {p: i for i, p in enumerate(perms)}
    return [[idx[comp(p, q)] for q in perms] for p in perms]


S3_LABELS = ["e", "t12", "t13", "t23", "c123", "c132"]


def v4_cayley():
    return [[a ^ b for b in range(4)] for a in range(4)]


def make_s3(field):
    return constant_group(S3_LABELS, s3_cayley(), field, name="S3")


def make_z2(field):
    return constant_group(["e", "s"], [[0, 1], [1, 0]], field, name="Z2")


def make_z3(field):
    return constant_group(["e", "a", "a2"], [[0, 1, 2], [1, 2, 0], [2, 0, 1]],
                          field, name="Z3")


def make_v4(field):
    return constant_group(["e", "a", "b", "ab"], v4_cayley(), field, name="V4")


def make_borel(field):
    """u^[p] of the two dimensional non-abelian restricted Lie algebra:
    [x, y] = y, x^[p] = x, y^[p] = 0."""
    return restricted_enveloping(
        2, [[{}, {1: 1}], [{1: -1}, {}]], [{0: 1}, {}], field, name="G1")


@pytest.fixture(scope="session")
def F2():
    return make_field("prime", p=2)


@pytest.fixture(scope="session")
def F3():
    return make_field("prime", p=3)


@pytest.fixture(scope="session")
def F5():
    return make_field("prime", p=5)


@pytest.fixture(scope="session")
def F7():
    return make_field("prime", p=7)


@pytest.fixture(scope="session")
def QQ_field():
    return QQ


@pytest.fixture(scope="session")
def lattice_cache():
    """Session-wide store of enumerated lattices keyed by a group tag, so the
    acceptance criteria share the expensive enumerations."""
    from schemedouble.doubles import drinfeld_double
    from schemedouble.lattice import enumerate_triples

    cache = {}

    def get(tag, factory):
        if tag not in cache:
            G = factory()
            nodes, edges = enumerate_triples(G)
            cache[tag] = (G, nodes, edges, drinfeld_double(G))
        return cache[tag]

    return get
