"""Exact linear algebra core: unit and property tests."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, seed, settings, strategies as st

from helpers import dense_kernel_rows, dense_rows, dense_rref
from quadalg.linalg import (ConsistencyError, LinAlgError, Matrix,
                            ResourceLimitError, Subspace, int_kernel)
from quadalg.quadratic import QuadraticAlgebra, koszul_component

ZERO = Fraction(0)
ONE = Fraction(1)

small = st.fractions(min_value=-6, max_value=6, max_denominator=4)
# half of the entries zero, as in the Koszul components of skew rings
sparse = st.one_of(st.just(ZERO), small)


def mk_rows(data, cols):
    return Matrix.from_rows([tuple(map(Fraction, r)) for r in data], cols)


@st.composite
def matrices(draw, max_dim=5, elements=small):
    r = draw(st.integers(min_value=0, max_value=max_dim))
    c = draw(st.integers(min_value=1, max_value=max_dim))
    rows = [tuple(draw(elements) for _ in range(c)) for _ in range(r)]
    return Matrix.from_rows(rows, c)


def test_identity_and_zero():
    assert Matrix.identity(3) == mk_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3)
    assert Matrix.zero(2, 4) == mk_rows([[0] * 4] * 2, 4)
    assert Matrix.identity(2) != Matrix.zero(2, 2)


def test_matmul_shapes():
    a = mk_rows([[1, 2], [3, 4], [5, 6]], 2)
    b = mk_rows([[1, 0, 1], [0, 1, 1]], 3)
    p = a @ b
    assert p.rows == 3 and p.cols == 3
    assert p[2, 2] == Fraction(11)
    with pytest.raises(LinAlgError):
        b @ b


def test_mul_row_col_conventions():
    m = mk_rows([[1, 2], [3, 4]], 2)
    assert m.mul_row((Fraction(1), Fraction(1))) == (Fraction(4), Fraction(6))
    assert m.mul_col((Fraction(1), Fraction(1))) == (Fraction(3), Fraction(7))


def test_rref_known():
    res = Subspace.from_spanning(mk_rows([[2, 4, 6], [1, 2, 4]], 3).entries, 3)
    assert res.pivots == (0, 2)
    assert dense_rows(res) == (
        (ONE, Fraction(2), ZERO),
        (ZERO, ZERO, ONE))


def test_inverse_known():
    m = mk_rows([[0, 1], [-2, 0]], 2)
    inv = m.inverse()
    assert inv.entries == ((ZERO, Fraction(-1, 2)), (ONE, ZERO))
    with pytest.raises(LinAlgError):
        mk_rows([[1, 2], [2, 4]], 2).inverse()


def test_solve_underdetermined_and_inconsistent():
    m = mk_rows([[1, 1, 0]], 3)
    sol = m.solve((Fraction(5),))
    assert sol is not None
    assert sum(a * b for a, b in zip(m.entries[0], sol)) == Fraction(5)
    m2 = mk_rows([[1, 0], [1, 0]], 2)
    assert m2.solve((ONE, Fraction(2))) is None


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rref_idempotent_and_rank(m):
    res = Subspace.from_spanning(m.entries, m.cols)
    again = Subspace.from_spanning(dense_rows(res), m.cols)
    assert dense_rows(again) == dense_rows(res)
    assert again.pivots == res.pivots
    assert m.rank() == res.dim == len(res.pivots) <= min(m.rows, m.cols)


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_kernel_annihilates(m):
    # the right kernel of m is the annihilator of its row space
    ker = Subspace.from_spanning(m.entries, m.cols).annihilator()
    assert ker.dim == m.cols - m.rank()
    for row in ker.rows:
        assert all(v == 0 for v in m.mul_sparse_col(row))


@settings(max_examples=60, deadline=None)
@given(matrices(max_dim=4))
def test_solve_consistency(m):
    # any vector in the row-image must be solvable, and the solution exact
    coeffs = tuple(ONE for _ in range(m.cols))
    b = m.mul_col(coeffs)
    sol = m.solve(b)
    assert sol is not None
    assert m.mul_col(sol) == tuple(b)


@settings(max_examples=40, deadline=None)
@given(matrices(max_dim=4))
def test_inverse_roundtrip(m):
    if m.rows != m.cols or not m.is_invertible():
        return
    assert m @ m.inverse() == Matrix.identity(m.rows)
    assert m.inverse() @ m == Matrix.identity(m.rows)


@settings(max_examples=60, deadline=None)
@given(matrices(), matrices())
def test_subspace_sum_and_intersection_dims(a, b):
    if a.cols != b.cols:
        return
    u = Subspace.from_spanning(a.entries, a.cols)
    v = Subspace.from_spanning(b.entries, b.cols)
    s = Subspace.from_spanning(a.entries + b.entries, a.cols)
    # the intersection as the annihilator of the sum of the annihilators
    i = Subspace.from_spanning([dict(r) for r in u.annihilator().rows
                                + v.annihilator().rows],
                               a.cols).annihilator()
    # modular law on dimensions
    assert s.dim + i.dim == u.dim + v.dim
    for row in i.rows:
        assert u.contains(dict(row)) and v.contains(dict(row))
    for row in u.rows + v.rows:
        assert s.contains(dict(row))


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_annihilator_pairing(m):
    u = Subspace.from_spanning(m.entries, m.cols)
    ann = u.annihilator()
    assert u.dim + ann.dim == m.cols
    for r in dense_rows(u):
        for s in dense_rows(ann):
            assert sum(x * y for x, y in zip(r, s)) == 0


@settings(max_examples=40, deadline=None)
@given(matrices(max_dim=3), matrices(max_dim=3))
def test_kron_is_rref(a, b):
    u = Subspace.from_spanning(a.entries, a.cols)
    v = Subspace.from_spanning(b.entries, b.cols)
    k = u.kron(v)
    assert k.dim == u.dim * v.dim
    # the direct assembly must agree with re-running RREF from scratch
    rebuilt = Subspace.from_spanning([dict(r) for r in k.rows], k.ambient)
    assert rebuilt.rows == k.rows and rebuilt.pivots == k.pivots


@seed(20131)
@settings(max_examples=80, deadline=None)
@given(matrices(elements=sparse), matrices(max_dim=3, elements=sparse))
def test_sparse_subspace_matches_dense_oracle(a, b):
    def agrees(space, rows, ambient):
        pivots, basis = dense_rref(rows, ambient)
        return space.pivots == pivots and dense_rows(space) == basis

    u = Subspace.from_spanning(a.entries, a.cols)
    v = Subspace.from_spanning(b.entries, b.cols)
    assert agrees(u, a.entries, a.cols)
    assert agrees(u.annihilator(), dense_kernel_rows(a.entries, a.cols), a.cols)
    if a.cols == b.cols:
        both = Subspace.from_int_rows(
            [dict(r) for r in u.int_rows + v.int_rows], a.cols)
        assert agrees(both, a.entries + b.entries, a.cols)
    products = [tuple(x * y for x in r for y in s)
                for r in a.entries for s in b.entries]
    assert agrees(u.kron(v), products, a.cols * b.cols)


@st.composite
def int_systems(draw, max_dim=6):
    # integer rows, half of the entries zero
    c = draw(st.integers(min_value=1, max_value=max_dim))
    entry = st.one_of(st.just(0), st.integers(min_value=-7, max_value=7))
    rows = draw(st.lists(st.lists(entry, min_size=c, max_size=c), max_size=max_dim))
    return rows, c


@seed(20132)
@settings(max_examples=80, deadline=None)
@given(int_systems())
def test_integer_kernel_matches_dense_oracle(system):
    rows, cols = system
    # rows given with their zero entries, which must be ignored
    kernel = int_kernel([dict(enumerate(r)) for r in rows], cols)
    assert all(type(v) is int and v for x in kernel for v in x.values())
    assert all(sum(r[c] * v for c, v in x.items()) == 0 for x in kernel for r in rows)
    space = Subspace.from_int_rows(kernel, cols)
    # one elimination gives the canonical basis: eliminating again changes
    # nothing
    assert [tuple(sorted(x.items())) for x in kernel] == list(space.int_rows)
    assert space == Subspace.from_spanning(dense_kernel_rows(rows, cols), cols)
    # integer rows of a subspace: content-free, positive pivot, same span
    u = Subspace.from_spanning(rows, cols)
    for p, r in zip(u.pivots, u.int_rows):
        assert r[0][0] == p and r[0][1] > 0
        assert gcd(*(v for _, v in r)) == 1
    assert Subspace.from_int_rows([dict(r) for r in u.int_rows], cols) == u
    assert u.annihilator() == space


def test_reduce_and_coordinates():
    u = Subspace.from_spanning(
        [(ONE, ZERO, ONE), (ZERO, ONE, ONE)], 3)
    inside = {0: Fraction(2), 1: Fraction(3), 2: Fraction(5)}
    assert u.contains(inside)
    assert u.coordinates(inside) == (Fraction(2), Fraction(3))
    outside = {0: ONE}
    assert not u.contains(outside)
    assert u.coordinates(outside) is None
    assert u.reduce_sparse(inside) == {}
    # the canonical residue is zero on the pivots, its zeros left out
    assert u.reduce_sparse(outside) == {2: -ONE}


def test_limits_guard():
    # ten letters, no relations: K_m vanishes for m >= 2, so only the fixed
    # cap of 10^6 coordinate words decides whether degree m may be asked for
    free = QuadraticAlgebra(tuple(f"a{i}" for i in range(10)),
                            Subspace.from_spanning([], 100))
    assert koszul_component(free, 6).dim == 0  # 10^6 words: at the cap
    with pytest.raises(ResourceLimitError) as err:
        koszul_component(free, 7)
    assert str(err.value) == "10^7 coordinate words exceed the cap of 1000000"


def test_error_hierarchy():
    assert issubclass(LinAlgError, ValueError)
    assert issubclass(ConsistencyError, RuntimeError)
