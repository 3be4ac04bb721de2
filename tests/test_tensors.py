"""Word indexing, sparse tensors, degree-one maps, rotations, contractions."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quadalg.linalg import LinAlgError, Matrix
from quadalg.tensors import (Tensor, apply_slotwise, contract_left,
                             contract_right, index_to_word, tau, word_to_index)

F = Fraction


def _diagonal(*values):
    n = len(values)
    return Matrix.from_rows(
        [[values[i] if i == j else 0 for j in range(n)] for i in range(n)], n)


def test_word_index_bijection():
    for n in (1, 2, 3):
        for d in (1, 2, 3):
            seen = set()
            for w in itertools.product(range(n), repeat=d):
                idx = word_to_index(w, n)
                assert index_to_word(idx, n, d) == w
                seen.add(idx)
            assert seen == set(range(n ** d))


def test_word_order_is_lex():
    # big-endian: (0,1) before (1,0)
    assert word_to_index((0, 1), 2) == 1
    assert word_to_index((1, 0), 2) == 2
    assert [index_to_word(i, 2, 2) for i in range(4)] == [
        (0, 0), (0, 1), (1, 0), (1, 1)]


def test_tensor_make_merges_and_validates():
    t = Tensor.make(2, 2, [((0, 1), F(1)), ((0, 1), F(2)), ((1, 0), F(-3))])
    assert t.terms == (((0, 1), F(3)), ((1, 0), F(-3)))
    with pytest.raises(LinAlgError):
        Tensor.make(2, 2, [((0, 5), F(1))])
    with pytest.raises(LinAlgError):
        Tensor.make(2, 2, [((0,), F(1))])


def test_tensor_vector_roundtrip():
    t = Tensor.make(2, 3, [((0, 2), F(5, 2)), ((1, 1), F(-1))])
    v = t.to_sparse_map()
    assert v == {2: F(5, 2), 4: F(-1)}
    assert Tensor.from_sparse(v.items(), 2, 3) == t


def test_tensor_product_concatenates():
    a = Tensor.basis((0,), 2)
    b = Tensor.basis((1, 0), 2)
    assert a.tensor(b) == Tensor.basis((0, 1, 0), 2)


def test_degree_one_map_columns():
    # column j holds the image of letter j
    p = Matrix.from_rows([(F(1), F(2)), (F(0), F(3))], 2)
    assert p.col(1) == (F(2), F(3))
    assert apply_slotwise([p], Tensor.basis((1,), 2)) == Tensor.make(
        1, 2, [((0,), F(2)), ((1,), F(3))])


def test_apply_slotwise_identity_slots():
    p = _diagonal(2, 5)
    t = Tensor.basis((0, 1), 2)
    out = apply_slotwise([p, None], t)
    assert out == Tensor.make(2, 2, [((0, 1), F(2))])
    out2 = apply_slotwise([p, p], t)
    assert out2 == Tensor.make(2, 2, [((0, 1), F(10))])


def test_tau_moves_first_slot():
    t = Tensor.basis((0, 1, 2), 3)
    assert tau(3, 1, t) == Tensor.basis((1, 0, 2), 3)
    assert tau(3, 2, t) == Tensor.basis((1, 2, 0), 3)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.data())
def test_tau_full_rotation_order(d, data):
    n = 2
    word = tuple(data.draw(st.integers(min_value=0, max_value=n - 1))
                 for _ in range(d))
    t = Tensor.basis(word, n)
    v = t
    for _ in range(d):
        v = tau(d, d - 1, v)
    assert v == t


def test_tau_positions_distinct():
    # tau_d^k drops the first letter behind position k; k = d-1 is the full
    # rotation and k = 1 the transposition of the leading pair
    t = Tensor.basis((0, 1, 2, 3), 4)
    assert tau(4, 1, t) == Tensor.basis((1, 0, 2, 3), 4)
    assert tau(4, 2, t) == Tensor.basis((1, 2, 0, 3), 4)
    assert tau(4, 3, t) == Tensor.basis((1, 2, 3, 0), 4)
    assert tau(4, 1, tau(4, 1, t)) == t


def test_contractions_pair_correct_slot():
    t = Tensor.make(3, 2, [((0, 1, 1), F(2)), ((1, 0, 1), F(3))])
    f = (F(1), F(0))  # the functional dual to letter 0
    left = contract_left(f, t)
    assert left == Tensor.make(2, 2, [((1, 1), F(2))])
    g = (F(0), F(1))
    right = contract_right(t, g)
    assert right == Tensor.make(2, 2, [((0, 1), F(2)), ((1, 0), F(3))])


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_contraction_linear_in_functional(data):
    n = 2
    words = st.tuples(*([st.integers(min_value=0, max_value=n - 1)] * 3))
    t = Tensor.make(3, n, [(data.draw(words), F(data.draw(
        st.integers(min_value=-3, max_value=3)))) for _ in range(3)])
    f = tuple(F(data.draw(st.integers(min_value=-2, max_value=2)))
              for _ in range(n))
    g = tuple(F(data.draw(st.integers(min_value=-2, max_value=2)))
              for _ in range(n))
    fg = tuple(a + b for a, b in zip(f, g))
    assert contract_left(fg, t) == contract_left(f, t).add(contract_left(g, t))
    assert contract_right(t, fg) == contract_right(t, f).add(
        contract_right(t, g))


def test_slotwise_composition_is_functorial():
    p = Matrix.from_rows([(F(1), F(1)), (F(0), F(1))], 2)
    q = _diagonal(2, 3)
    t = Tensor.make(2, 2, [((0, 1), F(1)), ((1, 0), F(4))])
    pq = p @ q
    once = apply_slotwise([pq, pq], t)
    twice = apply_slotwise([p, p], apply_slotwise([q, q], t))
    assert once == twice
