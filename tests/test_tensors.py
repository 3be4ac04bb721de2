"""Word indexing, word vectors, degree-one maps, rotations, contractions."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (oracle_apply_slotwise, oracle_contract_left,
                     oracle_contract_right, oracle_slotwise, oracle_tau,
                     seeded, word_terms, word_vector)
from quadalg.linalg import LinAlgError, Matrix, Subspace
from quadalg.quadratic import QuadraticAlgebra, truncated_structure
from quadalg.tensors import (add_into, apply_slot_columns, contract_left,
                             contract_right, index_to_word,
                             is_twisted_superpotential, preserves_subspace,
                             tau, word_to_index)

F = Fraction


def _diagonal(*values):
    n = len(values)
    return Matrix.from_rows(
        [[values[i] if i == j else 0 for j in range(n)] for i in range(n)], n)


def _unit(word, n):
    return {word_to_index(word, n): F(1)}


def _image(maps, vec, n):
    """The slotwise image of vec under Matrix slots, None the identity:
    apply_slot_columns on their integer columns, divided by the
    denominator of each map once per slot it fills."""
    scale = 1
    for m in maps:
        if m is not None:
            scale *= m.den
    return {w: F(v) / scale for w, v in apply_slot_columns(
        [None if m is None else m.columns for m in maps], vec, n).items()}


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
    # repeated words add up and a zero sum leaves the map
    acc = {}
    for idx, c in ((1, F(1)), (1, F(2)), (2, F(-3))):
        add_into(acc, idx, c)
    assert acc == {1: F(3), 2: F(-3)}
    add_into(acc, 2, F(3))
    assert acc == {1: F(3)}
    with pytest.raises(LinAlgError):
        tau({0: F(1)}, 2, 2, 2)


def test_a_slot_map_that_is_not_square_is_refused():
    # a 3 x 2 map on 2 letters would send (0, 1) to indices that alias
    # other words or lie past the 4 words of length 2
    phi = Matrix.from_rows([[1, 0], [0, 1], [1, 1]], 2)
    with pytest.raises(LinAlgError, match="slot map acts on the wrong space"):
        is_twisted_superpotential({1: F(1)}, 2, phi)
    with pytest.raises(LinAlgError, match="slot map acts on the wrong space"):
        is_twisted_superpotential({1: F(1)}, 2, phi.transpose())
    relations = Subspace.from_spanning([{1: F(1), 2: F(-1)}], 4)
    with pytest.raises(LinAlgError, match="slot map acts on the wrong space"):
        preserves_subspace(phi, relations)
    dual = truncated_structure(QuadraticAlgebra(("x", "y"), relations), 2)
    with pytest.raises(LinAlgError, match="slot map acts on the wrong space"):
        dual.automorphism(phi)


def test_a_map_on_the_wrong_number_of_letters_is_refused():
    # relations in the 4 words of length 2 over 2 letters, a map of 3
    # letters, square or not
    relations = Subspace.from_spanning([{1: F(1), 2: F(-1)}], 4)
    for phi in (Matrix.identity(3), Matrix.from_rows([[1, 0, 0], [0, 1, 0]], 3)):
        with pytest.raises(LinAlgError,
                           match="subspace ambient does not match the tensor degree"):
            preserves_subspace(phi, relations)


def test_tensor_vector_roundtrip():
    v = word_vector(3, [((0, 2), F(5, 2)), ((1, 1), F(-1))])
    assert v == {2: F(5, 2), 4: F(-1)}
    assert word_terms(v, 3, 2) == {(0, 2): F(5, 2), (1, 1): F(-1)}


def test_tensor_product_concatenates():
    # the index of a concatenation is the first index shifted past the second
    assert word_to_index((0,) + (1, 0), 2) == (
        word_to_index((0,), 2) * 2 ** 2 + word_to_index((1, 0), 2)) == 2


def test_degree_one_map_columns():
    # column j holds the image of letter j
    p = Matrix.from_rows([(F(1), F(2)), (F(0), F(3))], 2)
    assert p.columns[1] == ((0, 2), (1, 3)) and p.den == 1
    assert _image([p], _unit((1,), 2), 2) == {0: F(2), 1: F(3)}
    # over a denominator, the integer columns act times it
    half = Matrix.from_rows([(F(1, 2), F(1)), (F(0), F(3, 2))], 2)
    assert half.columns[1] == ((0, 2), (1, 3)) and half.den == 2
    assert apply_slot_columns([half.columns], _unit((1,), 2), 2) == {
        0: F(2), 1: F(3)}
    assert _image([half], _unit((1,), 2), 2) == {0: F(1), 1: F(3, 2)}


def test_apply_slotwise_identity_slots():
    p = _diagonal(2, 5)
    t = _unit((0, 1), 2)
    assert _image([p, None], t, 2) == {1: F(2)}
    assert _image([p, p], t, 2) == {1: F(10)}


def test_tau_moves_first_slot():
    t = _unit((0, 1, 2), 3)
    assert tau(t, 3, 1, 3) == _unit((1, 0, 2), 3)
    assert tau(t, 3, 2, 3) == _unit((1, 2, 0), 3)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.data())
def test_tau_full_rotation_order(d, data):
    n = 2
    word = tuple(data.draw(st.integers(min_value=0, max_value=n - 1))
                 for _ in range(d))
    t = _unit(word, n)
    v = t
    for _ in range(d):
        v = tau(v, d, d - 1, n)
    assert v == t


def test_tau_positions_distinct():
    # tau_d^k drops the first letter behind position k; k = d-1 is the full
    # rotation and k = 1 the transposition of the leading pair
    t = _unit((0, 1, 2, 3), 4)
    assert tau(t, 4, 1, 4) == _unit((1, 0, 2, 3), 4)
    assert tau(t, 4, 2, 4) == _unit((1, 2, 0, 3), 4)
    assert tau(t, 4, 3, 4) == _unit((1, 2, 3, 0), 4)
    assert tau(tau(t, 4, 1, 4), 4, 1, 4) == t


def test_contractions_pair_correct_slot():
    t = word_vector(2, [((0, 1, 1), F(2)), ((1, 0, 1), F(3))])
    left = contract_left(t, 0, 3, 2)
    assert word_terms(left, 2, 2) == {(1, 1): F(2)}
    right = contract_right(t, 1, 2)
    assert word_terms(right, 2, 2) == {(0, 1): F(2), (1, 0): F(3)}


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_contraction_linear_in_vector(data):
    n = 2
    words = st.tuples(*([st.integers(min_value=0, max_value=n - 1)] * 3))
    coeffs = st.integers(min_value=-3, max_value=3)
    s = word_vector(n, [(data.draw(words), data.draw(coeffs)) for _ in range(3)])
    t = word_vector(n, [(data.draw(words), data.draw(coeffs)) for _ in range(3)])
    sum_st = dict(s)
    for idx, c in t.items():
        add_into(sum_st, idx, c)
    for letter in range(n):
        left = contract_left(s, letter, 3, n)
        for idx, c in contract_left(t, letter, 3, n).items():
            add_into(left, idx, c)
        assert contract_left(sum_st, letter, 3, n) == left
        right = contract_right(s, letter, n)
        for idx, c in contract_right(t, letter, n).items():
            add_into(right, idx, c)
        assert contract_right(sum_st, letter, n) == right


def test_slotwise_composition_is_functorial():
    p = Matrix.from_rows([(F(1), F(1)), (F(0), F(1))], 2)
    q = _diagonal(2, 3)
    t = word_vector(2, [((0, 1), F(1)), ((1, 0), F(4))])
    pq = p @ q
    once = _image([pq, pq], t, 2)
    twice = _image([p, p], _image([q, q], t, 2), 2)
    assert once == twice


def test_word_operations_match_word_tuple_oracle():
    rng = seeded(1616)
    for _ in range(200):
        n = rng.randint(1, 3)
        d = rng.randint(1, 4)
        terms = [(tuple(rng.randrange(n) for _ in range(d)),
                  F(rng.randint(-3, 3), rng.randint(1, 2)))
                 for _ in range(rng.randint(0, 5))]
        vec = word_vector(n, terms)
        words = word_terms(vec, n, d)
        maps = [None if rng.random() < 0.3 else Matrix.from_rows(
                    [[rng.randint(-1, 2) for _ in range(n)] for _ in range(n)], n)
                for _ in range(d)]
        assert (word_terms(_image(maps, vec, n), n, d)
                == oracle_apply_slotwise(maps, words))
        for k in range(d):
            assert word_terms(tau(vec, d, k, n), n, d) == oracle_tau(words, k)
        for letter in range(n):
            assert (word_terms(contract_left(vec, letter, d, n), n, d - 1)
                    == oracle_contract_left(words, letter))
            assert (word_terms(contract_right(vec, letter, n), n, d - 1)
                    == oracle_contract_right(words, letter))


def test_integer_slot_columns_scale_the_fraction_image():
    # apply_slot_columns on the integer columns of each map, over its
    # denominator, is the Fraction image times that denominator per mapped
    # slot, in ints
    rng = seeded(2626)
    for _ in range(100):
        n = rng.randint(1, 3)
        d = rng.randint(0, 3)
        vec = {rng.randrange(n ** d): rng.randint(-3, 3) or 1
               for _ in range(rng.randint(0, 4))}
        maps = [None if rng.random() < 0.3 else Matrix.from_rows(
                    [[F(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(n)]
                     for _ in range(n)], n)
                for _ in range(d)]
        scale = 1
        for m in maps:
            if m is not None:
                scale *= m.den
        image = apply_slot_columns([None if m is None else m.columns
                                    for m in maps], vec, n)
        assert all(type(v) is int for v in image.values())
        expect = oracle_slotwise(maps, {w: F(c) for w, c in vec.items()}, n)
        assert image == {w: v * scale for w, v in expect.items()}
