"""Word coordinates: word indices, slot maps, cyclic slot moves,
contractions and the twisted-cyclicity test on vectors indexed by words.

A word of length d over n letters is a tuple of d letter indices.  It is
identified with the flat coordinate of its big-endian base-n expansion, so
the coordinate order is lexicographic on the words of one length.  A
vector indexed by words has one form in this package: a sparse {word
index: value} map with no zero values (a Subspace row lists the same
entries as (index, value) pairs).  The values are ints or Fractions and
every function here takes either; the superpotential path hands in ints,
so that its sums stay in integers.  The twisted-cyclicity test does not
see scaling and brings its vector to a content-free integer row first.
The map does not record the length of its words; the functions here take
the length d and the letter count n from their callers.  A linear map of the degree-one space is a Matrix in
column convention: column j holds the coordinates of the image of letter
j.  There is one slotwise map, apply_slot_columns, which takes each slot's
map as Matrix.columns gives it, the nonzero integer entries of its columns
over the matrix's denominator; its callers account for that denominator,
once per slot filled, so that the maps stay in integers.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .linalg import LinAlgError, Matrix, Subspace, _to_int_row

Word = tuple[int, ...]


def word_to_index(word: Word, n: int) -> int:
    idx = 0
    for letter in word:
        idx = idx * n + letter
    return idx


def index_to_word(idx: int, n: int, degree: int) -> Word:
    out = [0] * degree
    for pos in range(degree - 1, -1, -1):
        idx, out[pos] = divmod(idx, n)
    return tuple(out)


def add_into(acc: dict, key, value) -> None:
    """Add value to acc[key], dropping the key when the sum is zero."""
    nv = acc.get(key, 0) + value
    if nv:
        acc[key] = nv
    else:
        acc.pop(key, None)


def apply_slot_columns(slots, vec: Mapping[int, Fraction],
                       n: int) -> dict[int, Fraction]:
    """Apply per-slot degree-one maps, each given by its columns, to a
    vector of words of length len(slots) over n letters.

    slots[s][j] lists the nonzero (letter, value) pairs of the image of
    letter j under the map in slot s, as Matrix.columns lists them; None
    in a slot means the identity.  The values may be ints or
    Fractions, and the result is in the same kind.
    """
    acc: dict[int, Fraction] = {}
    for idx, coeff in vec.items():
        partial = [(0, coeff)]
        for letter, image in zip(index_to_word(idx, n, len(slots)), slots):
            if image is None:
                partial = [(p * n + letter, c) for p, c in partial]
            else:
                partial = [(p * n + i, c * a) for p, c in partial
                           for i, a in image[letter]]
        for p, c in partial:
            add_into(acc, p, c)
    return acc


def tau(vec: Mapping[int, Fraction], d: int, k: int, n: int) -> dict[int, Fraction]:
    """Cycle the first slot of a vector of length-d words into position k.

    On words: (w_0, w_1, ..., w_{d-1}) -> (w_1, ..., w_k, w_0, w_{k+1}, ...).
    k = d-1 is the full one-step rotation; composing the k = d-1 map d times
    gives the identity.  The move permutes the word indices.
    """
    if not 0 <= k <= d - 1:
        raise LinAlgError("slot position out of range")
    head = n ** (d - 1)
    tail = n ** (d - 1 - k)
    out = {}
    for idx, c in vec.items():
        first, rest = divmod(idx, head)
        middle, last = divmod(rest, tail)
        out[(middle * n + first) * tail + last] = c
    return out


def is_twisted_superpotential(w: Mapping[int, Fraction], d: int,
                              sigma: Matrix) -> bool:
    """Whether w, a vector of length-d words, equals its twisted rotation
    up to the sign (-1)^(d-1): sigma applied to the first slot, which then
    moves to the end.  Zero entries of w are ignored.

    The test does not see scaling, so w is brought to a content-free
    integer row first; sigma acts by its integer columns, so the rotation
    comes out times sigma.den and is compared with w times it."""
    n = sigma.cols
    if sigma.rows != n:
        raise LinAlgError("slot map acts on the wrong space")
    w = _to_int_row(w)
    rotated = tau(apply_slot_columns([sigma.columns] + [None] * (d - 1), w, n),
                  d, d - 1, n)
    sign = (-1) ** (d - 1)
    den = sigma.den
    return {i: sign * c for i, c in rotated.items()} == {
        i: den * c for i, c in w.items()}


def contract_left(vec: Mapping[int, Fraction], letter: int, d: int,
                  n: int) -> dict[int, Fraction]:
    """Pair the functional dual to a letter against the first slot of a
    vector of length-d words."""
    head = n ** (d - 1)
    return {idx % head: c for idx, c in vec.items() if idx // head == letter}


def contract_right(vec: Mapping[int, Fraction], letter: int,
                   n: int) -> dict[int, Fraction]:
    """Pair the functional dual to a letter against the last slot."""
    return {idx // n: c for idx, c in vec.items() if idx % n == letter}


def preserves_subspace(phi: Matrix, space: Subspace) -> bool:
    """Whether phi (x) phi maps a subspace of the degree-two words into
    itself.

    Membership does not see scaling, so each integer basis row of the
    subspace is mapped through phi's integer columns by
    apply_slot_columns, and the images are tested in one forward pass.
    """
    n = phi.cols
    if space.ambient != n * n:
        raise LinAlgError("subspace ambient does not match the tensor degree")
    if phi.rows != n:
        raise LinAlgError("slot map acts on the wrong space")
    cols = phi.columns
    return space.contains_all(apply_slot_columns((cols, cols), dict(row), n)
                              for row in space.int_rows)
