"""Word coordinates: word indices, slot maps, cyclic slot moves and
contractions on vectors indexed by words.

A word of length d over n letters is a tuple of d letter indices.  It is
identified with the flat coordinate of its big-endian base-n expansion, so
the coordinate order is lexicographic on the words of one length.  A
vector indexed by words has one form in this package: a sparse {word
index: Fraction} map with no zero values (a Subspace row lists the same
entries as (index, value) pairs).  The map does not record the length of
its words; the functions here take the length d and the letter count n
from their callers.  A linear map of the degree-one space is a plain
Matrix in column convention: column j holds the coordinates of the image
of letter j.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Mapping

from .linalg import LinAlgError, Matrix, Subspace

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


def apply_slotwise(maps, vec: Mapping[int, Fraction], n: int) -> dict[int, Fraction]:
    """Apply per-slot degree-one maps, each n x n, to a vector of words of
    length len(maps) over n letters; None in a slot means the identity."""
    # per map and letter, the nonzero (letter, value) pairs of the image,
    # read once for a map that fills several slots
    images: dict[int, list] = {}
    for m in maps:
        if m is not None and id(m) not in images:
            if m.cols != n or m.rows != n:
                raise LinAlgError("slot map acts on the wrong space")
            images[id(m)] = [[(i, a) for i, a in enumerate(m.col(j)) if a]
                             for j in range(n)]
    slots = [None if m is None else images[id(m)] for m in maps]
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


def preserves_subspace(phi: Matrix, space: Subspace, degree: int) -> bool:
    """Whether the slotwise extension of phi maps the subspace into itself."""
    n = phi.cols
    if space.ambient != n ** degree:
        raise LinAlgError("subspace ambient does not match the tensor degree")
    # membership does not see scaling: phi times the lcm of its
    # denominators, in integers, applied to the integer rows
    scale = lcm(*[v.denominator for row in phi.entries for v in row])
    scaled = Matrix(tuple(tuple(v.numerator * (scale // v.denominator)
                                for v in row) for row in phi.entries), n)
    maps = [scaled] * degree
    return all(space.contains(apply_slotwise(maps, dict(row), n))
               for row in space.int_rows)
