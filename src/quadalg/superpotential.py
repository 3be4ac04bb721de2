"""Twisted superpotentials as word vectors: one-letter symmetrization and
derivation quotients.

A superpotential is a vector of length-d words, held like every word
vector as a sparse {word index: value} map; its degree d is passed along
with it.  Such a w is a twisted superpotential for a degree-one map s when
rotating the first slot to the end after applying s to it reproduces w up to
the sign (-1)^(d-1) (tensors.is_twisted_superpotential).  Contracting such a
w with k dual letters on the left yields the relation space of its
derivation quotient.

Both operations here read only the word vector they are given, of ints
or Fractions, and compute in integers: symmetrize reads w over the lcm of
its denominators and returns its integer sum over the same scale as
Fractions, and derivation_quotient hands its contractions to
Subspace.from_spanning, which scales each row to integers.  The ones of a
certified algebra are computed once and kept on its certificate
(regular.RegularityCertificate: superpotential, symmetrized, quotient and
presentation), which is what the commands read; the certificate hands
over its integer w.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Mapping

from .linalg import LinAlgError, Matrix, Subspace
from .quadratic import QuadraticAlgebra
from .tensors import (add_into, apply_slot_columns, index_to_word, tau,
                      word_to_index)


def symmetrize(w: Mapping[int, Fraction], d: int,
               sigma: Matrix) -> dict[int, Fraction]:
    """Raise a twisted superpotential of degree d by one letter appended as
    a new last generator, producing an untwisted one of degree d + 1.

    The new letter is fixed by the extended twist.  The output is the
    alternating sum over slot positions of the new letter, with the twist
    applied to everything the letter moved past.  When w is twisted-cyclic
    for sigma the output is cyclic for the identity; nothing is tested
    here, and RegularityCertificate.symmetrized tests that once for the
    certificate's w, which its superpotential property already vouched for.

    The sum runs in integers: w, of ints or Fractions, is read over the
    lcm of its denominators and the twist by its integer columns, and the
    result is that integer vector over both, as Fractions.
    """
    n = sigma.cols
    m = n + 1
    # the twist extended by 1 on the new letter, over sigma's denominator
    ext = sigma.block_sum(Matrix.identity(1))
    den = ext.den
    scale = lcm(*[c.denominator for c in w.values()])
    # the new letter followed by w, over m letters, times scale
    base = {word_to_index((n,) + index_to_word(idx, n, d), m):
            c.numerator * (scale // c.denominator) for idx, c in w.items()}
    acc: dict[int, int] = {}
    for i in range(d + 1):
        slots = [None] + [ext.columns] * i + [None] * (d - i)
        # term i comes out times den^i: every term is brought to den^d
        weight = (-1) ** i * den ** (d - i)
        for idx, c in tau(apply_slot_columns(slots, base, m), d + 1, i,
                          m).items():
            add_into(acc, idx, weight * c)
    scale *= den ** d
    return {idx: Fraction(c, scale) for idx, c in acc.items()}


def derivation_quotient(w: Mapping[int, Fraction], order: int,
                        names) -> QuadraticAlgebra:
    """Quadratic algebra whose relations are the order-fold left contractions
    of w, a vector of words of length order + 2; requires order >= 0."""
    names = tuple(names)
    n = len(names)
    if order < 0 or (w and max(w) >= n ** (order + 2)):
        raise LinAlgError("contraction order must be nonnegative and leave "
                          "degree-two relations")
    grouped: dict[int, dict[int, Fraction]] = {}
    for idx, c in w.items():
        head, tail = divmod(idx, n * n)
        grouped.setdefault(head, {})[tail] = c
    return QuadraticAlgebra(names, Subspace.from_spanning(grouped.values(), n * n))
