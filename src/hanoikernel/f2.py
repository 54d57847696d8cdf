"""Exact linear algebra over GF(2) on bit-packed rows.

Vectors are 0/1 tuples at the API and int bitmasks internally (bit i is
coordinate i+1). Subspaces keep their basis in reduced row-echelon form, so
equal subspaces compare equal representationally.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .errors import NotInStabilizerError, ShapeError
from .words import LEVEL1_STABILIZER_WORDS, parity_vector, word_states

Bits = tuple[int, ...]


def _to_int(vector: Sequence[int]) -> int:
    x = 0
    for i, bit in enumerate(vector):
        if bit not in (0, 1):
            raise ShapeError(f"entry {bit!r} is not a GF(2) scalar")
        x |= bit << i
    return x


def _to_bits(x: int, dimension: int) -> Bits:
    return tuple((x >> i) & 1 for i in range(dimension))


def _rref(rows: Iterable[int]) -> tuple[int, ...]:
    """Reduced row-echelon form of int-packed rows; zero rows dropped."""
    basis: list[int] = []
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
            basis.sort(reverse=True)
    # back-eliminate so every pivot appears in exactly one row
    for i, row in enumerate(basis):
        pivot = 1 << (row.bit_length() - 1)
        for j in range(len(basis)):
            if j != i and basis[j] & pivot:
                basis[j] ^= row
    return tuple(sorted(basis, reverse=True))


class F2Subspace(NamedTuple):
    """A subspace of GF(2)^n with canonical (RREF) basis."""

    dimension_ambient: int
    rows: tuple[int, ...]

    def dim(self) -> int:
        return len(self.rows)

    def basis(self) -> list[Bits]:
        return [_to_bits(r, self.dimension_ambient) for r in self.rows]

    def contains(self, vector: Sequence[int]) -> bool:
        if len(vector) != self.dimension_ambient:
            raise ShapeError("ambient dimension mismatch")
        x = _to_int(vector)
        for row in self.rows:
            x = min(x, x ^ row)
        return x == 0

    def __repr__(self) -> str:
        return f"<F2Subspace dim={self.dim()} of GF(2)^{self.dimension_ambient}>"


def span(vectors: Iterable[Sequence[int]], dimension_ambient: int) -> F2Subspace:
    """Subspace spanned by the given vectors."""
    rows = []
    for v in vectors:
        if len(v) != dimension_ambient:
            raise ShapeError("ambient dimension mismatch")
        rows.append(_to_int(v))
    return F2Subspace(dimension_ambient, _rref(rows))


def sum_spaces(a: F2Subspace, b: F2Subspace) -> F2Subspace:
    if a.dimension_ambient != b.dimension_ambient:
        raise ShapeError("ambient dimension mismatch")
    return F2Subspace(a.dimension_ambient, _rref(a.rows + b.rows))


def intersect(a: F2Subspace, b: F2Subspace) -> F2Subspace:
    """Intersection via Zassenhaus elimination on a stacked block system.

    Rows (x | x) for x in A and (y | 0) for y in B span {(x + y | x)};
    with the left block in the high bits, the RREF rows whose left block
    vanished are exactly the RREF of A-intersect-B.
    """
    if a.dimension_ambient != b.dimension_ambient:
        raise ShapeError("ambient dimension mismatch")
    n = a.dimension_ambient
    stacked = [(r << n) | r for r in a.rows] + [r << n for r in b.rows]
    return F2Subspace(n, tuple(row for row in _rref(stacked) if row >> n == 0))


def stab1_vector(word: str) -> Bits:
    """Image of a first-level-stabilizing word in GF(2)^9.

    Coordinates 1-3 are the (a, b, c) letter parities of the state at
    vertex 1, coordinates 4-6 at vertex 2, and 7-9 at vertex 3.
    """
    states, root = word_states(word)
    if not root.is_identity():
        raise NotInStabilizerError(
            f"word {word!r} permutes the first level ({root.cycle_string()})"
        )
    out: list[int] = []
    for state in states:
        out.extend(parity_vector(state))
    return tuple(out)


def level1_stabilizer_space() -> F2Subspace:
    """Span of the four level-1 stabilizer generator vectors."""
    return span([stab1_vector(w) for w in LEVEL1_STABILIZER_WORDS], 9)


def first_subtree_space() -> F2Subspace:
    """Vectors supported on the first subtree's three coordinates."""
    return span([_to_bits(1 << i, 9) for i in range(3)], 9)


def even_letter_sum_space() -> F2Subspace:
    """Vectors whose per-letter coordinate sums across the three subtrees
    vanish; a word's vector lies here iff the word has even letter counts."""
    vectors = []
    for letter in range(3):
        for block in range(2):
            v = [0] * 9
            v[block * 3 + letter] = 1
            v[(block + 1) * 3 + letter] = 1
            vectors.append(v)
    return span(vectors, 9)
