"""Permutations of {1..m}, stored as bytes up to degree 256.

Composition follows action order: ``p * q`` means "apply p, then q", matching
the right action used for tree automorphisms throughout the package. Points
are 1-based at the API; the stored images are 0-based.

A Perm keeps its images once, in ``data``: up to degree BYTES_MAX (256) as
bytes of length the degree, above it as a tuple of ints. The type follows
the degree alone, so equal permutations store equal objects. Bytes hold no
references, so the collector never walks them. On bytes, p then q is
p.translate(q padded to 256 bytes), and the inverse is read off
bytes.maketrans; both are one C call. ``images`` gives the tuple of ints.

The constructor checks its images with C-level calls. Up to degree 256 they
are packed with bytearray(), and deleting them from bytes(range(n)) must leave
nothing: n images that cover all of 0..n-1 are a bijection. Above that they
are sorted and compared with range(n). Either way a non-integer image, a
duplicate or a point outside 0..n-1 raises ValueError, and an argument that is
not iterable raises TypeError.
"""

from __future__ import annotations

from operator import index, itemgetter
from typing import Iterable, Sequence

# the widest degree stored as bytes, and the width of a translate table
BYTES_MAX = 256
# the points 0..255: the identity's storage up to the degree, and the padding
# that makes a permutation's bytes a translate table
_IDENTITY_BYTES = bytes(range(BYTES_MAX))
# the argument types bytearray() reads as a sequence of images; an int or
# any other type goes through tuple() first, which refuses a non-iterable
_SEQUENCES = (list, tuple, bytes, bytearray)


class Perm:
    """An immutable permutation of {1, ..., degree}."""

    __slots__ = ("data",)

    # data[i] is the 0-based image of point i (module docstring)
    data: bytes | tuple[int, ...]

    def __init__(self, images: Iterable[int]):
        if type(images) not in _SEQUENCES:
            images = tuple(images)
        n = len(images)
        try:
            if n <= BYTES_MAX:
                # bytearray() raises TypeError on a non-integer, ValueError
                # outside 0..255, and reads a list faster than bytes() does
                data = bytes(bytearray(images))
                ok = not _IDENTITY_BYTES[:n].translate(None, data)
            else:
                data = tuple(images)
                ok = sorted(map(index, data)) == list(range(n))
        except (TypeError, ValueError):
            ok = False
        if not ok:
            raise ValueError(f"not a permutation of 0..{n - 1}: {tuple(images)!r}")
        object.__setattr__(self, "data", data)

    def __setattr__(self, name, value):
        raise AttributeError("Perm is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, degree: int) -> "Perm":
        return cls(range(degree))

    @classmethod
    def transposition(cls, degree: int, i: int, j: int) -> "Perm":
        return cls.from_cycles(degree, [(i, j)])

    @classmethod
    def from_cycles(cls, degree: int, cycles: Iterable[Sequence[int]]) -> "Perm":
        """Build a permutation from disjoint cycles of 1-based points."""
        images = list(range(degree))
        for cycle in cycles:
            for a, b in zip(cycle, cycle[1:]):
                images[a - 1] = b - 1
            if cycle:
                images[cycle[-1] - 1] = cycle[0] - 1
        return cls(images)

    # -- queries -----------------------------------------------------------

    @property
    def images(self) -> tuple[int, ...]:
        """The 0-based images as a tuple of ints; above degree 256 the stored
        tuple itself."""
        return tuple(self.data)

    @property
    def degree(self) -> int:
        return len(self.data)

    def apply(self, point: int) -> int:
        """Image of a 1-based point."""
        if not 1 <= point <= len(self.data):
            raise ValueError(f"point {point} outside 1..{len(self.data)}")
        return self.data[point - 1] + 1

    def is_identity(self) -> bool:
        data = self.data
        n = len(data)
        return data == (_IDENTITY_BYTES[:n] if n <= BYTES_MAX else tuple(range(n)))

    def one_based(self) -> tuple[int, ...]:
        return tuple(i + 1 for i in self.data)

    def sign(self) -> int:
        """+1 for even permutations, -1 for odd ones; a cycle of length m is
        m - 1 transpositions."""
        return -1 if sum(len(c) - 1 for c in self.cycles()) % 2 else 1

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles on 1-based points, each starting at its minimum."""
        images = self.data
        out = []
        seen = [False] * len(images)
        for i in range(len(images)):
            if seen[i] or images[i] == i:
                seen[i] = True
                continue
            cycle = [i]
            seen[i] = True
            j = images[i]
            while j != i:
                cycle.append(j)
                seen[j] = True
                j = images[j]
            out.append(tuple(p + 1 for p in cycle))
        return out

    def cycle_string(self) -> str:
        cycles = self.cycles()
        if not cycles:
            return "()"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cycles)

    # -- algebra -----------------------------------------------------------

    def __mul__(self, other: "Perm") -> "Perm":
        """Apply self, then other."""
        if not isinstance(other, Perm):
            return NotImplemented
        a, b = self.data, other.data
        n = len(a)
        if n != len(b):
            raise ValueError("degree mismatch")
        p = Perm.__new__(Perm)
        if n <= BYTES_MAX:
            # b padded with fixed points is the table that maps i to b[i]
            product = a.translate(b + _IDENTITY_BYTES[n:])
        else:
            product = itemgetter(*a)(b)
        object.__setattr__(p, "data", product)
        return p

    def inverse(self) -> "Perm":
        p = Perm.__new__(Perm)
        object.__setattr__(p, "data", _inverse_images(self.data))
        return p

    def __eq__(self, other) -> bool:
        return isinstance(other, Perm) and self.data == other.data

    def __hash__(self) -> int:
        return hash(self.data)

    def __repr__(self) -> str:
        return f"Perm{self.cycle_string()}"


def _inverse_images(a: bytes | tuple[int, ...]) -> bytes | tuple[int, ...]:
    """The inverse of stored images, in their own encoding: bytes, padded
    with fixed points or not, or a tuple."""
    if type(a) is bytes:
        n = len(a)
        # the table that maps a[i] to i; a padded with fixed points is a
        # permutation of all 256 byte values, so the table is too
        return bytes.maketrans(a + _IDENTITY_BYTES[n:], _IDENTITY_BYTES)[:n]
    # a loop beat sorted, map and itemgetter at degree 729
    out = [0] * len(a)
    for i, j in enumerate(a):
        out[j] = i
    return tuple(out)
