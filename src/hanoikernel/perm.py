"""Permutations of {1..m} stored as image tuples.

Composition follows action order: ``p * q`` means "apply p, then q", matching
the right action used for tree automorphisms throughout the package. Points
are 1-based at the API; the internal image tuple is 0-based.

The constructor checks its images with C-level calls. Up to degree 256 they
are packed with bytearray(), and deleting them from bytes(range(n)) must leave
nothing: n images that cover all of 0..n-1 are a bijection. Above that they
are sorted and compared with range(n). Either way a non-integer image, a
duplicate or a point outside 0..n-1 raises ValueError.
"""

from __future__ import annotations

from operator import index, itemgetter
from typing import Iterable, Sequence

# the points 0..255, sliced to the degree by the bytes check
_IDENTITY_BYTES = bytes(range(256))


class Perm:
    """An immutable permutation of {1, ..., degree}."""

    __slots__ = ("images",)

    images: tuple[int, ...]

    def __init__(self, images: Sequence[int]):
        # 0-based images: images[i] is the image of point i.
        imgs = tuple(images)
        n = len(imgs)
        try:
            if n <= len(_IDENTITY_BYTES):
                # bytearray() raises TypeError on a non-integer, ValueError
                # outside 0..255, and reads a tuple faster than bytes() does
                ok = not _IDENTITY_BYTES[:n].translate(None, bytearray(imgs))
            else:
                ok = sorted(map(index, imgs)) == list(range(n))
        except (TypeError, ValueError):
            ok = False
        if not ok:
            raise ValueError(f"not a permutation of 0..{n - 1}: {imgs!r}")
        object.__setattr__(self, "images", imgs)

    def __setattr__(self, name, value):
        raise AttributeError("Perm is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, degree: int) -> "Perm":
        return cls(range(degree))

    @classmethod
    def from_one_based(cls, images: Sequence[int]) -> "Perm":
        return cls([i - 1 for i in images])

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
    def degree(self) -> int:
        return len(self.images)

    def apply(self, point: int) -> int:
        """Image of a 1-based point."""
        if not 1 <= point <= len(self.images):
            raise ValueError(f"point {point} outside 1..{len(self.images)}")
        return self.images[point - 1] + 1

    def is_identity(self) -> bool:
        return self.images == tuple(range(len(self.images)))

    def one_based(self) -> tuple[int, ...]:
        return tuple(i + 1 for i in self.images)

    def sign(self) -> int:
        """+1 for even permutations, -1 for odd ones."""
        sign = 1
        seen = [False] * len(self.images)
        for i in range(len(self.images)):
            if seen[i]:
                continue
            length = 0
            j = i
            while not seen[j]:
                seen[j] = True
                j = self.images[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        return sign

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles on 1-based points, each starting at its minimum."""
        out = []
        seen = [False] * len(self.images)
        for i in range(len(self.images)):
            if seen[i] or self.images[i] == i:
                seen[i] = True
                continue
            cycle = [i]
            seen[i] = True
            j = self.images[i]
            while j != i:
                cycle.append(j)
                seen[j] = True
                j = self.images[j]
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
        a, b = self.images, other.images
        if len(a) != len(b):
            raise ValueError("degree mismatch")
        p = Perm.__new__(Perm)
        # itemgetter returns a scalar for one index and fails on none; below
        # degree 2 the only permutation is the identity
        object.__setattr__(p, "images", itemgetter(*a)(b) if len(a) > 1 else a)
        return p

    def inverse(self) -> "Perm":
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        p = Perm.__new__(Perm)
        object.__setattr__(p, "images", tuple(inv))
        return p

    def __eq__(self, other) -> bool:
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Perm{self.cycle_string()}"
