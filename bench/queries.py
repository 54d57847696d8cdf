"""Membership queries for the sift-d5 workload, with truth computed here.

Everything in this module is stdlib tuple arithmetic on leaf permutations of
the ternary tree of a given depth, written independently of the package under
test. Leaves are indexed lexicographically from 0: the leaf (u1, ..., uN)
with digits in 0..2 has index u1*3^(N-1) + ... + uN. A permutation is a tuple
of images, and products act left to right (apply p, then q).

Queries come in two kinds:

- members: products of seeded random words in the generators a, b, c;
- near-members: a member times a single child-swap label, a transposition of
  two child subtrees at a seeded vertex of level 1..depth-1.

The truth of a query is the sibling sign invariant: at every internal vertex
whose children are internal, the sign of its label equals the product of its
children's label signs. The generators satisfy it and it is preserved by
products, so every member satisfies it; a single child-swap breaks it at the
swapped vertex's parent, so no near-member lies in the group.
"""

from __future__ import annotations

import random

Perm = tuple[int, ...]

# Letter -> (home child, root transposition), from the wreath recursion
# a = (a, 1, 1)(2 3), b = (1, b, 1)(1 3), c = (1, 1, c)(1 2), 0-based.
_RECURSION = {"a": (0, (1, 2)), "b": (1, (0, 2)), "c": (2, (0, 1))}

# Range of the random word lengths that make a member.
WORD_LENGTH = (16, 48)


def _digits(leaf: int, depth: int) -> list[int]:
    out = []
    for _ in range(depth):
        leaf, d = divmod(leaf, 3)
        out.append(d)
    return out[::-1]


def _index(digits: list[int]) -> int:
    leaf = 0
    for d in digits:
        leaf = leaf * 3 + d
    return leaf


def generator(letter: str, depth: int) -> Perm:
    """Leaf permutation of a generator: follow the home child while the
    digit equals it; the first other digit is swapped and the rest kept."""
    home, (x, y) = _RECURSION[letter]
    images = []
    for leaf in range(3**depth):
        digits = _digits(leaf, depth)
        for i, d in enumerate(digits):
            if d != home:
                digits[i] = y if d == x else x
                break
        images.append(_index(digits))
    return tuple(images)


def mult(p: Perm, q: Perm) -> Perm:
    """Apply p, then q."""
    return tuple(map(q.__getitem__, p))


def child_swap(depth: int, level: int, vertex: int, i: int, j: int) -> Perm:
    """Swap the subtrees of children i and j of one vertex of the given level."""
    size = 3 ** (depth - level - 1)  # leaves under one child
    start = vertex * 3 * size
    images = list(range(3**depth))
    for k in range(size):
        images[start + i * size + k] = start + j * size + k
        images[start + j * size + k] = start + i * size + k
    return tuple(images)


def _label_sign(p: Perm, depth: int, level: int, vertex: int) -> int:
    """Sign of the label at a vertex: the permutation its first leaf below
    each child induces on the children of the image vertex."""
    size = 3 ** (depth - level - 1)
    start = vertex * 3 * size
    label = [(p[start + c * size] // size) % 3 for c in range(3)]
    inversions = sum(label[a] > label[b] for a in range(3) for b in range(a + 1, 3))
    return -1 if inversions % 2 else 1


def satisfies_sign_invariant(p: Perm, depth: int) -> bool:
    """The sibling sign invariant at every vertex of levels 0..depth-2."""
    for level in range(depth - 1):
        for vertex in range(3**level):
            children = 1
            for c in range(3):
                children *= _label_sign(p, depth, level + 1, 3 * vertex + c)
            if _label_sign(p, depth, level, vertex) != children:
                return False
    return True


def make_queries(seed: int, count: int, depth: int) -> list[tuple[Perm, bool]]:
    """Seeded queries, half members and half near-members, shuffled.

    Returns (permutation, truth) pairs. Raises RuntimeError if a query's
    construction disagrees with its invariant-checked truth.
    """
    rng = random.Random(seed)
    gens = {letter: generator(letter, depth) for letter in "abc"}
    out = []
    for k in range(count):
        member = tuple(range(3**depth))
        for _ in range(rng.randint(*WORD_LENGTH)):
            member = mult(member, gens[rng.choice("abc")])
        query = member
        if k % 2:
            level = rng.randint(1, depth - 1)
            i, j = rng.sample(range(3), 2)
            swap = child_swap(depth, level, rng.randrange(3**level), i, j)
            query = mult(member, swap)
        truth = satisfies_sign_invariant(query, depth)
        if truth != (k % 2 == 0):
            raise RuntimeError(f"query {k} breaks the sign-invariant construction")
        out.append((query, truth))
    rng.shuffle(out)
    return out
