"""Exact orders and membership for the truncations G_N of the Hanoi towers
group Gamma, from its regular branch structure; no stabilizer chain.

Write a tree automorphism as g = (s1, s2, s3)sigma: sections s_i and root
label sigma. Let sgn s be the sign of s on its own level 1, and map g to
(sgn s1, sgn s2, sgn s3)sigma in C_2 wr S_3. sgn and the root label are
homomorphisms, so the map is one too. It reads only levels 1 and 2, so the
images of a, b and c are the same at every depth N >= 2; they generate P,
the image of G_N. Gamma is self-similar (the states of a, b and c are a, b,
c or trivial), so the sections of an element of G_N lie in G_(N-1).

The certificate is exact in Gamma, read off word_states alone:
- each branching word has trivial root and states ([x, y], 1, 1) for a pair
  x, y of letters. Every letter of a word lands in one state, and free
  reduction cancels letters in pairs, so the word's letter counts have the
  parities of [x, y]'s, all even: it lies in Gamma';
- each self-replication word fixes level 1 and has first state x, for each
  letter x.
Gamma' is the normal closure of the three commutators. Conjugating
([x, y], 1, 1) by self-replication words conjugates [x, y] by any element of
Gamma, so (Gamma', 1, 1) <= Gamma'; conjugating by a, b and c, whose roots
generate S_3, moves it to every coordinate. So (Gamma')^3 <= Gamma', and in
every truncation (G'_(N-1))^3 <= G'_N.

Orders, by induction from G_1 = S_3 and G'_1 = A_3. Suppose ker sgn =
G'_(N-1) in G_(N-1); it has index 2, since the root of a is odd. Then the
kernel of the map on G_N lies in (ker sgn)^3 = (G'_(N-1))^3 and contains it,
so |G_N| = |P| |G'_(N-1)|^3. On G'_N the image is P' and the kernel is the
same, so |G'_N| = |P'| |G'_(N-1)|^3. P' is exactly the part of P with an
even root (checked), so G'_N is the kernel of sgn on G_N, and the induction
goes on.

Membership. The set of g with map(g) in P and sections in G_(N-1) holds
G_N and, the kernel of the map on it being (ker sgn)^3 = (G'_(N-1))^3, has
exactly |G_N| elements: it is G_N. At N = 2 every section lies in G_1 = S_3,
so G_2 is the preimage of P, and map(g) lies in P exactly when g's depth-2
pattern at the root lies in G_2. By induction, g lies in G_N exactly when it
is a tree automorphism whose depth-2 pattern at every vertex of level
<= N - 2 lies in G_2: G_N is a finitely constrained group (Grigorchuk-Sunic,
C. R. Acad. Sci. Paris 342 (2006); Sunic, Geom. Dedicata 124 (2007)).

The certificate is checked, and P, P' and G_2 are closed, on first use;
the same check certifies that letter parity is well defined on Gamma
(_structure has the proof).
"""

from __future__ import annotations

import functools
import itertools
from operator import itemgetter
from typing import Callable, Sequence

from . import log, words
from .automorphism import leaf_permutation
from .errors import DepthError, ShapeError
from .perm import Perm

# words of Gamma' with trivial root and states ([x, y], 1, 1), each as
# (word, xy) under the name verify's branching check prints
BRANCHING_WORDS = {
    "(acbc)^2": ("acbcacbc", "ab"),
    "(abcb)^2": ("abcbabcb", "ac"),
    "c(baca)^2c": ("cbacabacac", "bc"),
}
# words fixing level 1 with first state the letter
SELF_REPLICATION_WORDS = {"a": "abac", "b": "babc", "c": "bcac"}

_Images = tuple[int, ...]


def _closure(gens: set[_Images]) -> set[_Images]:
    """The group the generators make, by breadth-first products; x, then
    g, is itemgetter(*x)(g)."""
    elements = {tuple(range(len(next(iter(gens)))))}
    frontier = elements
    while frontier:
        frontier = {itemgetter(*x)(g) for x in frontier for g in gens} - elements
        elements |= frontier
    return elements


def perm_commutator(p: Perm, q: Perm) -> Perm:
    return p.inverse() * q.inverse() * p * q


def _derived(group: set[_Images], gens: set[_Images]) -> set[_Images]:
    """The commutators [x, s] of the group with its generators make a normal
    subgroup, since [x, s]^h = [xh, s][h, s]^-1; so they make the derived
    subgroup."""
    return _closure(
        {perm_commutator(Perm(x), Perm(s)).images for x in group for s in gens}
    )


def _even(group: set[_Images], root: Callable[[_Images], Perm]) -> set[_Images]:
    """The elements whose root permutation is even."""
    return {x for x in group if root(x).sign() > 0}


def _sign_image(word: str) -> _Images:
    """The word's image in C_2 wr S_3, on the six points 2i + e: level-1
    vertex i (0-based) and sign bit e. The root moves i and the section at
    i flips e when it is odd on its level 1."""
    states, root = words.word_states(word)
    flips = [words.word_states(s)[1].sign() < 0 for s in states]
    return tuple(2 * root.data[i] + (e ^ flips[i]) for i in range(3) for e in (0, 1))


def _sign_root(x: _Images) -> Perm:
    return Perm([x[2 * i] // 2 for i in range(3)])


@functools.cache
def _structure() -> tuple[frozenset[_Images], ...]:
    """G_1, G'_1, P, P' and G_2 as sets of image tuples, once the
    certificate is checked.

    The check also certifies that letter parity is well defined on Gamma,
    so that Gamma/Gamma' = F_2^3 (the premise of every GF(2) number the
    package reports). Let w be a reduced word with w = 1 in Gamma.
    - Every letter of w lands in exactly one first-level state, as itself,
      and free reduction cancels letters in pairs; so w's vector of letter
      parities is the sum of its states' vectors, and each state is 1 in
      Gamma.
    - For |w| >= 2, no state receives all of w's letters: two adjacent
      letters x != y land in different states. With root label s before x,
      that is, for each of the six labels s and each pair x != y: if
      words._STEP[s][x] = (j, s'), then words._STEP[s'][y][0] != j.
    - So each state is shorter than w, and by induction on length each
      state's vector is 0, and so is w's. A single letter is not 1, since
      its root is odd.
    So the parity map pi is well defined on Gamma and maps onto F_2^3.
    Gamma is generated by three involutions, so |Gamma/Gamma'| <= 8, and
    ker pi = Gamma'.
    """
    for s, row in enumerate(words._STEP):
        for x, y in itertools.permutations(words.ALPHABET, 2):
            coordinate, after = row[x]
            if words._STEP[after][y][0] == coordinate:
                raise AssertionError(f"{x + y!r} lands in one state from root label {s}")
    for word, (x, y) in BRANCHING_WORDS.values():
        if words.word_states(word) != ((words.commutator(x, y), "", ""), Perm.identity(3)):
            raise AssertionError(f"{word!r} is no branching word for [{x}, {y}]")
    for letter, word in SELF_REPLICATION_WORDS.items():
        states, root = words.word_states(word)
        if states[0] != letter or not root.is_identity():
            raise AssertionError(f"{word!r} does not replicate {letter!r}")
    roots = {words.ROOT_PERMS[x].images for x in words.ALPHABET}
    g1 = _closure(roots)
    g1_derived = _derived(g1, roots)
    signs = {_sign_image(x) for x in words.ALPHABET}
    p = _closure(signs)
    p_derived = _derived(p, signs)
    if g1_derived != _even(g1, Perm) or p_derived != _even(p, _sign_root):
        raise AssertionError("a derived subgroup is not the kernel of the root sign")
    g2 = _closure(
        {leaf_permutation(words.evaluate(x, 2), 2).images for x in words.ALPHABET}
    )
    if len(g2) != len(p) * len(g1_derived) ** 3:
        raise AssertionError(f"|G_2| = {len(g2)} breaks the branch recursion")
    log.info(
        __name__,
        "branch certificate checked: |P| = %d, |P'| = %d, |G_2| = %d",
        len(p), len(p_derived), len(g2),
    )
    return tuple(map(frozenset, (g1, g1_derived, p, p_derived, g2)))


def orders(depth: int) -> tuple[int, int]:
    """(|G_N|, |G'_N|) at depth N >= 1, by the recursion of the module
    docstring."""
    if depth < 1:
        raise DepthError("depth must be >= 1")
    g1, g1_derived, p, p_derived, _ = map(len, _structure())
    order, derived = g1, g1_derived
    for _ in range(depth - 1):
        order, derived = p * derived**3, p_derived * derived**3
    return order, derived


def contains(images: Sequence[int], depth: int) -> bool:
    """Whether the permutation of the 3^N lex-indexed leaves with these
    0-based images lies in G_N: it is a tree automorphism and its depth-2
    pattern at every vertex of level <= N - 2 lies in G_2."""
    if depth < 1:
        raise DepthError("depth must be >= 1")
    if len(images) != 3**depth:
        raise ShapeError(f"{len(images)} images at depth {depth}")
    g1, _, _, _, g2 = _structure()
    if depth == 1:
        return tuple(images) in g1
    # from the leaves up: level m's vertices, by index, go to `level`
    level = list(images)
    for m in range(depth, 0, -1):
        # a tree automorphism maps siblings to siblings
        parents = [x // 3 for x in level]
        if not parents[0::3] == parents[1::3] == parents[2::3]:
            return False
        # when every level passes that, the grandchildren of a level-(m - 2)
        # vertex go to those of its image, and their places there, x % 9,
        # are its depth-2 pattern
        if m >= 2:
            places = [x % 9 for x in level]
            if any(tuple(places[i : i + 9]) not in g2 for i in range(0, len(places), 9)):
                return False
        level = parents[::3]
    return True
