import itertools
import random

import pytest

from hanoikernel import f2, words
from hanoikernel.errors import NotInStabilizerError, ShapeError

STAB_VECTORS = {
    "acab": (1, 0, 0, 0, 1, 1, 1, 0, 0),
    "abac": (1, 0, 0, 1, 0, 0, 0, 1, 1),
    "bcba": (1, 0, 1, 0, 1, 0, 0, 1, 0),
    "babc": (0, 1, 0, 0, 1, 0, 1, 0, 1),
}


def elements(space):
    out = set()
    for combo in itertools.product([0, 1], repeat=space.dim()):
        v = 0
        for bit, row in zip(combo, space.rows):
            if bit:
                v ^= row
        out.add(v)
    return out


def random_space(rng, n, max_rows=4):
    vectors = [
        [rng.randint(0, 1) for _ in range(n)] for _ in range(rng.randint(0, max_rows))
    ]
    return f2.span(vectors, n)


def test_stab1_vectors_match_known_rows():
    for word, expected in STAB_VECTORS.items():
        assert f2.stab1_vector(word) == expected


def test_stab1_vector_of_empty_word():
    assert f2.stab1_vector("") == (0,) * 9


def test_stab1_vector_rejects_level_moving_word():
    with pytest.raises(NotInStabilizerError):
        f2.stab1_vector("a")


def test_stab1_vector_is_homomorphism_on_stabilizer_words():
    rng = random.Random(31)
    for _ in range(60):
        u = "".join(rng.choice(words.LEVEL1_STABILIZER_WORDS) for _ in range(rng.randint(0, 4)))
        v = "".join(rng.choice(words.LEVEL1_STABILIZER_WORDS) for _ in range(rng.randint(0, 4)))
        lhs = f2.stab1_vector(u + v)
        rhs = tuple(
            (x + y) % 2 for x, y in zip(f2.stab1_vector(u), f2.stab1_vector(v))
        )
        assert lhs == rhs


def test_spanned_space_dimensions():
    u = f2.level1_stabilizer_space()
    assert u.dim() == 4
    for vec in STAB_VECTORS.values():
        assert u.contains(vec)


def test_intersection_with_first_subtree_space_is_zero():
    u = f2.level1_stabilizer_space()
    w = f2.first_subtree_space()
    assert w.dim() == 3
    assert f2.intersect(u, w).dim() == 0


def test_intersection_with_even_letter_space():
    u = f2.level1_stabilizer_space()
    z = f2.even_letter_sum_space()
    assert z.dim() == 6
    meet = f2.intersect(u, z)
    assert meet.dim() == 2
    alpha, beta, delta, gamma = (STAB_VECTORS[w] for w in words.LEVEL1_STABILIZER_WORDS)
    ab = tuple(x ^ y for x, y in zip(alpha, beta))
    dg = tuple(x ^ y for x, y in zip(delta, gamma))
    assert meet == f2.span([ab, dg], 9)


def test_membership_criterion_matches_parity_rule():
    # a product of the four stabilizer words lands in the derived subgroup
    # iff the first two and the last two appear with matching parities
    z = f2.even_letter_sum_space()
    rng = random.Random(32)
    for _ in range(120):
        counts = [rng.randint(0, 3) for _ in range(4)]
        word = "".join(
            w * c for w, c in zip(words.LEVEL1_STABILIZER_WORDS, counts)
        )
        vector = f2.stab1_vector(word)
        rule = counts[0] % 2 == counts[1] % 2 and counts[2] % 2 == counts[3] % 2
        assert z.contains(vector) == rule


def test_zero_space_and_contains_validation():
    zero = f2.span([], 9)
    assert zero.dim() == 0
    assert zero.contains((0,) * 9)
    assert not zero.contains(STAB_VECTORS["acab"])
    with pytest.raises(ShapeError):
        zero.contains((0,) * 8)


def test_span_rejects_non_binary_entries():
    with pytest.raises(ShapeError):
        f2.span([[0, 2]], 2)


def test_dimension_formula_on_random_spaces():
    rng = random.Random(33)
    for _ in range(200):
        n = rng.randint(1, 10)
        a, b = random_space(rng, n), random_space(rng, n)
        assert (
            f2.sum_spaces(a, b).dim() + f2.intersect(a, b).dim()
            == a.dim() + b.dim()
        )


def test_intersection_matches_enumeration():
    rng = random.Random(34)
    for _ in range(120):
        n = rng.randint(1, 6)
        a, b = random_space(rng, n), random_space(rng, n)
        assert elements(f2.intersect(a, b)) == elements(a) & elements(b)


def test_subspace_equality_is_representation_equality():
    rng = random.Random(35)
    for _ in range(60):
        n = rng.randint(1, 8)
        a = random_space(rng, n)
        shuffled = a.basis()
        rng.shuffle(shuffled)
        mixed = []
        for i, v in enumerate(shuffled):
            if i and rng.random() < 0.5:
                v = tuple(x ^ y for x, y in zip(v, shuffled[0]))
            mixed.append(v)
        assert f2.span(mixed, n) == a
