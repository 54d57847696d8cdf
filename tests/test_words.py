import random

import pytest

from hanoikernel import automorphism as am
from hanoikernel import permgroup, words
from hanoikernel.automorphism import leaf_permutation
from hanoikernel.perm import Perm

import _brute


def quotient_group(n):
    gens = [leaf_permutation(words.evaluate(x, n), n) for x in "abc"]
    return permgroup.PermGroup(3**n, gens)


def test_free_reduce():
    assert words.free_reduce("aabb") == ""
    assert words.free_reduce("abba") == ""
    assert words.free_reduce("abcba") == "abcba"
    assert words.free_reduce("") == ""


def _stack_reduce(word):
    out = []
    for ch in word:
        if out and out[-1] == ch:
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


def test_free_reduce_matches_stack_reference():
    assert words.free_reduce("abccba") == ""
    assert words.free_reduce("abccbab") == "b"
    rng = random.Random(21)
    for _ in range(300):
        w = "".join(rng.choice("abc") for _ in range(rng.randint(0, 40)))
        assert words.free_reduce(w) == _stack_reduce(w), w


def test_rejects_bad_letter():
    with pytest.raises(ValueError):
        words.free_reduce("abd")
    for check in (words.check_word, words.free_reduce, words.tau):
        with pytest.raises(ValueError, match="'d'"):
            check("abdx")


def test_inverse_word_is_reversal():
    assert words.inverse_word("abc") == "cba"


def test_word_states_examples():
    assert words.word_states("acab") == (("a", "cb", "a"), Perm.identity(3))
    assert words.word_states("bcba") == (("ca", "b", "b"), Perm.identity(3))
    states, root = words.word_states("a")
    assert states == ("a", "", "") and root == Perm.from_cycles(3, [(2, 3)])


def test_step_table_matches_perm_walk():
    assert len(set(words._S3)) == 6
    assert words._S3[0].is_identity()
    assert len(words._STEP) == 6
    for s, row in enumerate(words._STEP):
        root = words._S3[s]
        assert set(row) == set("abc")
        for letter, (coordinate, after) in row.items():
            assert coordinate + 1 == root.inverse().apply(words._HOME[letter])
            assert words._S3[after] == root * words.ROOT_PERMS[letter]


def test_evaluate_matches_independent_leaf_action():
    rng = random.Random(22)
    samples = []
    while len(samples) < 12:
        w = "".join(rng.choice("abc") for _ in range(rng.randint(2, 300)))
        if any(ch * 2 in w for ch in "abc"):
            samples.append(w)
    for base in words.RELATORS.values():
        samples.extend(words.tau_power(base, k) for k in range(4))
    for w in samples:
        expected = Perm(_brute.word_leaf_tuple(w, 4))
        assert leaf_permutation(words.evaluate(w, 4), 4) == expected, w


def test_word_states_reconstructs_evaluation():
    rng = random.Random(11)
    for _ in range(40):
        w = "".join(rng.choice("abc") for _ in range(rng.randint(0, 10)))
        states, root = words.word_states(w)
        rebuilt = am.Portrait(
            root, tuple(words.evaluate(s, 3) for s in states)
        )
        assert rebuilt == words.evaluate(w, 4)


def test_tau():
    assert words.tau("b") == "cbc"
    assert words.tau("") == ""
    assert words.tau("ab") == "acbc"


def test_tau_of_unreduced_word_matches_substitution():
    table = {"a": "a", "b": "cbc", "c": "bcb"}
    assert words.tau("bb") == ""
    rng = random.Random(23)
    for _ in range(200):
        w = "".join(rng.choice("abc") for _ in range(rng.randint(0, 30)))
        expected = _stack_reduce("".join(table[ch] for ch in w))
        assert words.tau(w) == expected, w


def test_commutator_and_conjugate():
    assert words.commutator("a", "b") == "abab"
    assert words.conjugate("b", "c") == "cbc"


def test_parity_vector():
    assert words.parity_vector("a") == (1, 0, 0)
    assert words.parity_vector("acab") == (0, 1, 1)
    assert words.parity_vector(words.RELATORS["w1"]) == (0, 0, 0)
    for w in words.RELATORS.values():
        assert words.parity_vector(w) == (0, 0, 0)


def test_parity_is_homomorphism():
    rng = random.Random(12)
    for _ in range(100):
        u = "".join(rng.choice("abc") for _ in range(rng.randint(0, 8)))
        v = "".join(rng.choice("abc") for _ in range(rng.randint(0, 8)))
        pu, pv, puv = (
            words.parity_vector(u),
            words.parity_vector(v),
            words.parity_vector(u + v),
        )
        assert puv == tuple((x + y) % 2 for x, y in zip(pu, pv))


def test_involution_relators():
    for w in ("aa", "bb", "cc"):
        assert words.check_relator(w, 5)


def test_ab_is_not_a_relator():
    assert not words.check_relator("ab", 1)
    assert not words.check_relator("ab", 4)


def test_relator_words_with_tau_iterates():
    for name, base in words.RELATORS.items():
        for n in range(3):
            assert words.check_relator(words.tau_power(base, n), 6), (name, n)


def test_w3_concrete_expansion_trivial_at_depth_6():
    w3 = words.RELATORS["w3"]
    assert words.evaluate(w3, 6).is_identity()


def test_evaluate_is_homomorphism():
    rng = random.Random(13)
    for _ in range(40):
        u = "".join(rng.choice("abc") for _ in range(rng.randint(0, 8)))
        v = "".join(rng.choice("abc") for _ in range(rng.randint(0, 8)))
        assert words.evaluate(u + v, 4) == am.compose(
            words.evaluate(u, 4), words.evaluate(v, 4)
        )


def test_evaluate_matches_independent_action():
    rng = random.Random(14)
    for _ in range(30):
        w = "".join(rng.choice("abc") for _ in range(rng.randint(0, 8)))
        g = words.evaluate(w, 4)
        v = tuple(rng.randint(1, 3) for _ in range(4))
        assert am.apply(g, v) == _brute.act_word(w, v)


def test_evaluate_tau_compatibility():
    # tau-images of relators stay relators at finite depth
    for base in words.RELATORS.values():
        assert words.check_relator(words.tau(base), 6)


def test_stab1_words_fix_level_one():
    for w in words.LEVEL1_STABILIZER_WORDS:
        _, root = words.word_states(w)
        assert root.is_identity()


def test_schreier_stab1_generators_fix_level_one():
    for w in words.schreier_stab1_generators():
        _, root = words.word_states(w)
        assert root.is_identity()


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_schreier_generators_match_known_set_semantically(depth):
    group = quotient_group(depth)
    degree = 3**depth

    def image(word_set):
        gens = [leaf_permutation(words.evaluate(w, depth), depth) for w in word_set]
        return permgroup.PermGroup(degree, gens)

    ours = image(words.schreier_stab1_generators())
    known = image(words.LEVEL1_STABILIZER_WORDS)
    assert ours.same_subgroup_as(known)
    # both give the index-6 level stabilizer
    assert group.order() == 6 * ours.order()


def test_schreier_index_one_case():
    # a transitive... trivial action: every point fixed, so the whole
    # generating set returns unchanged
    gens, transversal = words.schreier_generators(
        ["a", "b", "c"], lambda p, w: p, points=(1,), base_point=1
    )
    assert gens == ["a", "b", "c"]
    assert transversal == {1: ""}


def test_schreier_generators_reject_uncovered_points():
    with pytest.raises(ValueError):
        words.schreier_generators(
            ["a"], lambda p, w: p, points=(1, 2), base_point=1
        )


def test_relator_family_keys():
    family = words.relator_family(2)
    assert "a^2" in family and "w1" in family and "tau^2(w4)" in family
    assert len(family) == 3 + 4 * 3
