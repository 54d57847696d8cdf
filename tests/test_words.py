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


# -- the chunked split and splicing reduction of long words -------------------


def assert_states_match_brute(w):
    states, root = words.word_states(w)
    expected_states, images = _brute.word_states(w)
    assert states == expected_states, w[:40]
    assert tuple(root.apply(h) for h in (1, 2, 3)) == images, w[:40]


def random_word(rng, length):
    return "".join(rng.choice("abc") for _ in range(length))


def random_reduced_word(rng, length):
    out = []
    while len(out) < length:
        ch = rng.choice("abc")
        if not out or out[-1] != ch:
            out.append(ch)
    return "".join(out)


def test_relator_family_matches_tau_powers():
    family = words.relator_family(9)
    for name, base in words.RELATORS.items():
        for n in range(10):
            key = name if n == 0 else f"tau^{n}({name})"
            assert family[key] == words.tau_power(base, n), key


def test_word_states_of_relator_family_match_brute():
    family = words.relator_family(9)
    assert max(map(len, family.values())) > 400_000
    chunked = 0
    for w in family.values():
        assert_states_match_brute(w)
        if len(w) > words._CHUNKED_MIN:
            chunked += words._chunked_states(w) is not None
    # all but the shortest few long ones are split by chunks
    assert chunked >= 24


def test_word_states_of_unreduced_words_match_brute():
    rng = random.Random(31)
    for length in (0, 1, 2, 63, 64, 65, 255, 256, 257, 600, 3000):
        for _ in range(3):
            assert_states_match_brute(random_word(rng, length))
    # runs of equal letters, and a tau-iterate with letters doubled
    assert_states_match_brute("aaabbbbccccc" * 40)
    w = words.tau_power(words.RELATORS["w2"], 5)
    assert_states_match_brute("".join(ch * rng.randint(1, 3) for ch in w))


def test_word_states_around_chunk_thresholds_match_brute():
    rng = random.Random(32)
    lengths = [63, 64, 65, 255, 256, 257, 511, 512, 513, 5000]
    lengths += [rng.randint(0, 5000) for _ in range(20)]
    for length in lengths:
        assert_states_match_brute(random_reduced_word(rng, length))
        # the same lengths cut from a tau-iterate, whose chunks repeat
        w = words.tau_power(words.RELATORS["w3"], 6)
        start = rng.randint(0, len(w) - length)
        assert_states_match_brute(w[start : start + length])


def test_word_states_with_deep_cancellation_match_brute():
    rng = random.Random(33)
    morphic = words.tau_power(words.RELATORS["w1"], 6)
    for length in (100, 257, 1000, 4000):
        for u in (random_reduced_word(rng, length), morphic[:length]):
            v = random_reduced_word(rng, rng.randint(1, 50))
            for w in (u + u[::-1], u + v + u[::-1], u + v + v[::-1] + u[::-1]):
                assert_states_match_brute(w)
    # u * reverse(u) is the identity, so every state cancels to nothing
    u = morphic[:3000]
    assert words._chunked_states(u + u[::-1]) == (("", "", ""), words._S3[0])


def test_word_states_of_repeated_blocks_match_brute():
    rng = random.Random(34)
    for block_length in (1, 5, 63, 64, 65, 128, 192, 200):
        block = random_word(rng, block_length)
        w = block * (6000 // block_length)
        assert_states_match_brute(w)
        assert_states_match_brute(w + w[::-1])
    # a 64-letter block repeats as a chunk, read from up to six root labels
    block = random_reduced_word(rng, 64)
    assert words._chunked_states(block * 60) is not None


def identity_chunks(rng, count):
    """Distinct 64-letter words u + reverse(u): each returns the root label
    to the identity, so every chunk is read from the same label."""
    out = set()
    while len(out) < count:
        u = random_reduced_word(rng, 32)
        out.add(u + u[::-1])
    return sorted(out)


def test_chunks_fall_back_to_the_letter_loop_after_many_misses():
    rng = random.Random(35)
    first, *rest = identity_chunks(rng, 9)
    # eight misses never fall back, even as the first eight chunks
    w = first + "".join(rest[:7]) + first * 3
    assert words._chunked_states(w) is not None
    assert_states_match_brute(w)
    # the ninth miss falls back when it is more than half the chunks read
    for repeats, falls_back in ((9, True), (10, False)):
        w = first * repeats + "".join(rest)
        assert (words._chunked_states(w) is None) is falls_back, repeats
        assert_states_match_brute(w)
    # random words miss from the start
    w = random_reduced_word(rng, 20_000)
    assert words._chunked_states(w) is None
    assert_states_match_brute(w)


def test_only_words_longer_than_four_chunks_are_chunked(monkeypatch):
    calls = []
    chunked_states = words._chunked_states
    monkeypatch.setattr(
        words, "_chunked_states", lambda w: calls.append(len(w)) or chunked_states(w)
    )
    w = words.tau_power(words.RELATORS["w4"], 4)
    for length in (words._CHUNKED_MIN, words._CHUNKED_MIN + 1):
        assert_states_match_brute(w[:length])
    assert calls == [words._CHUNKED_MIN + 1]


def test_splice_reduce_matches_stack_reference():
    rng = random.Random(36)
    samples = ["", "a", "aa", "aaa", "aaaa", "abccba", "abccbab", "abcabccbacba"]
    for _ in range(300):
        u = random_reduced_word(rng, rng.randint(0, 200))
        v = random_reduced_word(rng, rng.randint(0, 200))
        samples += [u + v, u + u[::-1] + v, u + v + v[::-1][: rng.randint(0, len(v))]]
        # nested palindromes with a few doubled letters
        samples.append(u + v + v[::-1] + u[::-1] + v)
    for w in samples:
        assert words._splice_reduce(w) == _stack_reduce(w), w


def test_splice_reduce_gives_dense_doubled_letters_to_free_reduce(monkeypatch):
    calls = []
    free_reduce = words.free_reduce
    monkeypatch.setattr(words, "free_reduce", lambda w: calls.append(w) or free_reduce(w))
    rng = random.Random(37)
    u = random_reduced_word(rng, words._SPLICE_SPAN - 1)
    # one doubled letter in _SPLICE_SPAN letters is spliced, one in fewer is not
    at_threshold = u + u[-1]
    above = u[1:] + u[-1]
    assert (len(at_threshold), len(above)) == (words._SPLICE_SPAN, words._SPLICE_SPAN - 1)
    for w, delegated in ((at_threshold, False), (above, True)):
        calls.clear()
        assert words._splice_reduce(w) == _stack_reduce(w)
        assert bool(calls) is delegated


def test_public_word_states_stays_uncached():
    assert not hasattr(words.word_states, "cache_info")
    words._evaluate_reduced.cache_clear()
    words._memo_word_states.cache_clear()
    word = words.tau_power(words.RELATORS["w1"], 3)
    assert words.check_relator(word, 3)
    assert words.check_relator(word, 4)
    info = words._memo_word_states.cache_info()
    assert info.hits > 0 and info.misses > 0
