import random

import pytest

from hanoikernel import automorphism as am
from hanoikernel import permgroup, words
from hanoikernel.automorphism import leaf_permutation
from hanoikernel.errors import DepthError, ResourceLimitError, ShapeError
from hanoikernel.perm import Perm

import _brute
import _chain_oracles as oracles


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


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_state_word_matches_state_at(depth):
    """For every Reidemeister-Schreier word of every vertex stabilizer, the
    state word at the vertex is reduced and evaluates to the portrait's
    state there."""
    for level in range(1, depth + 1):
        for vertex in am.level_vertices(level):
            stabilizer_words, _ = words.schreier_generators(
                list(words.ALPHABET), words.vertex_image, vertex
            )
            for w in stabilizer_words:
                state = words.state_word(w, vertex)
                assert state == words.free_reduce(state)
                assert words.evaluate(state, depth - level) == am.state_at(
                    words.evaluate(w, depth), vertex
                )


def test_state_word_edge_cases():
    assert words.state_word("abba", ()) == ""
    assert words.state_word("a", (1, 1, 1)) == "a"
    assert words.state_word("a", (2,)) == ""
    with pytest.raises(ShapeError):
        words.state_word("a", (4,))
    with pytest.raises(ValueError):
        words.state_word("ad", (1,))


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


@pytest.mark.parametrize(
    "cycle, states",
    [
        # a root of order 3
        ((1, 2, 3), ("a", "", "")),
        # a state at a coordinate the root moves: a^2 = (a^2, b, b)
        ((2, 3), ("a", "b", "")),
    ],
)
def test_involution_relator_squares_the_letter(monkeypatch, cycle, states):
    """a^2 is checked on a's portrait: free reduction alone reads "aa" as
    the identity whatever a is."""
    real = words.word_states
    fake_a = (states, Perm.from_cycles(3, [cycle]))
    monkeypatch.setattr(words, "word_states", lambda w: fake_a if w == "a" else real(w))
    words._evaluate_reduced.cache_clear()
    try:
        assert not words.check_relator("aa", 3)
        assert words.check_relator("bb", 3) and words.check_relator("cc", 3)
    finally:
        words._evaluate_reduced.cache_clear()


def test_ab_is_not_a_relator():
    assert not words.check_relator("ab", 1)
    assert not words.check_relator("ab", 4)
    # depth 0 would take ab for a relator: every depth-0 portrait is trivial
    with pytest.raises(DepthError, match="depth must be >= 1"):
        words.check_relator("ab", 0)


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


def test_parity_kernel_words_have_zero_letter_parity():
    found = words.parity_kernel_words()
    assert found == (
        "caca", "cbcb", "baba", "bcacba", "bcbc",
        "acac", "acbcba", "abab", "abcacb", "abcbca",
    )
    for w in found:
        assert words.parity_vector(w) == (0, 0, 0)


def schreier_stab1_generators() -> tuple[str, ...]:
    """Words generating the first-level stabilizer.

    Two Reidemeister-Schreier stages: first the stabilizer of vertex 1 with
    transversal {empty, c, b}, then within it the stabilizer of vertex 2 with
    transversal {empty, a}; those are the breadth-first transversals. Fixing
    two of the three first-level vertices fixes the third, so the result
    stabilizes the whole level.
    """
    stage1, first = words.schreier_generators(
        list(words.ALPHABET), words.vertex_image, (1,)
    )
    stage2, second = words.schreier_generators(stage1, words.vertex_image, (2,))
    assert (first, second) == (
        {(1,): "", (2,): "c", (3,): "b"},
        {(2,): "", (3,): "a"},
    )
    return tuple(stage2)


def test_schreier_stab1_generators_fix_level_one():
    for w in schreier_stab1_generators():
        _, root = words.word_states(w)
        assert root.is_identity()


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_schreier_generators_match_known_set_semantically(depth):
    group = quotient_group(depth)
    degree = 3**depth

    def image(word_set):
        gens = [leaf_permutation(words.evaluate(w, depth), depth) for w in word_set]
        return permgroup.PermGroup(degree, gens)

    ours = image(schreier_stab1_generators())
    known = image(words.LEVEL1_STABILIZER_WORDS)
    assert oracles.same_subgroup_as(ours, known)
    # both give the index-6 level stabilizer
    assert group.order() == 6 * ours.order()


def test_schreier_index_one_case():
    # a transitive... trivial action: every point fixed, so the whole
    # generating set returns unchanged
    gens, transversal = words.schreier_generators(
        ["a", "b", "c"], lambda p, w: p, base_point=1
    )
    assert gens == ["a", "b", "c"]
    assert transversal == {1: ""}


def test_tau_power_length_matches_spelled_out_iterate():
    words_to_check = list(words.RELATORS.values())
    for base in words_to_check:
        w = base
        for n in range(11):
            assert words.tau_power_length(base, n) == len(w), (base, n)
            w = words.tau(w)
    # unreduced words: tau_power keeps them as they are at n = 0 only
    rng = random.Random(5)
    for w in ["aa", "abba", "", *(random_word(rng, 12) for _ in range(200))]:
        for n in range(4):
            assert words.tau_power_length(w, n) == len(words.tau_power(w, n)), (w, n)


def test_relator_family_keys():
    family = words.relator_family(2)
    assert "a^2" in family and "w1" in family and "tau^2(w4)" in family
    assert len(family) == 3 + 4 * 3


# -- word_states of long, unreduced and repeated words ------------------------


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
            assert family[key] == (base, n), key


def test_word_states_of_relator_family_match_brute():
    family = [words.tau_power(base, n) for base, n in words.relator_family(9).values()]
    assert max(map(len, family)) > 400_000
    for w in family:
        assert_states_match_brute(w)


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
        # the same lengths cut from a tau-iterate, a morphic word
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
    assert words.word_states(u + u[::-1]) == (("", "", ""), Perm.identity(3))


def test_word_states_of_repeated_blocks_match_brute():
    rng = random.Random(34)
    for block_length in (1, 5, 63, 64, 65, 128, 192, 200):
        block = random_word(rng, block_length)
        w = block * (6000 // block_length)
        assert_states_match_brute(w)
        assert_states_match_brute(w + w[::-1])


def test_public_word_states_stays_uncached():
    assert not hasattr(words.word_states, "cache_info")


# -- tau-iterates evaluated from the pair (w, n) -------------------------------


def test_tau_states_are_u_and_beta_u():
    """tau(u) has root (2 3)^|u| and states (u, beta(u), beta(u))."""
    rng = random.Random(41)
    for _ in range(1500):
        u = random_word(rng, rng.randint(0, 40))
        images = (1, 3, 2) if len(u) % 2 else (1, 2, 3)
        beta_u = words.beta(u)
        states = (words.free_reduce(u), beta_u, beta_u)
        assert _brute.word_states(words.tau(u)) == (states, images), u


def test_beta_commutes_with_tau():
    rng = random.Random(42)
    for _ in range(1500):
        u = random_word(rng, rng.randint(0, 40))
        assert words.free_reduce(words.beta(words.tau(u))) == words.tau(words.beta(u)), u


def tau_power_mismatches():
    """Cases where evaluating tau^n(w) from (w, n) differs from evaluating
    the spelled-out iterate: w1..w4 with n, depth <= 6, and random short
    words with n <= 3."""
    rng = random.Random(43)
    cases = [(w, n, d) for w in words.RELATORS.values() for n in range(7) for d in range(7)]
    for _ in range(60):
        w = random_word(rng, rng.randint(0, 12))
        cases += [(w, n, rng.randint(0, 6)) for n in range(4)]
    return [
        (w, n, d)
        for w, n, d in cases
        if words.evaluate(w, d, n) != words.evaluate(words.tau_power(w, n), d)
    ]


def test_evaluate_of_tau_power_matches_spelled_out_iterate():
    assert tau_power_mismatches() == []


def test_tau_power_oracle_catches_a_beta_without_the_swap(monkeypatch):
    words._evaluate_reduced.cache_clear()
    monkeypatch.setattr(words, "beta", lambda w: words.free_reduce(w.replace("a", "")))
    try:
        assert tau_power_mismatches()
    finally:
        words._evaluate_reduced.cache_clear()


def test_evaluate_of_tau_power_keeps_the_depth_contract():
    with pytest.raises(ShapeError, match="depth must be >= 0"):
        words.evaluate("ab", -1, 2)
    with pytest.raises(ResourceLimitError, match=f"depth {words.MAX_DEPTH + 1}"):
        words.evaluate("ab", words.MAX_DEPTH + 1, 2)
    with pytest.raises(ShapeError, match="n must be >= 0"):
        words.evaluate("ab", 2, -1)


def test_relators_at_the_caps_need_no_deeper_recursion():
    # a cold cache, so that every level is recursed into
    words._evaluate_reduced.cache_clear()
    for base in words.RELATORS.values():
        assert words.check_relator(base, words.MAX_DEPTH, words.MAX_TAU)
    assert not words.check_relator("ab", words.MAX_DEPTH, words.MAX_TAU)
