import random

import pytest

from hanoikernel import automorphism as am
from hanoikernel import words
from hanoikernel.errors import DepthError, ResourceLimitError, ShapeError
from hanoikernel.perm import Perm

import _brute


def random_word(rng, max_len=8):
    return "".join(rng.choice("abc") for _ in range(rng.randint(0, max_len)))


def random_vertex(rng, level):
    return tuple(rng.randint(1, 3) for _ in range(level))


def test_apply_known_move():
    b = words.evaluate("b", 6)
    assert am.apply(b, (2, 1, 3, 2, 2, 1)) == (2, 3, 3, 2, 2, 1)


def test_apply_identity():
    assert am.apply(am.identity(6), (2, 1, 3, 2, 2, 1)) == (2, 1, 3, 2, 2, 1)


def test_apply_fixes_all_ones():
    a = words.evaluate("a", 4)
    assert am.apply(a, (1, 1, 1, 1)) == (1, 1, 1, 1)


def test_apply_depth_exceeded():
    with pytest.raises(DepthError):
        am.apply(am.identity(2), (1, 2, 3))


def test_compose_with_identity():
    g = words.evaluate("abcab", 3)
    assert am.compose(g, am.identity(3)) == g
    assert am.compose(am.identity(3), g) == g


def test_generators_are_involutions():
    for letter in "abc":
        g = words.evaluate(letter, 4)
        assert am.compose(g, g).is_identity()


def test_compose_matches_word_concatenation():
    u, v = "ac", "bc"
    lhs = am.compose(words.evaluate(u, 4), words.evaluate(v, 4))
    assert lhs == words.evaluate(u + v, 4)


def test_compose_shape_error():
    with pytest.raises(ShapeError):
        am.compose(am.identity(2), am.identity(3))


def test_compose_agrees_with_pointwise_action():
    rng = random.Random(1)
    for _ in range(60):
        u, v = random_word(rng), random_word(rng)
        g, h = words.evaluate(u, 4), words.evaluate(v, 4)
        composed = am.compose(g, h)
        vertex = random_vertex(rng, rng.randint(0, 4))
        assert am.apply(composed, vertex) == am.apply(h, am.apply(g, vertex))


def test_state_at_generator():
    n = 4
    a = words.evaluate("a", n)
    assert am.state_at(a, (1,)) == words.evaluate("a", n - 1)
    assert am.state_at(a, (2,)) == am.identity(n - 1)
    assert am.state_at(am.identity(n), (3, 1)) == am.identity(n - 2)


def test_state_at_depth_error():
    with pytest.raises(DepthError):
        am.state_at(am.identity(2), (1, 1, 1))


def test_embed_round_trip():
    rng = random.Random(2)
    for _ in range(25):
        g = words.evaluate(random_word(rng), 3)
        u = random_vertex(rng, rng.randint(0, 3))
        assert am.state_at(am.embed(u, g), u) == g


def test_embed_at_root():
    g = words.evaluate("abc", 3)
    assert am.embed((), g) == g


def test_embed_trivial_outside_subtree():
    g = words.evaluate("ab", 3)
    e = am.embed((2,), g)
    for x in ((1,), (3,), (1, 2, 1, 3), (3, 3, 3, 3)):
        assert am.apply(e, x) == x


def test_embed_matches_branching_identity():
    d = 6
    assert am.embed((1,), words.evaluate("abab", d - 1)) == words.evaluate(
        "acbcacbc", d
    )


def test_cocycle_identity():
    rng = random.Random(3)
    for _ in range(60):
        g = words.evaluate(random_word(rng), 5)
        h = words.evaluate(random_word(rng), 5)
        u = random_vertex(rng, rng.randint(0, 5))
        lhs = am.state_at(am.compose(g, h), u)
        rhs = am.compose(am.state_at(g, u), am.state_at(h, am.apply(g, u)))
        assert lhs == rhs


def test_apply_preserves_prefixes():
    rng = random.Random(4)
    for _ in range(60):
        g = words.evaluate(random_word(rng), 5)
        v = random_vertex(rng, 5)
        image = am.apply(g, v)
        for k in range(6):
            assert image[:k] == am.apply(g, v[:k])


def test_leaf_permutation_identity():
    assert am.leaf_permutation(am.identity(3), 2).is_identity()


def test_leaf_permutation_generator_level1():
    assert am.leaf_permutation(words.evaluate("a", 1), 1) == Perm.from_cycles(
        3, [(2, 3)]
    )


def test_leaf_permutation_against_independent_action():
    # oracle: the recursion applied digit by digit, one vertex at a time
    for word, n in [("c", 2), ("ab", 3), ("acab", 2)]:
        expected = Perm(_brute.word_leaf_tuple(word, n))
        assert am.leaf_permutation(words.evaluate(word, n), n) == expected


def random_portrait(rng, depth, density):
    """A from_labels portrait labelling each internal vertex with the given
    probability, so that sparse ones have identity subtrees."""
    labels = {
        v: Perm(rng.sample(range(3), 3))
        for level in range(depth)
        for v in am.level_vertices(level)
        if rng.random() < density
    }
    return am.from_labels(depth, labels)


def test_leaf_permutation_matches_vertex_by_vertex_oracle():
    rng = random.Random(16)
    identity_subtrees = 0
    for depth in range(6):
        for density in (0.0, 0.15, 0.4, 1.0):
            for _ in range(3):
                g = random_portrait(rng, depth, density)
                if not g.is_identity() and any(c.is_identity() for c in g.children):
                    identity_subtrees += 1
                for n in range(depth + 1):
                    expected = _brute.portrait_leaf_tuple(g, n)
                    assert am.leaf_permutation(g, n).images == expected
    assert identity_subtrees > 10


def test_leaf_permutation_is_homomorphism():
    rng = random.Random(5)
    for _ in range(40):
        u, v = random_word(rng), random_word(rng)
        g, h = words.evaluate(u, 3), words.evaluate(v, 3)
        lhs = am.leaf_permutation(am.compose(g, h), 3)
        assert lhs == am.leaf_permutation(g, 3) * am.leaf_permutation(h, 3)


def test_lex_index_bijection():
    # the test-side index helper lists each level in lexicographic order
    for level in range(4):
        indexed = [_brute.vertex_of_index(i, level) for i in range(3**level)]
        assert indexed == list(am.level_vertices(level))
    assert _brute.vertex_of_index(26, 3) == (3, 3, 3)


def test_json_format_fields():
    g = words.evaluate("a", 2)
    d = am.to_json_dict(g)
    assert d["arity"] == 3 and d["depth"] == 2
    assert d["labels"][""] == [1, 3, 2]
    assert d["labels"]["1"] == [1, 3, 2]
    assert "2" not in d["labels"]  # identity labels omitted


def test_json_labels_match_walk_of_every_vertex():
    """The export enters no identity subtree; it must list the same labels,
    in the same order, as a walk over every internal vertex."""
    rng = random.Random(12)
    samples = ["a", "ab", "acab", "abcab", "acbcacbc"] + [
        random_word(rng, 30) for _ in range(6)
    ]
    for word in samples:
        for depth in range(1, 8):
            g = words.evaluate(word, depth)
            vertices = sorted(
                v for level in range(depth) for v in am.level_vertices(level)
            )
            expected = {
                ",".join(map(str, v)): list(g.label(v).one_based())
                for v in vertices
                if not g.label(v).is_identity()
            }
            labels = am.to_json_dict(g)["labels"]
            assert list(labels.items()) == list(expected.items())
            assert am.from_labels(depth, g.labels()) == g


def test_dot_export_contains_labels():
    g = words.evaluate("a", 2)
    dot = am.to_dot(g)
    assert dot.startswith("digraph")
    assert '"root" [label="(2 3)"];' in dot
    assert '"root" -> "1";' in dot


def test_from_labels_rejects_deep_vertex():
    with pytest.raises(DepthError):
        am.from_labels(1, {(1,): Perm.identity(3)})
    with pytest.raises(DepthError, match="depth must be >= 0"):
        am.from_labels(-1, {})


def test_from_labels_builds_only_the_labelled_path(monkeypatch):
    """A one-label map at depth 12 builds the label's vertex and its 11
    ancestors, and every subtree off that path is the cached identity; a
    builder of all 3^12 vertices would take seconds."""
    vertex = (2, 3, 1, 1, 3, 2, 2, 1, 3, 3, 1)
    for d in range(13):
        am.identity(d)
    made = []
    real = am.Portrait

    def counting(root, children):
        made.append(root)
        return real(root, children)

    monkeypatch.setattr(am, "Portrait", counting)
    assert am.from_labels(12, {}) is am.identity(12)
    assert not made
    g = am.from_labels(12, {vertex: Perm([1, 2, 0])})
    assert len(made) == len(vertex) + 1
    node = g
    for level, digit in enumerate(vertex):
        for i in (1, 2, 3):
            if i != digit:
                assert node.children[i - 1] is am.identity(11 - level)
        node = node.children[digit - 1]
    assert node.root == Perm([1, 2, 0])


@pytest.mark.parametrize("depth", [12, 200])
def test_one_label_portrait_round_trips(depth):
    label = Perm([2, 0, 1])
    vertex = (3,) * (depth - 1)
    g = am.from_labels(depth, {vertex: label})
    assert g == am.embed(vertex, am.from_labels(1, {(): label}))
    assert g.labels() == {vertex: label}
    assert am.from_labels(depth, g.labels()) == g


def test_from_labels_caps_its_depth():
    assert am.from_labels(am.MAX_DEPTH, {}).depth == am.MAX_DEPTH
    assert words.MAX_DEPTH == am.MAX_DEPTH
    for depth in (am.MAX_DEPTH + 1, 2000):
        with pytest.raises(ResourceLimitError, match=f"depth {depth} exceeds"):
            am.from_labels(depth, {})


def test_depth_zero_portraits():
    p = am.identity(0)
    assert p.depth == 0 and p.is_identity()
    assert am.compose(p, p) == p
    assert am.apply(p, ()) == ()
