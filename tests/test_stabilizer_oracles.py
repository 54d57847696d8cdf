"""The package reads the order of a rigid stabilizer image Rist(n) in G_N as
|G'_k|^(3^n), k = N - n, off the chain of G'_k; it is checked here against a
chain built by Schreier-Sims on the image's generators, whose members are
checked block by block against the chain of G'_k. The level stabilizers of
the test oracles (_chain_oracles) reuse the tail of a chain with the level's
vertices as first bases; each is checked against a group built afresh by
Schreier-Sims from the same generators. A vertex's
section, the group its stabilizer induces on its subtree, comes from the
states of Reidemeister-Schreier words; it is checked against the stabilizer
in G_N found by a chain with the vertex as first base. All three are checked
at depth 2 against brute-force enumeration. The package reads Q(n,N) off
the branch orders, which is checked against the same formula on chain
orders and against the index of Rist(n) in the oracle's Stab(n)."""

import itertools
import random

import pytest

from hanoikernel import analysis, permgroup, words
from hanoikernel import automorphism as am
from hanoikernel.perm import Perm

import _brute
import _chain_oracles as oracles

STAB_PAIRS = [(depth, n) for depth in (2, 3, 4) for n in range(depth + 1)]
RIST_PAIRS = [(depth, n) for depth in (2, 3, 4) for n in range(1, depth)]
VERTEX_PAIRS = [(depth, n) for depth in (2, 3, 4) for n in range(1, depth + 1)]


def child_swap(depth: int, rng: random.Random) -> Perm:
    """Leaf permutation swapping two child subtrees of a random vertex."""
    level = rng.randrange(depth)
    vertex = tuple(rng.randint(1, 3) for _ in range(level))
    i, j = rng.sample((1, 2, 3), 2)
    labels = {vertex: Perm.from_cycles(3, [(i, j)])}
    return am.leaf_permutation(am.from_labels(depth, labels), depth)


def probes(group: permgroup.PermGroup, depth: int, seed: int) -> list[Perm]:
    """Generators, products of generators, and each of those times one
    child swap."""
    rng = random.Random(seed)
    gens = list(group.generators)
    members = [Perm.identity(group.degree)] + gens
    members += [g * h for g, h in itertools.product(gens[:12], repeat=2)]
    for _ in range(20):
        if gens:
            word = [rng.choice(gens) for _ in range(rng.randint(2, 6))]
            product = word[0]
            for g in word[1:]:
                product = product * g
            members.append(product)
    return members + [m * child_swap(depth, rng) for m in members]


def assert_matches_fresh_chain(group: permgroup.PermGroup, depth: int, seed: int):
    fresh = permgroup.PermGroup(group.degree, group.generators)
    assert group.order() == fresh.order()
    answers = []
    for p in probes(group, depth, seed):
        answer = group.contains(p)
        assert answer == fresh.contains(p)
        answers.append(answer)
    assert True in answers and False in answers


@pytest.mark.parametrize("depth, n", STAB_PAIRS)
def test_stab_matches_fresh_chain(depth, n):
    group = oracles.stab(analysis.build_quotient(depth), n)
    assert_matches_fresh_chain(group, depth, seed=100 * depth + n)


@pytest.mark.parametrize("depth, n", RIST_PAIRS)
def test_rist_image_matches_fresh_chain(depth, n):
    """|Rist(n)| = |G'_k|^(3^n) is the order of a chain on the image's
    generators, and that chain takes a probe exactly when the probe keeps
    every level-n block and restricts on each to a member of G'_k."""
    group = analysis.rist_image(depth, n)
    fresh = permgroup.PermGroup(group.degree, group.generators)
    assert analysis._rist_order(depth, n) == fresh.order()
    factor = analysis.derived_of_quotient(analysis.build_quotient(depth - n))
    size = factor.degree

    def blockwise(p: Perm) -> bool:
        return _fixes_blocks(p.images, size) and all(
            factor.contains(Perm([x - b * size for x in p.images[b * size : (b + 1) * size]]))
            for b in range(3**n)
        )

    answers = []
    for p in probes(group, depth, seed=200 * depth + n):
        answer = fresh.contains(p)
        assert answer == blockwise(p)
        answers.append(answer)
    assert True in answers and False in answers


def assert_q_orders_match_chains(depth: int, n_max: int):
    """Q(n,N) from the branch orders against the same formula on chain
    orders and against the index of Rist(n) in a Stab(n) chain."""
    quotient = analysis.build_quotient(depth, slow=True)
    for n in range(1, n_max + 1):
        q = analysis.q_order(depth, n, slow=True)
        # one chain of the image serves both oracles
        rist = analysis.rist_image(depth, n, slow=True)
        assert q == oracles.chain_q_order(quotient, n, rist) == analysis.q_expected(n)
        assert q == oracles.q_order(quotient, n, rist)


@pytest.mark.parametrize("depth", [2, 3, 4, 5])
def test_q_orders_match_index_in_stab_chain(depth):
    assert_q_orders_match_chains(depth, depth - 1)


@pytest.mark.slow
def test_depth6_q_orders_match_index_in_stab_chain():
    assert_q_orders_match_chains(6, 4)


def reference_sections(depth: int, level: int) -> dict:
    """The stabilizer in G_depth of each level vertex in the orbit of vertex
    1...1, restricted to the vertex's leaves: one chain with that vertex as
    first base, its stabilizer conjugated by each transversal element."""
    group = analysis.build_quotient(depth).group
    size = 3 ** (depth - level)
    chain = permgroup._build_chain(
        permgroup._Chain(group.degree, [0], size), group.generators
    )
    stabilizer = [Perm(s) for s in chain.strong_generators(1)]
    sections = {}
    for v, t_inv in chain.levels[0].inverse_transversal.items():
        t = Perm(chain.unpack(t_inv)).inverse()
        conjugates = [t.inverse() * s * t for s in stabilizer]
        leaves = range(v * size, (v + 1) * size)
        restricted = [Perm([g.images[x] - v * size for x in leaves]) for g in conjugates]
        sections[am.vertex_of_index(v + 1, level)] = permgroup.PermGroup(size, restricted)
    return sections


@pytest.mark.parametrize("depth, n", VERTEX_PAIRS)
def test_vertex_stabilizers_match_fresh_chain(depth, n):
    """Each vertex's section, the states of its stabilizer's Schreier words,
    is the restriction of its stabilizer in G_N; every Schreier word fixes
    the vertex."""
    reference = reference_sections(depth, n)
    assert sorted(reference) == list(am.level_vertices(n))
    for vertex, expected in reference.items():
        stabilizer_words, _ = words.schreier_generators(
            list(words.ALPHABET), words.vertex_image, (), vertex
        )
        assert all(_brute.act_word(w, vertex) == vertex for w in stabilizer_words)
        assert analysis._vertex_section(vertex, depth).same_subgroup_as(expected)


@pytest.mark.parametrize("depth", [2, 3, 4])
def test_stabquot_rows_match_stabilizer_chains(depth):
    """stabquot reads its rows off the orders of G_n and G'_n; the level
    stabilizers of G_N and the level-n kernel of G'_(n+1) give each row."""
    quotient = analysis.build_quotient(depth)
    report = analysis.verify_lemma("stabquot", depth=depth)
    assert sorted(report.computed) == [f"n={n}" for n in range(1, depth)]
    for n in range(1, depth):
        derived = analysis.derived_of_quotient(analysis.build_quotient(n + 1))
        assert report.computed[f"n={n}"] == {
            "stab_quotient": oracles.stab(quotient, n).order()
            // oracles.stab(quotient, n + 1).order(),
            "derived_stab_quotient": oracles.kernel_of_level_action(
                derived, n
            ).order(),
        }


def _g2_elements() -> set:
    gens = analysis.build_quotient(2).group.generators
    return _brute.closure([g.images for g in gens])


def _fixes_blocks(e: tuple, size: int) -> bool:
    return all(e[b * size] // size == b for b in range(len(e) // size))


def assert_same_set(group: permgroup.PermGroup, members: set, others: set):
    assert group.order() == len(members)
    for e in members:
        assert group.contains(Perm(e))
    for e in others - members:
        assert not group.contains(Perm(e))


@pytest.mark.parametrize("n", [0, 1, 2])
def test_stab_depth2_matches_enumeration(n):
    elements = _g2_elements()
    members = {e for e in elements if _fixes_blocks(e, 3 ** (2 - n))}
    group = oracles.stab(analysis.build_quotient(2), n)
    assert_same_set(group, members, elements)


def test_rist_image_depth2_matches_enumeration():
    g1 = [g.images for g in analysis.build_quotient(1).group.generators]
    a3 = sorted(_brute.commutator_closure(_brute.closure(g1), g1))
    members = {
        tuple(3 * b + x for b, part in enumerate(parts) for x in part)
        for parts in itertools.product(a3, repeat=3)
    }
    elements = _g2_elements()
    group = analysis.rist_image(2, 1)
    assert len(members) == analysis._rist_order(2, 1) == 27
    # the non-members tried: all of G_2 and every product of three
    # permutations of the blocks' points
    s3 = list(itertools.permutations(range(3)))
    blockwise = {
        tuple(3 * b + x for b, part in enumerate(parts) for x in part)
        for parts in itertools.product(s3, repeat=3)
    }
    assert_same_set(group, members, elements | blockwise)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_vertex_stabilizers_depth2_match_enumeration(n):
    """Each vertex's section against the elements of G_2 that fix the vertex,
    restricted to its leaves. The permutations tried are all those of a
    vertex's leaves where it has at most three, and G_2 at the root."""
    elements = _g2_elements()
    size = 3 ** (2 - n)
    others = set(itertools.permutations(range(size))) if size <= 3 else elements
    for index, vertex in enumerate(am.level_vertices(n)):
        leaves = range(index * size, (index + 1) * size)
        members = {
            tuple(e[x] - index * size for x in leaves)
            for e in elements
            if e[index * size] // size == index
        }
        assert_same_set(analysis._vertex_section(vertex, 2), members, others)
