"""The level and rigid stabilizer images reuse or assemble stabilizer chains
instead of running Schreier-Sims on their generators, and the vertex
stabilizers come from one chain with a vertex as first base. Each is checked
here against a group built afresh by Schreier-Sims from the same generators,
and at depth 2 against brute-force enumeration."""

import itertools
import random

import pytest

from hanoikernel import analysis, permgroup
from hanoikernel import automorphism as am
from hanoikernel.perm import Perm

import _brute

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
    group = analysis.stab(analysis.build_quotient(depth), n)
    assert_matches_fresh_chain(group, depth, seed=100 * depth + n)


@pytest.mark.parametrize("depth, n", RIST_PAIRS)
def test_rist_image_matches_fresh_chain(depth, n):
    group = analysis.rist_image(analysis.build_quotient(depth), n)
    assert_matches_fresh_chain(group, depth, seed=200 * depth + n)


@pytest.mark.parametrize("depth, n", VERTEX_PAIRS)
def test_vertex_stabilizers_match_fresh_chain(depth, n):
    """A probe lies in the stabilizer of vertex v iff it lies in G_N, by a
    chain built from G_N's generators, and maps v's first leaf into v."""
    quotient = analysis.build_quotient(depth).group
    fresh = permgroup.PermGroup(quotient.degree, quotient.generators)
    stabilizers = permgroup.vertex_stabilizers(quotient, n)
    assert sorted(stabilizers) == list(range(1, 3**n + 1))
    size = 3 ** (depth - n)
    rng = random.Random(300 * depth + n)
    # every vertex of a level with at most 9, else 9 sampled ones
    vertices = sorted(rng.sample(sorted(stabilizers), min(9, 3**n)))
    for vertex in vertices:
        group = stabilizers[vertex]
        assert group.order() == fresh.order() // 3**n
        answers = []
        for p in probes(quotient, depth, seed=rng.randrange(10**6)):
            answer = group.contains(p)
            fixes = p.images[(vertex - 1) * size] // size == vertex - 1
            assert answer == (fresh.contains(p) and fixes)
            answers.append(answer)
        assert True in answers and False in answers


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
            "stab_quotient": analysis.stab(quotient, n).order()
            // analysis.stab(quotient, n + 1).order(),
            "derived_stab_quotient": permgroup.kernel_of_level_action(
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
    group = analysis.stab(analysis.build_quotient(2), n)
    assert_same_set(group, members, elements)


def test_rist_image_depth2_matches_enumeration():
    g1 = analysis.build_quotient(1).group.generators
    a3 = sorted(_brute.commutator_closure(_brute.closure([g.images for g in g1])))
    members = {
        tuple(3 * b + x for b, part in enumerate(parts) for x in part)
        for parts in itertools.product(a3, repeat=3)
    }
    elements = _g2_elements()
    group = analysis.rist_image(analysis.build_quotient(2), 1)
    assert len(members) == 27
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
    elements = _g2_elements()
    size = 3 ** (2 - n)
    stabilizers = permgroup.vertex_stabilizers(analysis.build_quotient(2).group, n)
    assert sorted(stabilizers) == list(range(1, 3**n + 1))
    for vertex, group in stabilizers.items():
        v = vertex - 1
        members = {e for e in elements if e[v * size] // size == v}
        assert_same_set(group, members, elements)
