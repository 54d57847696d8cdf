import functools
import importlib.util
import json
import math
import operator
import os
import random
import subprocess
import sys

import pytest

from hanoikernel import permgroup as pg
from hanoikernel import analysis, branch, cli, words
from hanoikernel.analysis import quotient_order
from hanoikernel.automorphism import leaf_permutation
from hanoikernel.errors import (
    InvalidBlocksError,
    NotASubgroupError,
    ShapeError,
)
from hanoikernel.perm import Perm

import _brute
import _chain_oracles as oracles
from test_cli import GOLDEN, GOLDEN_COMMANDS

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def quotient_group(n):
    gens = [leaf_permutation(words.evaluate(x, n), n) for x in "abc"]
    return pg.PermGroup(3**n, gens)


def symmetric_group(n):
    gens = [Perm.from_cycles(n, [(1, 2)]), Perm.from_cycles(n, [tuple(range(1, n + 1))])]
    return pg.PermGroup(n, gens)


def test_empty_group():
    g = pg.PermGroup(5)
    assert g.order() == 1
    assert oracles.is_trivial(g)
    assert g.contains(Perm.identity(5))


def test_level_one_image_is_s3():
    assert quotient_group(1).order() == 6


def test_symmetric_and_alternating_orders():
    import math

    for n in (3, 4, 5, 6):
        assert symmetric_group(n).order() == math.factorial(n)
    a4 = pg.PermGroup(
        4, [Perm.from_cycles(4, [(1, 2, 3)]), Perm.from_cycles(4, [(2, 3, 4)])]
    )
    assert a4.order() == 12


def test_iterated_wreath_order():
    # depth-2 portraits with a single nontrivial label generate the full
    # automorphism group of the 2-level tree, of order 6^4
    from hanoikernel import automorphism as am

    gens = []
    for vertex in [(), (1,)]:
        for cycle in [(1, 2), (1, 2, 3)]:
            labels = {vertex: Perm.from_cycles(3, [cycle])}
            gens.append(am.leaf_permutation(am.from_labels(2, labels), 2))
    assert pg.PermGroup(9, gens).order() == 6**4


def test_depth2_order_matches_enumeration():
    g = quotient_group(2)
    elements = _brute.closure([gen.images for gen in g.generators])
    assert g.order() == len(elements) == 648


def test_contains_matches_enumeration():
    g = quotient_group(2)
    elements = _brute.closure([gen.images for gen in g.generators])
    for t in sorted(elements)[::37]:
        assert g.contains(Perm(t))
    rng = random.Random(21)
    misses = 0
    while misses < 20:
        images = list(range(9))
        rng.shuffle(images)
        if tuple(images) not in elements:
            assert not g.contains(Perm(images))
            misses += 1


def test_contains_degree_mismatch():
    with pytest.raises(ShapeError):
        quotient_group(1).contains(Perm.identity(4))


def test_commutator_image_is_three_cycle():
    g1 = quotient_group(1)
    comm = branch.perm_commutator(
        leaf_permutation(words.evaluate("a", 1), 1),
        leaf_permutation(words.evaluate("b", 1), 1),
    )
    assert g1.contains(comm)
    assert comm.cycle_string() in ("(1 2 3)", "(1 3 2)")
    a3 = oracles.derived_subgroup(g1)
    assert a3.order() == 3
    assert not a3.contains(Perm.from_cycles(3, [(1, 2)]))


def test_kernel_of_level_action_boundaries():
    g = quotient_group(2)
    assert oracles.kernel_of_level_action(g, 0) is g
    assert oracles.kernel_of_level_action(g, 2).order() == 1


def test_kernel_of_level_action_level1():
    g = quotient_group(2)
    kernel = oracles.kernel_of_level_action(g, 1)
    assert kernel.order() == 108
    # normal in g: conjugates of kernel generators stay inside
    for k in kernel.generators:
        for gen in g.generators:
            assert kernel.contains(gen.inverse() * k * gen)
    # the block action has order |G| / |kernel|
    block_action = pg.PermGroup(
        3, [Perm([gen.images[3 * v] // 3 for v in range(3)]) for gen in g.generators]
    )
    assert block_action.order() == g.order() // kernel.order()


def test_kernel_rejects_bad_degree():
    with pytest.raises(ShapeError):
        oracles.kernel_of_level_action(pg.PermGroup(10), 1)


def test_vertex_bases_reject_split_blocks():
    # the first generator maps level-1 blocks to blocks; (3 4) splits
    # {1,2,3} and {4,5,6}
    g = pg.PermGroup(
        9, [Perm.from_cycles(9, [(1, 4), (2, 5), (3, 6)]), Perm.from_cycles(9, [(3, 4)])]
    )
    with pytest.raises(InvalidBlocksError):
        oracles.kernel_of_level_action(g, 1)
    with pytest.raises(InvalidBlocksError):
        pg.tree_group(2, g.generators)
    with pytest.raises(InvalidBlocksError):
        pg.PermGroup(9, g.generators, 3)


def test_generator_degree_mismatch():
    # the degree is checked before the blocks, which read every leaf
    with pytest.raises(ShapeError, match="generator degree 4 != 9"):
        pg.tree_group(2, [Perm.identity(9), Perm.identity(4)])
    with pytest.raises(ShapeError, match="generator degree 3 != 4"):
        pg.PermGroup(4, [Perm.identity(3)])


def test_derived_subgroup_of_s3_is_a3():
    d = oracles.derived_subgroup(symmetric_group(3))
    assert d.order() == 3
    assert pg.is_elementary_abelian(d, 3)


def test_derived_subgroup_of_trivial_group():
    assert oracles.derived_subgroup(pg.PermGroup(4)).order() == 1


def test_derived_subgroup_matches_brute_force_abelianization():
    g = quotient_group(2)
    gens = [gen.images for gen in g.generators]
    elements = _brute.closure(gens)
    brute_derived = _brute.commutator_closure(elements, gens)
    chain_derived = oracles.derived_subgroup(g)
    assert chain_derived.order() == len(brute_derived) == 324
    assert g.order() // chain_derived.order() == 2
    for t in sorted(brute_derived)[::41]:
        assert chain_derived.contains(Perm(t))


def test_derived_subgroup_inside_abelian_kernels():
    # the derived subgroup lies in the kernel of every homomorphism to an
    # abelian group; two such maps: the 9-point sign, and the product of the
    # three within-block signs
    g = quotient_group(2)
    d = oracles.derived_subgroup(g)
    for gen in d.generators:
        assert gen.sign() == 1
        block_perm = Perm([gen.images[3 * block] // 3 for block in range(3)])
        assert block_perm.sign() == 1


def test_normal_closure_examples():
    g = symmetric_group(3)
    assert oracles.normal_closure(g, [Perm.identity(3)]).order() == 1
    closure = oracles.normal_closure(g, [Perm.from_cycles(3, [(1, 2, 3)])])
    assert closure.order() == 3
    with pytest.raises(NotASubgroupError):
        oracles.normal_closure(
            pg.PermGroup(3, [Perm.from_cycles(3, [(1, 2, 3)])]),
            [Perm.from_cycles(3, [(1, 2)])],
        )


def test_normal_closure_of_generator_commutators_is_derived():
    g = quotient_group(2)
    seeds = [
        branch.perm_commutator(p, q)
        for i, p in enumerate(g.generators)
        for q in g.generators[i + 1 :]
    ]
    closure = oracles.normal_closure(g, seeds)
    derived = oracles.derived_subgroup(g)
    assert oracles.same_subgroup_as(closure, derived)


def test_is_elementary_abelian():
    assert pg.is_elementary_abelian(pg.PermGroup(3), 2)
    assert pg.is_elementary_abelian(pg.PermGroup(3), 5)
    assert not pg.is_elementary_abelian(symmetric_group(3), 2)
    klein = pg.PermGroup(
        4,
        [Perm.from_cycles(4, [(1, 2), (3, 4)]), Perm.from_cycles(4, [(1, 3), (2, 4)])],
    )
    assert pg.is_elementary_abelian(klein, 2)
    assert not pg.is_elementary_abelian(klein, 3)


def test_is_elementary_abelian_multiplies_pairs_whose_supports_meet():
    def group(*cycles):
        return pg.PermGroup(9, [Perm.from_cycles(9, [c]) for c in cycles])

    # every pair is multiplied: generators with disjoint supports commute
    assert pg.is_elementary_abelian(group((1, 2, 3), (4, 5, 6), (7, 8, 9)), 3)
    # supports that meet: a 3-cycle and its inverse commute, two 3-cycles
    # sharing one point do not, also with a disjoint generator between them
    assert pg.is_elementary_abelian(group((1, 2, 3), (1, 3, 2)), 3)
    assert not pg.is_elementary_abelian(group((1, 2, 3), (3, 4, 5)), 3)
    assert not pg.is_elementary_abelian(group((1, 2, 3), (7, 8, 9), (3, 4, 5)), 3)


def test_subgroup_index():
    g = quotient_group(2)
    assert oracles.subgroup_index(g, g) == 1
    kernel = oracles.kernel_of_level_action(g, 1)
    assert oracles.subgroup_index(g, kernel) == 6
    with pytest.raises(NotASubgroupError):
        oracles.subgroup_index(
            pg.PermGroup(9, [Perm.from_cycles(9, [(1, 2, 3)])]), quotient_group(2)
        )


def test_order_times_index_identity():
    g = quotient_group(2)
    for subgroup in (oracles.kernel_of_level_action(g, 1), oracles.derived_subgroup(g)):
        assert subgroup.order() * oracles.subgroup_index(g, subgroup) == g.order()


def test_pointwise_stabilizer_orbit_factorization():
    g = quotient_group(2)
    stab = oracles.pointwise_stabilizer(g, [1])
    assert stab.order() * len(pg.orbit(9, g.generators, 1)) == g.order()
    for gen in stab.generators:
        assert gen.apply(1) == 1


def test_embed_in_block():
    p = Perm.from_cycles(3, [(1, 2)])
    e = oracles.embed_in_block(p, 1, 3)
    assert e.degree == 9
    assert e.apply(4) == 5 and e.apply(5) == 4
    assert all(e.apply(i) == i for i in (1, 2, 3, 7, 8, 9))


def test_generator_dedup_and_identity_filter():
    p = Perm.from_cycles(3, [(1, 2)])
    g = pg.PermGroup(3, [p, p, Perm.identity(3)])
    assert len(g.generators) == 1


def test_pointwise_stabilizer_matches_enumeration():
    rng = random.Random(77)
    built = 0
    while built < 8:
        degree = rng.randint(4, 6)
        gens = []
        for _ in range(2):
            images = list(range(degree))
            rng.shuffle(images)
            gens.append(tuple(images))
        try:
            elements = _brute.closure(gens, cap=2000)
        except RuntimeError:
            continue
        built += 1
        group = pg.PermGroup(degree, [Perm(g) for g in gens])
        points = rng.sample(range(1, degree + 1), rng.randint(1, degree - 1))
        stab = oracles.pointwise_stabilizer(group, points)
        fixing = [
            e for e in elements if all(e[p - 1] == p - 1 for p in points)
        ]
        assert stab.order() == len(fixing)
        for e in fixing:
            assert stab.contains(Perm(e))


def test_kernel_of_level_action_matches_enumeration():
    g = quotient_group(2)
    elements = _brute.closure([gen.images for gen in g.generators])
    trivial_blocks = [
        e
        for e in elements
        if all(e[3 * block] // 3 == block for block in range(3))
    ]
    kernel = oracles.kernel_of_level_action(g, 1)
    assert kernel.order() == len(trivial_blocks) == 108
    for e in trivial_blocks[::9]:
        assert kernel.contains(Perm(e))


def assert_chain_is_bsgs(chain, regenerate=True):
    """Every level's generators fix the shallower bases, their orbit of the
    level's base is the transversal, and they generate a group whose order
    is the product of the transversal sizes from that level on, which a
    fresh leaf-only chain per level checks unless `regenerate` is false (at
    degree 243 that takes seconds). The chain must be finished, so it keeps
    only the inverse transversal.

    A chain element holds the images of the leaves 0..degree-1, then, with
    a block size, of the vertex points, and it may be padded past them.
    Every strong generator and inverse transversal element must map each
    vertex point to the vertex of its leaves' images, the padding must fix
    every point, and the groups are regenerated from the leaves' images."""
    degree, block = chain.degree, chain.block
    width = degree + chain.vertices

    def images(t):
        assert list(t[width:]) == list(range(width, len(t)))
        for v in range(chain.vertices):
            leaves = t[v * block : (v + 1) * block]
            assert {degree + x // block for x in leaves} == {t[degree + v]}
        return tuple(t[:degree])

    assert images(chain.identity) == tuple(range(degree))
    for l, level in enumerate(chain.levels):
        for g in level.gens:
            images(g)
            for lv in chain.levels[:l]:
                assert g[lv.base] == lv.base
        orbit = {level.base}
        frontier = [level.base]
        while frontier:
            point = frontier.pop()
            for g in level.gens:
                image = g[point]
                if image not in orbit:
                    orbit.add(image)
                    frontier.append(image)
        assert level.transversal is None
        assert orbit == set(level.inverse_transversal)
        for point, t_inv in level.inverse_transversal.items():
            images(t_inv)
            assert _brute.inv(tuple(t_inv))[level.base] == point
        if not regenerate:
            continue
        expected = 1
        for deeper in chain.levels[l:]:
            expected *= len(deeper.inverse_transversal)
        regenerated = pg.PermGroup(degree, [Perm(images(g)) for g in level.gens])
        assert regenerated.order() == expected


def test_pointwise_stabilizer_is_the_forced_chain_tail():
    """The stabilizer is generated by the strong generators behind the
    points, opened as a chain's first levels; its fresh chain has the order
    of that tail, the product of the tail's orbit sizes, and takes exactly
    the elements of the group that fix the points."""
    g = quotient_group(3)
    stab = oracles.pointwise_stabilizer(g, [1, 5, 27])
    assert_chain_is_bsgs(stab._chain)
    chain = pg._Chain(27)
    for point in (0, 4, 26):
        chain._new_level(point)
    for gen in g.generators:
        chain.add_generator(gen.images)
    assert [level.base for level in chain.levels[:3]] == [0, 4, 26]
    tail = chain.levels[3:]
    assert [g.images for g in stab.generators] == oracles.strong_generators(chain, 3)
    assert stab.order() == math.prod(len(level.inverse_transversal) for level in tail)
    assert stab.order() * math.prod(
        len(level.inverse_transversal) for level in chain.levels[:3]
    ) == g.order()
    rng = random.Random(27)
    for p in random_words(g, rng, 40) + random_words(stab, rng, 20):
        assert stab.contains(p) == all(p.images[x] == x for x in (0, 4, 26))


def test_kernel_of_level_action_chain_is_cut_to_leaves(monkeypatch):
    built = []

    class RecordedChain(pg._Chain):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(pg, "_Chain", RecordedChain)
    # at depth 5 and n = 3 the chain has 243 + 27 points: a tuple chain
    for depth, n in ((3, 1), (3, 2), (5, 3)):
        g = quotient_group(depth)
        degree = 3**depth
        built.clear()
        kernel = oracles.kernel_of_level_action(g, n)
        # the chain with the vertex points, then the kernel's own
        chain, fresh = built
        assert fresh is kernel._chain
        assert type(chain.identity) is (bytes if depth == 3 else tuple)
        assert_chain_is_bsgs(chain, regenerate=depth == 3)
        assert chain.block == 3 ** (depth - n)
        vertices = chain.levels[: chain.vertices]
        assert [level.base for level in vertices] == [degree + v for v in range(3**n)]
        # the vertex levels' orbits are |G : Stab(n)| = |G_n| cosets
        assert math.prod(len(level.inverse_transversal) for level in vertices) == (
            quotient_group(n).order()
        )
        # the kernel is generated by the tail's strong generators, and its
        # chain, built afresh from them, has the tail's order and leaf bases
        tail = chain.levels[chain.vertices :]
        assert [g.images for g in kernel.generators] == oracles.strong_generators(chain, chain.vertices)
        assert all(level.base < degree for level in tail)
        assert kernel._chain.block == 0
        assert kernel.order() == math.prod(len(level.inverse_transversal) for level in tail)


def child_swap(depth, rng):
    """Leaf permutation swapping two child subtrees of a random vertex."""
    from hanoikernel import automorphism as am

    vertex = tuple(rng.randint(1, 3) for _ in range(rng.randrange(depth)))
    i, j = rng.sample((1, 2, 3), 2)
    labels = {vertex: Perm.from_cycles(3, [(i, j)])}
    return am.leaf_permutation(am.from_labels(depth, labels), depth)


@pytest.mark.parametrize("depth", [2, 3, 4, 5])
def test_tree_group_matches_plain_chain(depth):
    """G_N on a chain whose base starts with the level-(N // 2) vertices
    against G_N on a leaf-only chain: order, members, and members times one
    child swap, which lie outside G_N (the sibling sign invariant of
    bench/queries.py); at depth 2 also against enumeration."""
    gens = quotient_group(depth).generators
    tree = pg.tree_group(depth, gens)
    plain = pg.PermGroup(3**depth, gens)
    chain = tree._chain
    assert_chain_is_bsgs(chain, regenerate=depth <= 4)
    level = depth // 2
    vertices = chain.levels[: chain.vertices]
    assert [lv.base for lv in vertices] == [3**depth + v for v in range(3**level)]
    assert chain.block == 3 ** (depth - level)
    # the first orbit is all of level k; a leaf orbit stays in one block
    assert len(vertices[0].inverse_transversal) == 3**level
    assert max(len(lv.inverse_transversal) for lv in chain.levels) <= 3 ** (
        depth - level
    )
    assert tree.order() == plain.order() == quotient_order(depth)
    rng = random.Random(depth)
    members = random_words(plain, rng, 40)
    near = [p * child_swap(depth, rng) for p in members]
    for p in members:
        assert tree.contains(p) and plain.contains(p)
    for q in near:
        assert not tree.contains(q) and not plain.contains(q)
    if depth == 2:
        elements = _brute.closure([g.images for g in gens])
        for e in elements:
            assert tree.contains(Perm(e))
        assert not any(q.images in elements for q in near)


def test_tree_group_of_depth_one_has_no_forced_base():
    # level 0 is the root alone, which every permutation fixes
    tree = pg.tree_group(1, quotient_group(1).generators)
    assert tree._chain.vertices == 0
    assert tree.order() == 6


def test_direct_power_matches_fresh_chain():
    """The copies of the generators generate the direct power: a chain on
    them has the power's order and takes a permutation exactly when each
    block's restriction lies in the factor."""
    rng = random.Random(5)
    for inner, count in ((symmetric_group(3), 4), (quotient_group(2), 3)):
        power = oracles.direct_power(inner, count)
        assert power.degree == inner.degree * count
        assert power.order() == inner.order() ** count
        assert_chain_is_bsgs(power._chain)
        size = inner.degree

        def blockwise(q):
            blocks = [q.images[b * size : (b + 1) * size] for b in range(count)]
            return all(
                {x // size for x in block} == {b}
                and inner.contains(Perm([x - b * size for x in block]))
                for b, block in enumerate(blocks)
            )

        gens = list(power.generators)
        for _ in range(30):
            p = Perm.identity(power.degree)
            for _ in range(rng.randint(1, 8)):
                p = p * rng.choice(gens)
            images = list(range(power.degree))
            rng.shuffle(images)
            for q in (p, p * Perm(images), p * Perm.transposition(power.degree, 1, 2)):
                assert power.contains(q) == blockwise(q)


def test_direct_power_rejects_block_crossing():
    power = oracles.direct_power(symmetric_group(3), 2)
    assert power.order() == 36
    assert not power.contains(Perm.from_cycles(6, [(3, 4)]))
    assert power.contains(Perm.from_cycles(6, [(1, 2), (4, 5, 6)]))


def test_direct_power_of_trivial_group():
    power = oracles.direct_power(pg.PermGroup(3), 3)
    assert power.order() == 1
    assert oracles.is_trivial(power)


# -- chain encodings: padded bytes up to degree 256, tuples above -------------


def top_symmetric_group(degree):
    """S_4 on the last four points, from a 3-cycle and a transposition."""
    a = degree - 3
    return pg.PermGroup(
        degree,
        [
            Perm.from_cycles(degree, [(a, a + 1, a + 2)]),
            Perm.from_cycles(degree, [(a + 2, a + 3)]),
        ],
    )


def assert_perm_degrees(group, degree):
    assert group.degree == degree
    assert all(g.degree == degree for g in group.generators)


def random_words(group, rng, count):
    gens = list(group.generators)
    out = []
    for _ in range(count):
        p = Perm.identity(group.degree)
        for _ in range(rng.randint(1, 12)):
            p = p * rng.choice(gens)
        out.append(p)
    return out


@pytest.mark.parametrize("degree", [255, 256, 257, 258])
def test_encoding_boundary_matches_enumeration(degree):
    group = top_symmetric_group(degree)
    chain = group._chain
    assert type(chain.identity) is (bytes if degree <= 256 else tuple)
    assert_chain_is_bsgs(chain)
    elements = _brute.closure([g.images for g in group.generators])
    assert group.order() == len(elements) == 24
    for e in elements:
        assert group.contains(Perm(e))
    rng = random.Random(degree)
    for e in sorted(elements)[::5]:
        for cycle in [(1, degree), (1, 2, 3), (degree - 4, degree - 1)]:
            outside = _brute.mult(e, Perm.from_cycles(degree, [cycle]).images)
            assert outside not in elements
            assert not group.contains(Perm(outside))

    stab = oracles.pointwise_stabilizer(group, [degree])
    assert_perm_degrees(stab, degree)
    assert_chain_is_bsgs(stab._chain)
    fixing = [e for e in elements if e[degree - 1] == degree - 1]
    assert stab.order() == len(fixing) == 6
    for e in elements:
        assert stab.contains(Perm(e)) == (e in fixing)

    derived = oracles.derived_subgroup(group)
    assert_perm_degrees(derived, degree)
    gens = [g.images for g in group.generators]
    assert derived.order() == len(_brute.commutator_closure(elements, gens)) == 12
    for p in random_words(group, rng, 10):
        assert derived.contains(p) == (p.sign() == 1)


def test_direct_power_at_degree_256():
    """64 copies of S_4 fill the bytes encoding exactly: no padding."""
    power = oracles.direct_power(symmetric_group(4), 64)
    chain = power._chain
    assert type(chain.identity) is bytes and len(chain.identity) == 256
    assert_perm_degrees(power, 256)
    assert power.order() == 24**64
    rng = random.Random(256)
    # (4 5) crosses two blocks, (253 256) stays in the last one
    swaps = [Perm.from_cycles(256, [c]) for c in [(4, 5), (253, 256)]]
    for p in random_words(power, rng, 20):
        for q in [p] + [p * s for s in swaps]:
            keeps_blocks = all(q.images[i] // 4 == i // 4 for i in range(256))
            assert power.contains(q) == keeps_blocks
    stab = oracles.pointwise_stabilizer(power, [1, 256])
    assert_perm_degrees(stab, 256)
    assert stab.order() == 6**2 * 24**62


def test_direct_power_of_bytes_factor_has_tuple_chain():
    """G_2 has degree 9 and a bytes chain; 29 copies of it have degree 261
    and a tuple chain."""
    inner = quotient_group(2)
    power = oracles.direct_power(inner, 29)
    assert type(inner._chain.identity) is bytes
    assert type(power._chain.identity) is tuple
    assert_perm_degrees(power, 261)
    assert power.order() == 648**29
    elements = _brute.closure([g.images for g in inner.generators])

    def in_power(q):
        blocks = [q.images[9 * b : 9 * b + 9] for b in range(29)]
        return all(
            tuple(x - 9 * b for x in block) in elements for b, block in enumerate(blocks)
        )

    rng = random.Random(261)
    answers = []
    swaps = [Perm.from_cycles(261, [c]) for c in [(1, 2), (9, 10)]]
    for p in random_words(power, rng, 20):
        for q in [p] + [p * s for s in swaps]:
            answer = power.contains(q)
            assert answer == in_power(q)
            answers.append(answer)
    assert True in answers and False in answers
    stab = oracles.pointwise_stabilizer(power, [1, 261])
    assert_perm_degrees(stab, 261)
    assert stab.order() == 72**2 * 648**27


def test_vertex_bases_at_degree_729():
    """Kernels of level actions on the depth-6 tree, whose chains are
    tuples, against enumeration of a group of order 1536: a root 3-cycle and
    transpositions at vertices (1,) and (1, 1)."""
    from hanoikernel import automorphism as am

    labels = [
        {(): Perm.from_cycles(3, [(1, 2, 3)])},
        {(1,): Perm.from_cycles(3, [(1, 2)])},
        {(1, 1): Perm.from_cycles(3, [(1, 2)])},
    ]
    group = pg.PermGroup(
        729, [am.leaf_permutation(am.from_labels(6, lab), 6) for lab in labels]
    )
    assert type(group._chain.identity) is tuple
    elements = _brute.closure([g.images for g in group.generators])
    assert group.order() == len(elements) == 1536

    def fixes(e, level, vertices):
        size = 3 ** (6 - level)
        return all(e[v * size] // size == v for v in vertices)

    for n in (1, 2, 3):
        kernel = oracles.kernel_of_level_action(group, n)
        assert_perm_degrees(kernel, 729)
        members = [e for e in elements if fixes(e, n, range(3**n))]
        assert kernel.order() == len(members)
        for e in elements:
            assert kernel.contains(Perm(e)) == fixes(e, n, range(3**n))


# -- the Schreier generators skipped in _drain --------------------------------


class UnskippedChain(pg._Chain):
    """A chain whose _adjoin queues every Schreier pair and whose _drain
    sifts every nontrivial Schreier generator, the bodies without the skips.
    It records whether each Schreier generator that equals its generator s,
    one the skips leave out, sifted to the identity, and counts every
    Schreier generator it forms."""

    def __init__(self, *args):
        super().__init__(*args)
        self.equal_to_s: list[bool] = []

    def _adjoin(self, h, lo, hi):
        if hi == len(self.levels):
            base = next(i for i, j in enumerate(h) if i != j)
            self._new_level(base)
        for l in range(lo, hi + 1):
            level = self.levels[l]
            level.gens.append(h)
            old_points = list(level.transversal)
            new_points = self._extend_orbit(level, h)
            queue = self._pending[l]
            for pt in old_points:
                queue.append((pt, h))
            for pt in new_points:
                for s in level.gens:
                    queue.append((pt, s))

    def _drain(self) -> None:
        identity, mult = self.identity, self.mult
        while True:
            l = len(self.levels) - 1
            while l >= 0 and not self._pending[l]:
                l -= 1
            if l < 0:
                return
            level = self.levels[l]
            queue = self._pending[l]
            while queue:
                point, s = queue.popleft()
                u = level.transversal[point]
                schreier = mult(mult(u, s), level.inverse_transversal[s[point]])
                self.formed += 1
                if schreier == identity:
                    continue
                residue, stuck = self.sift(schreier, l + 1)
                if schreier == s:
                    self.equal_to_s.append(residue == identity)
                if residue != identity:
                    self._adjoin(residue, l + 1, stuck)
                    if stuck > l:
                        break


def chain_snapshot(chain):
    return [
        (
            level.base,
            level.gens,
            level.transversal,
            level.inverse_transversal,
        )
        for level in chain.levels
    ]


def block_sizes(depth):
    """The block sizes of the chains at depth N: none for the plain chain,
    and the level-n vertices for kernels of level actions, for vertex
    stabilizers and, at n = N // 2, for the chain of G_N itself
    (tree_group)."""
    yield 0
    for n in range(1, depth):
        yield 3 ** (depth - n)


def assert_skips_leave_the_chain_unchanged(degree, gens, block=0, bases=()):
    """The chain, with the skips and the settled levels, against the
    UnskippedChain oracle, with the vertex points of a block size and then
    the bases given as its first levels; returns it."""
    chains = []
    for cls in (pg._Chain, UnskippedChain):
        chain = cls(degree, block)
        for base in bases:
            chain._new_level(base)
        for g in gens:
            chain.add_generator(g.images)
        chains.append(chain)
    fast, oracle = chains
    assert chain_snapshot(fast) == chain_snapshot(oracle)
    # every skipped generator sifts to the identity from level l + 1
    assert oracle.equal_to_s == [True] * fast.skipped
    # the skipped and the settled pairs count as formed, so the build log
    # is unchanged
    assert fast.formed == oracle.formed
    assert fast.settled <= fast.skipped
    # each _adjoin call adds one new strong generator
    assert fast.adjoined == len({g for level in fast.levels for g in level.gens})
    # a level's mask holds the points its transversal elements move
    for level in fast.levels:
        assert level.moved == functools.reduce(
            operator.or_, map(fast.support, level.transversal.values())
        )
    return fast


@pytest.mark.parametrize("depth", [2, 3, 4, 5])
def test_skipped_schreier_generators_leave_the_chain_unchanged(depth):
    gens = quotient_group(depth).generators
    settled = 0
    for block in block_sizes(depth):
        fast = assert_skips_leave_the_chain_unchanged(3**depth, gens, block)
        assert fast.order() == quotient_order(depth)
        assert fast.skipped > 0 and fast.sifted > 0
        assert fast.formed > fast.skipped + fast.sifted
        settled += fast.settled
    assert settled > 0


def clustered_cycles(degree, clusters, rng, bridge):
    """Two or three seeded cycles of two to four points of each cluster,
    and with `bridge` a transposition joining the first two clusters: a
    group that need preserve no tree, with generators whose supports meet
    inside a cluster and miss across clusters."""
    gens = [
        Perm.from_cycles(degree, [[x + 1 for x in rng.sample(c, rng.randint(2, min(4, len(c))))]])
        for c in clusters
        for _ in range(rng.randint(2, 3))
    ]
    if bridge:
        swap = Perm.from_cycles(degree, [[rng.choice(c) + 1 for c in clusters[:2]]])
        gens.insert(rng.randrange(len(gens)), swap)
    return gens


def test_skipped_schreier_generators_of_clustered_cycles():
    """Eight seeded groups on two clusters of 8 to 12 points, each with a
    plain chain and one whose first bases are points 0 and 1."""
    settling = 0
    for seed in range(8):
        rng = random.Random(seed)
        degree = rng.randint(8, 12)
        points = list(range(degree))
        rng.shuffle(points)
        split = rng.randint(3, degree - 3)
        clusters = [points[:split], points[split:]]
        gens = clustered_cycles(degree, clusters, rng, seed % 2)
        for bases in ((), (0, 1)):
            fast = assert_skips_leave_the_chain_unchanged(degree, gens, bases=bases)
            settling += fast.settled > 0
    assert settling >= 12


def test_skipped_schreier_generators_of_a_tuple_chain():
    """Clustered cycles on 14 of 300 points, some past 255: a tuple chain."""
    rng = random.Random(300)
    points = rng.sample(range(300), 12) + [256, 299]
    clusters = [points[:5], points[5:9], points[9:]]
    fast = assert_skips_leave_the_chain_unchanged(
        300, clustered_cycles(300, clusters, rng, True)
    )
    assert type(fast.identity) is tuple
    assert fast.settled > 0 and fast.sifted > 0


@pytest.mark.parametrize("degree", [3, 243, 256, 257, 729])
def test_support_masks_meet_exactly_when_the_supports_do(degree):
    """Cycles on a pool of up to eight points that holds the first and the
    last, the identity, and one permutation that moves every point."""
    rng = random.Random(degree)
    pool = sorted({0, degree - 1, *rng.sample(range(degree), min(degree, 6))})
    perms = [list(range(degree))]
    for _ in range(30):
        images = list(range(degree))
        cycle = rng.sample(pool, rng.randint(2, min(len(pool), 4)))
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            images[a] = b
        perms.append(images)
    perms.append(list(range(1, degree)) + [0])
    chain = pg._Chain(degree)
    masks = [chain.support(chain._pack(p)) for p in perms]
    moved = [{i for i, j in enumerate(p) if i != j} for p in perms]
    for mask, points in zip(masks, moved):
        assert mask.bit_count() == len(points)
        for other_mask, other_points in zip(masks, moved):
            assert (mask & other_mask == 0) == points.isdisjoint(other_points)


def test_skipped_schreier_generators_leave_normal_closures_unchanged(monkeypatch):
    g = quotient_group(3)
    fast = oracles.derived_subgroup(g)._chain
    monkeypatch.setattr(pg, "_Chain", UnskippedChain)
    oracle = oracles.derived_subgroup(g)._chain
    assert type(oracle) is UnskippedChain
    assert chain_snapshot(fast) == chain_snapshot(oracle)
    assert fast.order() == g.order() // 2
    assert oracle.equal_to_s == [True] * fast.skipped
    assert fast.formed == oracle.formed
    assert fast.skipped > 0


@pytest.mark.parametrize("degree", [1, 2, 3, 243, 255, 256, 257, 729])
def test_chain_inverse_matches_loop(degree):
    rng = random.Random(degree)
    for _ in range(5):
        images = list(range(degree))
        rng.shuffle(images)
        p = pg._Chain(degree)._pack(images)
        inverse = pg._inv(p)
        assert type(inverse) is type(p) is (bytes if degree <= 256 else tuple)
        assert tuple(inverse) == _brute.inv(tuple(p))
        # the padding past the degree stays fixed
        assert tuple(inverse[degree:]) == tuple(range(degree, len(p)))


def test_pack_reads_each_vertex_off_its_first_leaf():
    """_pack gives vertex point degree + v the vertex of the image of v's
    first leaf, also for permutations that split blocks, which no chain
    member does; the padding past the vertex points stays fixed. Widths 12
    (bytes) and 270 (a tuple)."""
    rng = random.Random(12)
    for degree, block in ((9, 3), (243, 9)):
        chain = pg._Chain(degree, block)
        width = degree + chain.vertices
        assert chain.vertices == degree // block
        for _ in range(5):
            images = list(range(degree))
            rng.shuffle(images)
            p = chain._pack(images)
            assert list(p[:degree]) == images
            assert list(p[degree:width]) == [
                degree + images[v * block] // block for v in range(chain.vertices)
            ]
            assert list(p[width:]) == list(range(width, len(p)))


# A G_3 build whose chain inverses are wrong: maketrans with its arguments
# swapped returns the element itself, not its inverse.
BROKEN_INVERSE_BUILD = """
from hanoikernel import permgroup as pg, words
from hanoikernel.automorphism import leaf_permutation
pg._inv = lambda p: bytes.maketrans(pg._BYTES_IDENTITY, p)
gens = [leaf_permutation(words.evaluate(x, 3), 3) for x in "abc"]
print(pg.PermGroup(27, gens).order())
"""


def test_broken_chain_fails_instead_of_hanging():
    src = os.path.dirname(os.path.dirname(pg.__file__))
    result = subprocess.run(
        [sys.executable, "-c", BROKEN_INVERSE_BUILD],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert result.returncode == 1
    assert "AssertionError: chain of degree 27 needs more than 27 levels" in result.stderr
    assert result.stdout == ""


# -- membership: a finished chain sifts through every level ------------------


def test_orbit_rejects_points_outside_the_degree():
    gens = [Perm.transposition(4, 1, 2)]
    assert pg.orbit(4, gens, 1) == [1, 2]
    assert pg.orbit(4, gens, 4) == [4]
    for point in (-1, 0, 5, 9):
        with pytest.raises(ValueError, match=f"point {point} outside 1..4"):
            pg.orbit(4, gens, point)


def test_orbit_rejects_generators_of_another_degree():
    """A larger generator would carry the orbit past the degree, a smaller
    one would be indexed past its images."""
    with pytest.raises(ShapeError, match="generator degree 4 != 3"):
        pg.orbit(3, [Perm([1, 2, 3, 0])], 1)
    with pytest.raises(ShapeError, match="generator degree 2 != 3"):
        pg.orbit(3, [Perm.identity(3), Perm([1, 0])], 3)


def reference_sift(chain, p, start=0):
    """The level-by-level sift: (residue, stuck level index)."""
    for i, level in enumerate(chain.levels[start:], start):
        point = p[level.base]
        if point == level.base:
            continue
        u_inv = level.inverse_transversal.get(point)
        if u_inv is None:
            return p, i
        p = chain.mult(p, u_inv)
    return p, len(chain.levels)


def base_fixing_swap(chain):
    """A transposition of two leaves that are neither a leaf base nor the
    first leaf of a vertex, from which _pack reads the vertex's image. For t
    of it and p of the group, t * p strips like p through every level and
    leaves t: a non-member that no level stops."""
    bases = {level.base for level in chain.levels}
    if chain.block:
        bases.update(range(0, chain.degree, chain.block))
    i, j = [x for x in range(chain.degree) if x not in bases][-2:]
    return Perm.transposition(chain.degree, i + 1, j + 1)


def level2_block_swap(depth, v, w):
    """Swap the leaves of level-2 vertices v and w in order, fixing the
    rest."""
    size = 3 ** (depth - 2)
    images = list(range(3**depth))
    vs, ws = slice(v * size, (v + 1) * size), slice(w * size, (w + 1) * size)
    images[vs], images[ws] = images[ws], images[vs]
    return Perm(images)


def membership_queries(group, depth, rng, count):
    """Seeded members, members times a child swap, and members after a
    base-fixing swap."""
    swap = base_fixing_swap(group._chain)
    members = random_words(group, rng, count)
    return (
        members
        + [p * child_swap(depth, rng) for p in members]
        + [swap * p for p in members[: count // 4]]
    )


def assert_contains_decides(chain, queries, truth):
    """contains against the full sift from level 0, the level-by-level sift
    from every level, and the truth."""
    answers = []
    for q in queries:
        p = chain._pack(q.images)
        full, stuck = chain.sift(p)
        assert (full, stuck) == reference_sift(chain, p)
        for start in (1, chain.vertices, chain.vertices + 1, len(chain.levels) - 1):
            assert chain.sift(p, start) == reference_sift(chain, p, start)
        answer = chain.contains(q.images)
        assert answer == (full == chain.identity) == truth(q)
        answers.append(answer)
    # both answers occur, and some non-member gets through every level
    assert True in answers and False in answers
    swap = base_fixing_swap(chain)
    assert chain.sift(chain._pack(swap.images)) == (
        chain._pack(swap.images), len(chain.levels)
    )
    assert not chain.contains(swap.images)


def test_contains_matches_enumeration_on_both_chains():
    depth = 2
    gens = quotient_group(depth).generators
    elements = _brute.closure([g.images for g in gens])
    for group in (pg.tree_group(depth, gens), pg.PermGroup(3**depth, gens)):
        rng = random.Random(depth)
        queries = membership_queries(group, depth, rng, 40)
        queries += [Perm(e) for e in sorted(elements)[::7]]
        assert_contains_decides(
            group._chain, queries, lambda q: q.images in elements
        )


@pytest.mark.parametrize("depth", [3, 4, 5])
def test_contains_matches_branch_membership(depth):
    """G_N on its vertex-prefixed chain and on a leaf-only chain, against
    branch.contains, which reads depth-2 patterns and builds no chain. From
    depth 4 the vertex prefix is level 2, whose vertex 2 has a one-point
    orbit once vertices 0 and 1 are fixed: a swap of level-2 blocks 2 and 3,
    under different parents, is no tree automorphism, and the sift stops
    there."""
    gens = quotient_group(depth).generators
    groups = [pg.tree_group(depth, gens)]
    if depth < 5:
        groups.append(pg.PermGroup(3**depth, gens))
    for group in groups:
        rng = random.Random(depth)
        queries = membership_queries(group, depth, rng, 24)
        assert_contains_decides(
            group._chain, queries, lambda q: branch.contains(q.images, depth)
        )
    if depth >= 4:
        chain = groups[0]._chain
        assert len(chain.levels[2].inverse_transversal) == 1
        swap = level2_block_swap(depth, 2, 3)
        packed = chain._pack(swap.images)
        assert [packed[chain.degree + v] for v in range(4)] == [
            chain.degree + v for v in (0, 1, 3, 2)
        ]
        assert chain.sift(packed) == (packed, 2)
        assert not chain.contains(swap.images)


def test_contains_sifts_every_level_of_g5(caplog):
    gens = quotient_group(5).generators
    with caplog.at_level("INFO", logger="hanoikernel.permgroup"):
        chain = pg.tree_group(5, gens)._chain
    assert "degree=243 gens=3 " in caplog.text
    assert "levels=144 vertices=9 " in caplog.text
    # the masks settle 8,808 of the 12,676 formed pairs as a level's whole
    assert "schreier=12676 skipped=9542 sifted=2296 strong=183 settled=8808" in caplog.text
    vertices = chain.levels[: chain.vertices]
    orbits = [len(level.inverse_transversal) for level in vertices]
    assert (len(chain.levels), chain.vertices, orbits.count(1)) == (144, 9, 4)
    # the steps share the levels' inverse transversals
    assert all(
        step[1] is level.inverse_transversal
        for step, level in zip(chain._steps, chain.levels, strict=True)
    )


def test_commands_never_call_contains(monkeypatch, capsys):
    """The commands read orders off their chains and answer no membership
    query: the kernel report, the Q table, every lemma at depth 4, the
    relator checks and the benchmark's four commands run, with fresh
    caches, while a chain's contains raises."""

    def refuse(self, images):
        raise AssertionError("a command called _Chain.contains")

    monkeypatch.setattr(pg._Chain, "contains", refuse)
    monkeypatch.setattr(analysis, "_quotients", {})
    monkeypatch.setattr(analysis, "_derived", {})
    assert analysis.kernel_report(3, 5).passed
    for (n, _), order in analysis.q_table(2, 4).items():
        assert order == analysis.q_expected(n)
    for lemma in analysis.LEMMA_IDS:
        assert analysis.verify_lemma(lemma, 4).passed
    for base, n in words.relator_family(4).values():
        assert words.check_relator(base, 4, n)
    # the G'_k chains were built here, not read from a cache
    assert analysis._derived
    with open(os.path.join(GOLDEN, "exit_codes.json")) as handle:
        codes = json.load(handle)
    for name, argv in GOLDEN_COMMANDS.items():
        analysis.clear_caches()
        assert cli.main(list(argv)) == codes[name]
        with open(os.path.join(GOLDEN, f"{name}.stdout")) as handle:
            assert capsys.readouterr().out == handle.read()


# G'_k's chain from the ten Gamma' words: its enlarging generators and
# levels schreier skipped sifted strong settled
DERIVED_CHAINS = {
    1: (1, "levels=1 vertices=0 schreier=3 skipped=0 sifted=0 strong=1 settled=0"),
    2: (2, "levels=5 vertices=0 schreier=38 skipped=9 sifted=11 strong=5 settled=3"),
    3: (2, "levels=15 vertices=0 schreier=374 skipped=177 sifted=115 strong=18 settled=142"),
    4: (2, "levels=45 vertices=0 schreier=2864 skipped=1900 sifted=636 strong=56 settled=1681"),
    5: (2, "levels=135 vertices=0 schreier=20037 skipped=15399 sifted=3407 strong=182 settled=14012"),
}


def test_derived_subgroup_chains_log_their_counters(caplog, monkeypatch):
    """The package's G'_1 to G'_5, built afresh, log the same chains: every
    counter, and gens=10, the Gamma' words given, of which the enlarging
    ones are the group's generators."""
    monkeypatch.setattr(analysis, "_derived", {})
    for k, (enlarging, counters) in DERIVED_CHAINS.items():
        caplog.clear()
        with caplog.at_level("INFO", logger="hanoikernel.permgroup"):
            group = analysis._derived_subgroup(k)
        (line,) = [r.getMessage() for r in caplog.records if r.name == "hanoikernel.permgroup"]
        order = branch.orders(k)[1]
        assert line == f"built chain: degree={3**k} gens=10 order={order} {counters}"
        assert len(group.generators) == enlarging


def test_contains_with_forced_leaf_bases():
    """Leaves opened as the first levels: after leaves 0 and 1 the group
    fixes their sibling 2, so that level has an orbit of one point. The
    pointwise_stabilizer oracle opens its chain's first levels the same
    way."""
    g = quotient_group(3)
    chain = pg._Chain(27)
    for point in (0, 1, 2, 13):
        chain._new_level(point)
    for gen in g.generators:
        chain.add_generator(gen.images)
    chain._finish()
    assert [base for base, _ in chain._steps[:4]] == [0, 1, 2, 13]
    orbits = [len(level.inverse_transversal) for level in chain.levels]
    assert orbits[2] == orbits.count(1) == 1
    assert_chain_is_bsgs(chain)
    rng = random.Random(13)
    queries = membership_queries(g, 3, rng, 24)
    assert_contains_decides(chain, queries, lambda q: branch.contains(q.images, 3))
    tail = oracles.pointwise_stabilizer(g, [1, 2, 3, 14])
    fixes = lambda q: all(q.images[x] == x for x in (0, 1, 2, 13))
    for q in queries + random_words(tail, rng, 12):
        assert tail.contains(q) == (branch.contains(q.images, 3) and fixes(q))


def test_benchmark_sift_pass_answers_its_queries(tmp_path):
    """bench/child.py's sift pass, run as the benchmark runs it, on this
    source tree: |G_5| and the answers to 40 of bench/queries.py's seeded
    queries, whose truth that module computes without the package."""
    spec = importlib.util.spec_from_file_location(
        "bench_queries", os.path.join(BENCH, "queries.py")
    )
    queries = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(queries)
    pairs = queries.make_queries(1, 40, 5)
    query_file = tmp_path / "queries.json"
    query_file.write_text(json.dumps([list(p) for p, _ in pairs]))
    src = os.path.dirname(os.path.dirname(pg.__file__))
    result = subprocess.run(
        [sys.executable, os.path.join(BENCH, "child.py"), "sift", str(query_file)],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1"),
    )
    assert result.returncode == 0, result.stderr
    out = json.loads(result.stdout)
    assert out["order"] == 2**81 * 3**121
    assert out["answers"] == [truth for _, truth in pairs]
    assert True in out["answers"] and False in out["answers"]
