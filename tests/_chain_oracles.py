"""Stabilizer chains, kept as oracles for the chain-free paths.

The package reads |Stab(n)|, |Q(n,N)| and the elementary-abelian flags off
the branch recursion for |G_N| and |G'_N| and tests membership in G_N by
depth-2 patterns (hanoikernel.branch); it builds no chain for G_N or for
Stab(n), and it reads |Rist(n)| as |G'_k|^(3^n), k = N - n, with G'_k
generated by the images of fixed words for Gamma', and builds no group for
Rist(n) itself. The functions here answer the same questions from chains:
by the orders of the G_N, G_n and G'_k chains, the order of a chain of the
Rist(n) image, and sifting into G_N, and by index and sifting in a Stab(n)
chain whose first bases are the level-n vertices as points. The package's
chains have leaves as points only; the vertex points live here:
with_vertex_points appends a leaf permutation's level-n vertex images to
its leaf images, and vertex_chain opens the vertex points as a chain's
first levels, as pointwise_stabilizer opens its points. Each takes
the Rist(n) image (rist_image) as `rist`, so that a caller builds its
chain, at degree 3^N, once for all of them. rist_copies_in_stab is the
per-copy containment by branch.contains at degree 3^N, on every copy that
rist_copies builds, which the package decides once per k on three level-1
copies in G_(k+1).

They also hold the chain routines that only tests use: the derived subgroup
as the normal closure of the commutators of the generators, which needs no
words for Gamma'; pointwise stabilizers, from the strong generators behind
a chain's first bases, run afresh through Schreier-Sims; the strong
generators of a chain level and the images of a chain element; subgroup
equality; triviality; direct powers, block by block, of which the Rist(n)
image is one; and a vertex's section as the group of its stabilizer words'
states, whose chain gives the order that the package reads off the branch
recursion once those states include a, b and c.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Sequence

from hanoikernel import analysis, branch, permgroup, words
from hanoikernel.automorphism import leaf_permutation, state_at
from hanoikernel.errors import DepthError, NotASubgroupError, ShapeError
from hanoikernel.perm import Perm
from hanoikernel.permgroup import PermGroup


def is_trivial(group: PermGroup) -> bool:
    """Whether the group has no generator; PermGroup drops identities."""
    return not group.generators


def unpack(chain: permgroup._Chain, p) -> tuple[int, ...]:
    """A chain element's images, sliced to the chain's degree: an element of
    a chain of degree up to 256 is padded bytes."""
    return tuple(p[: chain.degree])


def strong_generators(chain: permgroup._Chain, start: int = 0) -> list[tuple[int, ...]]:
    """Image tuples of the generators of the pointwise stabilizer of the
    chain's first `start` bases: levels[start].gens is exactly the strong
    generators fixing the bases of all shallower levels."""
    if start >= len(chain.levels):
        return []
    return [unpack(chain, g) for g in chain.levels[start].gens]


def same_subgroup_as(group: PermGroup, other: PermGroup) -> bool:
    """Equality as subgroups of the symmetric group on the same points."""
    if group.degree != other.degree:
        raise ShapeError("degree mismatch")
    return (
        all(group.contains(g) for g in other.generators)
        and group.order() == other.order()
    )


def normal_closure(group: PermGroup, seeds: Sequence[Perm]) -> PermGroup:
    """Smallest normal subgroup of the group containing the seeds."""
    for s in seeds:
        if not group.contains(s):
            raise NotASubgroupError(f"seed {s!r} lies outside the group")
    # looked up on the module, so that a test may swap the chain class
    chain = permgroup._Chain(group.degree)
    gens: list[Perm] = []
    queue = deque(s for s in seeds if not s.is_identity())
    conjugators = [(g.inverse(), g) for g in group.generators]
    while queue:
        candidate = queue.popleft()
        if not chain.add_generator(candidate.images):
            continue
        gens.append(candidate)
        for g_inv, g in conjugators:
            queue.append(g_inv * candidate * g)
    # each of gens enlarged the chain, so the new group keeps them all
    return PermGroup(group.degree, gens)


def derived_subgroup(group: PermGroup) -> PermGroup:
    """Normal closure of the commutators of the generators."""
    gens = group.generators
    seeds = [
        branch.perm_commutator(gens[i], gens[j])
        for i in range(len(gens))
        for j in range(i + 1, len(gens))
    ]
    return normal_closure(group, seeds)


def forced_chain(
    degree: int, bases: Iterable[int], generators: Iterable[Sequence[int]]
) -> permgroup._Chain:
    """A finished chain on `degree` points whose first bases are the given
    points, opened as levels before any generator, and then Schreier-Sims on
    the generators' image tuples."""
    # looked up on the module, so that a test may swap the chain class
    chain = permgroup._Chain(degree)
    for base in bases:
        chain._new_level(base)
    for images in generators:
        chain.add_generator(images)
    return chain._finish()


def stabilizer_tail(chain: permgroup._Chain, prefix: int, degree: int) -> PermGroup:
    """Subgroup fixing the bases of the chain's first `prefix` levels: the
    strong generators behind them, cut to their images of the points
    0..degree-1, which they map among themselves. Its own chain comes from
    a fresh Schreier-Sims run."""
    gens = [Perm(t[:degree]) for t in strong_generators(chain, prefix)]
    return PermGroup(degree, gens)


def pointwise_stabilizer(group: PermGroup, points: Sequence[int]) -> PermGroup:
    """Subgroup fixing every listed 1-based point: the tail of a chain whose
    first bases are those points."""
    # each point once: a repeated one would open a second level for it
    zero_based = dict.fromkeys(p - 1 for p in points)
    for p in zero_based:
        if not 0 <= p < group.degree:
            raise ShapeError(f"point outside 1..{group.degree}")
    gens = (g.images for g in group.generators)
    chain = forced_chain(group.degree, zero_based, gens)
    return stabilizer_tail(chain, len(zero_based), group.degree)


def block_size(degree: int, n: int) -> int:
    """Leaves per level-n vertex of the ternary tree with `degree` leaves."""
    total = 1
    big_n = 0
    while total < degree:
        total *= 3
        big_n += 1
    if total != degree:
        raise ShapeError(f"degree {degree} is not a power of 3")
    if not 0 <= n <= big_n:
        raise ShapeError(f"level {n} outside 0..{big_n}")
    return 3 ** (big_n - n)


def check_blocks(generators: Iterable[Perm], size: int) -> None:
    """Raise ValueError unless every generator maps each block of `size`
    consecutive points onto a block."""
    for g in generators:
        for start in range(0, g.degree, size):
            if len({x // size for x in g.data[start : start + size]}) != 1:
                raise ValueError(
                    f"generator {g!r} splits block {start // size + 1} of size {size}"
                )


def with_vertex_points(images: Sequence[int], n: int) -> tuple[int, ...]:
    """The leaf images of a permutation of the 3^N lex-indexed leaves, then
    the level-n vertices as points: vertex v, the block of 3^(N-n) leaves
    from leaf v*3^(N-n), is point 3^N + v, and its image is the vertex of
    the image of its first leaf. For a tree automorphism that is the image
    of the whole block."""
    degree = len(images)
    size = block_size(degree, n)
    return tuple(images) + tuple(degree + x // size for x in images[::size])


def vertex_chain(group: PermGroup, n: int) -> permgroup._Chain:
    """The finished chain of the group on its 3^N leaves and its 3^n
    level-n vertex points (with_vertex_points), whose first bases are the
    vertex points. Every generator must map the level-n blocks to blocks,
    since a vertex's image is read off its first leaf."""
    size = block_size(group.degree, n)
    check_blocks(group.generators, size)
    points = range(group.degree, group.degree + 3**n)
    gens = (with_vertex_points(g.images, n) for g in group.generators)
    return forced_chain(group.degree + 3**n, points, gens)


def kernel_of_level_action(group: PermGroup, n: int) -> PermGroup:
    """Kernel of the induced action on the level-n vertices.

    The group must act on 3**N points, lex-indexed leaves, so level-n
    vertex v is the block of 3**(N-n) consecutive leaves from leaf
    v*3**(N-n), and every generator must map blocks to blocks. The
    kernel is the pointwise stabilizer of the vertex points of the
    vertex chain (stabilizer_tail).
    """
    size = block_size(group.degree, n)
    if n == 0:
        return group
    if size == 1:
        return PermGroup(group.degree)
    return stabilizer_tail(vertex_chain(group, n), 3**n, group.degree)


def embed_in_block(p: Perm, block: int, block_count: int) -> Perm:
    """p on block `block` (0-based) of block_count consecutive blocks of
    p.degree points, and the identity on the others."""
    size = p.degree
    images = list(range(size * block_count))
    images[block * size : (block + 1) * size] = [block * size + x for x in p.images]
    return Perm(images)


def direct_power(group: PermGroup, count: int) -> PermGroup:
    """`count` copies of the group, copy b on block b of `count` consecutive
    blocks of group.degree points, generated by the copies of its
    generators; its chain comes from Schreier-Sims on the copies."""
    gens = [
        embed_in_block(g, block, count)
        for block in range(count)
        for g in group.generators
    ]
    return PermGroup(group.degree * count, gens)


def rist_image(depth: int, n: int) -> PermGroup:
    """The image of Rist(n) in G_N: a copy of the package's G'_k, k = N - n
    (analysis._derived_subgroup), on each level-n block. Its order is read
    off a fresh chain at degree 3^N."""
    return direct_power(analysis._derived_subgroup(depth - n), 3**n)


def stab(quotient: analysis.TruncatedQuotient, n: int) -> PermGroup:
    """Image of the level-n stabilizer: the kernel of the level-n action."""
    if not 0 <= n <= quotient.depth:
        raise DepthError(f"level {n} outside 0..{quotient.depth}")
    return kernel_of_level_action(quotient.group, n)


def subgroup_index(group: PermGroup, subgroup: PermGroup) -> int:
    """Index of a verified subgroup; exact integer."""
    if subgroup.degree != group.degree:
        raise ShapeError("degree mismatch")
    for g in subgroup.generators:
        if not group.contains(g):
            raise NotASubgroupError(f"generator {g!r} lies outside the group")
    quotient, remainder = divmod(group.order(), subgroup.order())
    if remainder:
        raise AssertionError("subgroup order does not divide group order")
    return quotient


def q_order(quotient: analysis.TruncatedQuotient, n: int, rist: PermGroup) -> int:
    """|Q(n,N)| as the index of the rigid-stabilizer image in Stab(n)."""
    return subgroup_index(stab(quotient, n), rist)


def elementary_abelian_quotient(
    quotient: analysis.TruncatedQuotient, n: int, rist: PermGroup
) -> bool:
    """Whether Stab(n) is elementary abelian 2 over the rigid-stabilizer
    image: the squares and commutators of the Stab(n) generators outside
    the rigid-stabilizer image sift in."""
    stabilizer = stab(quotient, n)
    # Rist(n) is normal in Stab(n), which the quotient already needs to be
    # a group. So a generator inside Rist(n) is trivial in the quotient,
    # and the others still generate it.
    gens = [g for g in stabilizer.generators if not rist.contains(g)]
    inverses = [g.inverse() for g in gens]
    for i, g in enumerate(gens):
        if not rist.contains(g * g):
            return False
        for h, h_inv in zip(gens[i + 1 :], inverses[i + 1 :]):
            if not rist.contains(inverses[i] * h_inv * g * h):
                return False
    return True


def rist_in_stab(quotient: analysis.TruncatedQuotient, n: int, rist: PermGroup) -> bool:
    """Whether every rigid-stabilizer generator fixes level n and sifts into
    the G_N chain."""
    size = 3 ** (quotient.depth - n)
    return all(
        all(g.data[v * size] // size == v for v in range(3**n))
        and quotient.group.contains(g)
        for g in rist.generators
    )


def rist_copies(depth: int, n: int) -> list[tuple[int, ...]]:
    """The leaf images of Rist(n)'s generators in G_N: each generator of the
    package's G'_k, k = N - n, on each level-n block v in 0..3^n - 1, and the
    identity on every other leaf."""
    factor = analysis._derived_subgroup(depth - n).generators
    return [embed_in_block(g, v, 3**n).images for v in range(3**n) for g in factor]


def rist_copies_in_stab(depth: int, n: int) -> bool:
    """Whether every copy of every G'_k generator, k = N - n, on every
    level-n vertex fixes level n and lies in G_N by branch.contains at
    degree 3^N: the per-copy check that the package decides on the three
    level-1 copies in G_(k+1)."""
    size = 3 ** (depth - n)
    return all(
        all(g[v * size] // size == v for v in range(3**n))
        and branch.contains(g, depth)
        for g in rist_copies(depth, n)
    )


def chain_q_order(quotient: analysis.TruncatedQuotient, n: int, rist: PermGroup) -> int:
    """|Q(n,N)| = |G_N| / (|G_n| |Rist(n)|) from chain orders, after the
    containment by sifting."""
    if not rist_in_stab(quotient, n, rist):
        raise NotASubgroupError(f"Rist({n}) of G_{quotient.depth} is not inside Stab({n})")
    lower = analysis.build_quotient(n, slow=True).group.order()
    index, remainder = divmod(quotient.group.order(), lower * rist.order())
    if remainder:
        raise AssertionError("|G_n| |Rist(n)| does not divide |G_N|")
    return index


def chain_elementary_abelian_quotient(
    quotient: analysis.TruncatedQuotient, n: int, rist: PermGroup
) -> bool:
    """The containment by sifting, and |Rist(n)| from the chain of the
    image equal to |G'_k|^(3^n) with |G'_k| from the chain of the normal
    closure of the commutators of G_k's generators, k = N - n."""
    inner = derived_subgroup(analysis.build_quotient(quotient.depth - n, slow=True).group)
    return rist_in_stab(quotient, n, rist) and rist.order() == inner.order() ** (3**n)


def vertex_section(vertex: tuple[int, ...], depth: int) -> PermGroup:
    """The states at the vertex of the elements of G_depth that fix it, as
    permutations of its leaves: taking the state is a homomorphism on the
    vertex's stabilizer in G, so the states of Reidemeister-Schreier words
    for that stabilizer generate them."""
    stabilizer_words, _ = words.schreier_generators(
        list(words.ALPHABET), words.vertex_image, vertex
    )
    below = depth - len(vertex)
    states = [
        leaf_permutation(state_at(words.evaluate(w, depth), vertex), below)
        for w in stabilizer_words
    ]
    return PermGroup(3**below, states)
