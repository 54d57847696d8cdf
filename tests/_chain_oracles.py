"""Stabilizer chains, kept as oracles for the chain-free paths.

The package reads |Stab(n)|, |Q(n,N)| and the elementary-abelian flags off
the branch recursion for |G_N| and |G'_N| and tests membership in G_N by
depth-2 patterns (hanoikernel.branch); it builds no chain for G_N or for
Stab(n), and it reads |Rist(n)| as |G'_k|^(3^n), k = N - n, with G'_k
generated by the images of fixed words for Gamma'. The functions here
answer the same questions from chains: by the orders of the G_N, G_n and
G'_k chains, the order of a chain of the Rist(n) image, and sifting into
G_N, and by index and sifting in a Stab(n) chain with the level-n vertices
forced to the front of the base. Each takes the Rist(n) image as `rist`, so
that a caller builds its chain, at degree 3^N, once for all of them.

They also hold the chain routines that only tests use: the derived subgroup
as the normal closure of the commutators of the generators, which needs no
words for Gamma'; pointwise stabilizers, from the strong generators behind
a forced base prefix, run afresh through Schreier-Sims; the strong
generators of a chain level; subgroup equality; and triviality.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence

from hanoikernel import analysis, branch, permgroup
from hanoikernel.errors import DepthError, NotASubgroupError, ShapeError
from hanoikernel.perm import Perm
from hanoikernel.permgroup import PermGroup


def is_trivial(group: PermGroup) -> bool:
    """Whether the group has no generator; PermGroup drops identities."""
    return not group.generators


def strong_generators(chain: permgroup._Chain, start: int = 0) -> list[tuple[int, ...]]:
    """Image tuples of the generators of the pointwise stabilizer of the
    chain's first `start` bases: levels[start].gens is exactly the strong
    generators fixing the bases of all shallower levels."""
    if start >= len(chain.levels):
        return []
    return [chain.unpack(g) for g in chain.levels[start].gens]


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
    return PermGroup(group.degree, gens, _chain=chain._finish())


def derived_subgroup(group: PermGroup) -> PermGroup:
    """Normal closure of the commutators of the generators."""
    gens = group.generators
    seeds = [
        branch.perm_commutator(gens[i], gens[j])
        for i in range(len(gens))
        for j in range(i + 1, len(gens))
    ]
    return normal_closure(group, seeds)


def forced_base_tail(group: PermGroup, bases: Sequence[int], size: int) -> PermGroup:
    """Subgroup fixing every listed 0-based vertex of `size` leaves: the
    strong generators behind those vertices, forced to the front of a
    chain's base. Its own chain comes from a fresh Schreier-Sims run."""
    chain, _ = permgroup._build_chain(
        permgroup._Chain(group.degree, bases, size), group.generators
    )
    gens = [Perm(t) for t in strong_generators(chain, chain.forced)]
    return PermGroup(group.degree, gens)


def pointwise_stabilizer(group: PermGroup, points: Sequence[int]) -> PermGroup:
    """Subgroup fixing every listed 1-based point."""
    zero_based = [p - 1 for p in points]
    for p in zero_based:
        if not 0 <= p < group.degree:
            raise ShapeError(f"point outside 1..{group.degree}")
    return forced_base_tail(group, zero_based, 1)


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


def kernel_of_level_action(group: PermGroup, n: int) -> PermGroup:
    """Kernel of the induced action on the level-n vertices.

    The group must act on 3**N points, lex-indexed leaves, so level-n
    vertex v is the block of 3**(N-n) consecutive leaves from leaf
    v*3**(N-n), and every generator must map blocks to blocks. The
    kernel is the pointwise stabilizer of the level-n vertices
    (forced_base_tail).
    """
    size = block_size(group.degree, n)
    if n == 0:
        return group
    if size == 1:
        return PermGroup(group.degree)
    permgroup._check_blocks(group, size)
    return forced_base_tail(group, range(3**n), size)


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
        all(g.images[v * size] // size == v for v in range(3**n))
        and quotient.group.contains(g)
        for g in rist.generators
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
