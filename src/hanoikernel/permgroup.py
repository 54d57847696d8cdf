"""Permutation groups via deterministic Schreier-Sims stabilizer chains.

Orders are exact big integers; membership is by sifting. Base points can be
forced to the front of the base. A forced base point may be a tree vertex,
the block of `size` consecutive leaves starting at leaf v*size, whose image
under a leaf permutation p is p[v*size] // size. tree_group forces the 3^k
vertices of level k = N // 2
of a group on 3^N leaves: their orbit has at most 3^k points, and a leaf
orbit inside the level-k stabilizer stays in one block of 3^(N-k) leaves,
where a leaf-only base starts with an orbit of all 3^N leaves. That halves
the chain-build time of G_5 and G_6. A sift pays for it: sifting a member
of G_5 takes about 53 products against 25 through a leaf-only chain, and
about 23-32 against 15-19 us, while the build takes 17-22 against 34-44 ms
(the 1000 members among 2000 seeded sift-d5 queries, in-process, each
round building and sifting through both chains, 2-vCPU VM; the host's
speed varied between runs, the ratios less). The build saving outweighs
the sifts up to about 1200-3000 member sifts per chain (the interquartile
range over 42 rounds), more than the 1000 of the sift-d5 benchmark, so the
prefix is kept.

A chain stores its permutations in an encoding chosen from its degree, so
that a product is one C call. Up to degree 256 an element is a bytes object
padded with fixed points to length 256, and p then q is p.translate(q);
above 256 it is a tuple, and p then q is operator.itemgetter(*p)(q). Both
are sequences of ints, so the algorithm reads them alike. Perm images are
packed where they enter a chain and unpacked, sliced to the degree, where
chain data leaves as a Perm; the encoding never leaves this module. A bytes
element is inverted by bytes.maketrans(p, identity), one C call; a tuple by
a Python loop, which beat sorted, map and itemgetter at degree 729.

Schreier-Sims skips the sift of a Schreier generator that equals its strong
generator s: s then fixes the level's base, so it is a strong generator of
the next level too, and it sifts to the identity there (_Chain._drain has
the proof). The chain is the same with or without the skip; in the depth-5
kernel report it removes about nine in ten sifts. The pair of a level's
base and a new strong generator that fixes it always forms that generator,
so _adjoin does not queue it and counts it as formed and skipped.

A level settles all of a new strong generator's pairs at once when the
generator moves none of the points its transversal elements move; each
level keeps those points as one int (_support). Let _adjoin(h, lo, hi) put h
on a level l < hi, so that h fixes the level's base, and let h miss them.
The transversal element u_pt maps the base to pt, so for pt other than the
base it moves pt; so h fixes every orbit point and the orbit cannot grow.
h and u_pt move disjoint sets of points, so they commute, and the pair
(pt, h) forms u_pt h u_pt^-1 = h, the generator that _drain skips. So
_adjoin counts each of the level's pairs with h as formed and skipped, as
it does the base pair, queues none of them and leaves the orbit as it is;
the chain and its counters stay the same. At a vertex base, u_pt maps the
base's leaves onto pt's, so it moves all of them, and h fixes the vertex pt
leaf by leaf. A level at hi is never settled: h moves its base. In the G_5
build the levels settle 8,808 of the 12,676 pairs formed (`settled` in the
build log line).

A chain that would need more levels than its degree allows raises
AssertionError: only broken invariants get there, and without the check
they loop forever.
"""

from __future__ import annotations

import logging
import sys
from collections import deque
from functools import partial
from operator import itemgetter
from typing import Callable, Iterable, Sequence

from .errors import InvalidBlocksError, ShapeError
from .perm import Perm

logger = logging.getLogger(__name__)

_Tuple = tuple[int, ...]
# a chain element: padded bytes up to degree _BYTES_MAX, a tuple above
_Elem = bytes | _Tuple

_BYTES_MAX = 256
_BYTES_IDENTITY = bytes(range(_BYTES_MAX))


def _pack(images: Iterable[int], degree: int) -> _Elem:
    if degree <= _BYTES_MAX:
        # bytearray() reads a tuple faster than bytes() does at degree 243
        return bytes(bytearray(images)) + _BYTES_IDENTITY[degree:]
    return tuple(images)


def _mult_tuples(p: _Tuple, q: _Tuple) -> _Tuple:
    """Apply p, then q; p has at least two points."""
    return itemgetter(*p)(q)


def _support(identity: _Elem) -> Callable[[_Elem], int]:
    """The function giving the points an element of the identity's encoding
    moves, as an int with one lane of bits per point and the lane's low bit
    set where the element moves it. A lane is a byte of a bytes element and
    an item of a tuple's array("I") form, read in the machine's byte order.
    XOR with the identity leaves a lane nonzero exactly where the element
    moves the point, and the shifts fold each lane down to its low bit,
    which the mask keeps. Two elements of one chain move a common point
    exactly when their ints share a bit."""
    if type(identity) is bytes:
        encode = bytes
    else:
        # array is loaded from a shared library; only tuple chains need it
        from array import array

        encode = partial(array, "I")
    ones = encode([1] * len(identity))
    lane = 8 * memoryview(ones).itemsize
    shifts = [lane >> k for k in range(1, lane.bit_length())]
    fixed = int.from_bytes(encode(identity), sys.byteorder)
    low = int.from_bytes(ones, sys.byteorder)

    def moved(p: _Elem) -> int:
        x = int.from_bytes(encode(p), sys.byteorder) ^ fixed
        for shift in shifts:
            x |= x >> shift
        return x & low

    return moved


def _inv(p: _Elem) -> _Elem:
    if type(p) is bytes:
        # the table that maps p[i] to i; p is padded, so it is all of it
        return bytes.maketrans(p, _BYTES_IDENTITY)
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return type(p)(out)


class _Level:
    __slots__ = (
        "base", "size", "gens", "transversal", "inverse_transversal", "moved"
    )

    def __init__(self, base: int, identity: _Elem, size: int = 1):
        # the base is vertex `base` of `size` leaves; a leaf has size 1, and
        # the transversals are keyed by vertices of that size
        self.base = base
        self.size = size
        # All strong generators fixing the bases of the shallower levels;
        # the orbit of this level's base is computed under exactly this set.
        self.gens: list[_Elem] = []
        # Only a growing chain reads the forward transversal; a finished
        # one keeps the inverses, which sift reads, and drops it (_finish).
        self.transversal: dict[int, _Elem] | None = {base: identity}
        self.inverse_transversal: dict[int, _Elem] = {base: identity}
        # the points the transversal elements move, as _support gives them;
        # a growing chain reads it, and _finish drops it
        self.moved: int | None = 0


class _Chain:
    """Incremental deterministic Schreier-Sims.

    After every completed add_generator call the structure is a verified
    base and strong generating set for everything added so far: at each
    level, every Schreier generator of the base orbit sifts to the identity
    through the deeper levels.

    The forced bases are vertices of one block size, which every generator
    must map to vertices of that size; every other level has a leaf as base.
    add_generator and contains take image tuples of length `degree`;
    everything else holds the encoding of the module docstring.

    sift reads each level as one flat step that shares the level's inverse
    transversal: (first leaf, vertex, inverse transversal) for a forced
    level, whose base point under p is p[first leaf] // block size, and
    (leaf, inverse transversal) for the others. _finish keeps, as the
    member steps, the steps whose orbit has more than the base, and
    contains strips a finished chain's element through those alone. That
    decides membership: a level whose orbit is its base alone leaves an
    element that moves its base stuck, and the full sift stops there. Every
    deeper level fixes that base, as a vertex if it is one, so a residue
    that moves it moves it still after the deeper steps, and it never
    reaches the identity, which is the one comparison contains makes.
    """

    # Schreier generators formed, skipped as equal to their generator and
    # sifted, strong generators adjoined, and the formed and skipped pairs
    # that a level settled as a whole (_adjoin); read by the build log line
    formed = skipped = sifted = adjoined = settled = 0

    def __init__(
        self, degree: int, forced_base: Sequence[int] = (), block_size: int = 1
    ):
        self.degree = degree
        self.identity = _pack(range(degree), degree)
        # apply p, then q
        self.mult: Callable[[_Elem, _Elem], _Elem] = (
            bytes.translate if degree <= _BYTES_MAX else _mult_tuples
        )
        self.support = _support(self.identity)
        self.levels: list[_Level] = []
        self._pending: list[deque] = []
        self.block_size = block_size
        self._forced_steps: list[tuple[int, int, dict[int, _Elem]]] = []
        self._leaf_steps: list[tuple[int, dict[int, _Elem]]] = []
        # the forced and the leaf steps whose orbit has more than the base,
        # set by _finish; contains sifts through every level until then
        self._member_steps: tuple[list, list] | None = None
        self.forced = len(forced_base)
        for b in forced_base:
            self._new_level(b, block_size)

    def unpack(self, p: _Elem) -> _Tuple:
        return tuple(p[: self.degree])

    def order(self) -> int:
        n = 1
        for level in self.levels:
            n *= len(level.inverse_transversal)
        return n

    def sift(self, p: _Elem, start: int = 0) -> tuple[_Elem, int]:
        """Strip p through the levels from `start` on; returns (residue,
        stuck level index), the index len(levels) if p got through."""
        forced = self.forced
        forced_steps, leaf_steps = self._forced_steps, self._leaf_steps
        p, stuck = self._strip(
            p,
            forced_steps[start:] if start else forced_steps,
            leaf_steps[start - forced :] if start > forced else leaf_steps,
        )
        if stuck is None:
            return p, len(self.levels)
        return p, next(
            i for i, level in enumerate(self.levels)
            if level.inverse_transversal is stuck
        )

    def contains(self, images: _Tuple) -> bool:
        p = _pack(images, self.degree)
        if self._member_steps is None:
            residue, _ = self.sift(p)
        else:
            residue, _ = self._strip(p, *self._member_steps)
        return residue == self.identity

    def add_generator(self, images: _Tuple) -> bool:
        """Add a generator; returns False if it was already a member."""
        residue, stuck = self.sift(_pack(images, self.degree))
        if residue == self.identity:
            return False
        self._adjoin(residue, 0, stuck)
        self._drain()
        return True

    # -- internals ---------------------------------------------------------

    def _strip(
        self, p: _Elem, forced_steps: list, leaf_steps: list
    ) -> tuple[_Elem, dict[int, _Elem] | None]:
        """Strip p through the steps; returns the residue and the inverse
        transversal of the level it is stuck at, or None if it got through."""
        mult, size = self.mult, self.block_size
        for first, vertex, inverses in forced_steps:
            point = p[first] // size
            if point != vertex:
                u_inv = inverses.get(point)
                if u_inv is None:
                    return p, inverses
                p = mult(p, u_inv)
        for base, inverses in leaf_steps:
            point = p[base]
            if point != base:
                u_inv = inverses.get(point)
                if u_inv is None:
                    return p, inverses
                p = mult(p, u_inv)
        return p, None

    def _finish(self) -> "_Chain":
        """Drop the forward transversals and keep the member steps; no
        generator is added after this."""
        for level in self.levels:
            level.transversal = level.moved = None
        forced = [s for s in self._forced_steps if len(s[2]) > 1]
        leaves = [s for s in self._leaf_steps if len(s[1]) > 1]
        self._member_steps = (forced, leaves)
        # the levels contains walks; read by the build log line
        self.member_levels = len(forced) + len(leaves)
        return self

    def _new_level(self, base: int, size: int = 1) -> None:
        level = _Level(base, self.identity, size)
        if len(self.levels) < self.forced:
            self._forced_steps.append(
                (base * size, base, level.inverse_transversal)
            )
        else:
            self._leaf_steps.append((base, level.inverse_transversal))
        self.levels.append(level)
        self._pending.append(deque())

    def _adjoin(self, h: _Elem, lo: int, hi: int) -> None:
        """Install a new strong generator at levels lo..hi.

        h fixes the bases of levels < hi and moves level hi's base (or all
        existing bases when hi opens a new level), so it belongs to every
        stabilizer set from lo down to hi.
        """
        self.adjoined += 1
        moved = self.support(h)
        if hi == len(self.levels):
            # h fixes every base, so the point it first moves is a new one:
            # a chain has at most `degree` bases besides the forced ones. A
            # broken chain would open levels forever instead of failing.
            if hi - self.forced >= self.degree:
                raise AssertionError(
                    f"chain of degree {self.degree} needs more than"
                    f" {hi} levels; its invariants are broken"
                )
            base = next(i for i, j in enumerate(h) if i != j)
            self._new_level(base)
        for l in range(lo, hi + 1):
            level = self.levels[l]
            level.gens.append(h)
            if l < hi and not moved & level.moved:
                # h moves no point a transversal element moves, so each pair
                # (pt, h) forms h and the orbit stays (module docstring)
                pairs = len(level.transversal)
                self.formed += pairs
                self.skipped += pairs
                self.settled += pairs
                continue
            old_points = list(level.transversal)
            new_points = self._extend_orbit(level, h)
            queue = self._pending[l]
            # Below level hi, h fixes the level's base, so the pair
            # (base, h) forms identity * h * identity = h, which _drain
            # skips as equal to its generator. It is counted here instead
            # of queued.
            skip = None
            if l < hi:
                skip = level.base
                self.formed += 1
                self.skipped += 1
            for pt in old_points:
                if pt != skip:
                    queue.append((pt, h))
            for pt in new_points:
                for s in level.gens:
                    queue.append((pt, s))

    def _drain(self) -> None:
        """Process pending Schreier pairs, deepest level first."""
        identity, mult = self.identity, self.mult
        formed = skipped = sifted = 0
        while True:
            l = len(self.levels) - 1
            while l >= 0 and not self._pending[l]:
                l -= 1
            if l < 0:
                self.formed += formed
                self.skipped += skipped
                self.sifted += sifted
                return
            level = self.levels[l]
            size = level.size
            queue = self._pending[l]
            while queue:
                point, s = queue.popleft()
                u = level.transversal[point]
                image = s[point * size] // size
                schreier = mult(mult(u, s), level.inverse_transversal[image])
                formed += 1
                if schreier == identity:
                    continue
                # A Schreier generator equal to s sifts to the identity, so
                # it is skipped. _adjoin(h, lo, hi) installed s on levels
                # lo..hi, and h moves level hi's base. A Schreier generator
                # of level l fixes level l's base, so s does, so l < hi and
                # s is a generator of level l + 1 too. The deeper queues are
                # empty while level l drains, so levels l + 1.. are a base
                # and strong generating set of the group their generators
                # make, and s sifts through them to the identity.
                if schreier == s:
                    skipped += 1
                    continue
                sifted += 1
                residue, stuck = self.sift(schreier, l + 1)
                if residue != identity:
                    self._adjoin(residue, l + 1, stuck)
                    if stuck > l:
                        break  # drain the deeper levels before continuing
            # loop re-scans for the deepest pending level

    def _extend_orbit(self, level: _Level, gen: _Elem) -> list[int]:
        """Grow the orbit with one extra generator; returns new points."""
        new_points: list[int] = []
        size, mult, support = level.size, self.mult, self.support
        # The old orbit was closed under the old generators, so it suffices
        # to push the new generator across it and then close from new points.
        for point in list(level.transversal):
            image = gen[point * size] // size
            if image not in level.transversal:
                t = mult(level.transversal[point], gen)
                level.transversal[image] = t
                level.inverse_transversal[image] = _inv(t)
                level.moved |= support(t)
                new_points.append(image)
        queue = list(new_points)
        while queue:
            point = queue.pop()
            u = level.transversal[point]
            for g in level.gens:
                image = g[point * size] // size
                if image not in level.transversal:
                    t = mult(u, g)
                    level.transversal[image] = t
                    level.inverse_transversal[image] = _inv(t)
                    level.moved |= support(t)
                    new_points.append(image)
                    queue.append(image)
        return new_points


class PermGroup:
    """A permutation group on 1..degree with a lazily built stabilizer chain."""

    def __init__(
        self,
        degree: int,
        generators: Iterable[Perm] = (),
        _chain: "_Chain | None" = None,
        _make_chain: "Callable[[], _Chain] | None" = None,
    ):
        gens: list[Perm] = []
        seen: set[_Tuple] = set()
        for g in generators:
            if g.degree != degree:
                raise ShapeError(f"generator degree {g.degree} != {degree}")
            if g.is_identity() or g.images in seen:
                continue
            seen.add(g.images)
            gens.append(g)
        self.degree = degree
        self.generators = tuple(gens)
        # a finished chain, or else a function that makes one on first use;
        # with neither, Schreier-Sims runs on the generators. Two threads
        # may both build it; either chain is correct, and one is kept.
        self._chain = _chain
        self._make_chain = _make_chain

    # -- chain -------------------------------------------------------------

    def _get_chain(self) -> _Chain:
        if self._chain is None and self._make_chain is not None:
            self._chain = self._make_chain()
        elif self._chain is None:
            self._chain, _ = _build_chain(_Chain(self.degree), self.generators)
        return self._chain

    def order(self) -> int:
        return self._get_chain().order()

    def contains(self, g: Perm) -> bool:
        if g.degree != self.degree:
            raise ShapeError(f"degree mismatch: {g.degree} != {self.degree}")
        return self._get_chain().contains(g.images)

    def orbit(self, point: int) -> list[int]:
        """Sorted orbit of a 1-based point under the generators."""
        if not 1 <= point <= self.degree:
            raise ValueError(f"point {point} outside 1..{self.degree}")
        seen = {point - 1}
        frontier = [point - 1]
        images = [g.images for g in self.generators]
        while frontier:
            nxt = []
            for p in frontier:
                for g in images:
                    q = g[p]
                    if q not in seen:
                        seen.add(q)
                        nxt.append(q)
            frontier = nxt
        return [p + 1 for p in sorted(seen)]

    def __repr__(self) -> str:
        return f"<PermGroup degree={self.degree} gens={len(self.generators)}>"


def _build_chain(
    chain: _Chain, generators: Sequence[Perm]
) -> tuple[_Chain, list[Perm]]:
    """Add the generators to the chain, log what it took, and finish it;
    also returns the generators that enlarged it."""
    enlarging = [g for g in generators if chain.add_generator(g.images)]
    chain._finish()
    if logger.isEnabledFor(logging.INFO):
        logger.info(
            "built chain: degree=%d gens=%d order=%d levels=%d forced=%d"
            " member_levels=%d schreier=%d skipped=%d sifted=%d strong=%d"
            " settled=%d",
            chain.degree, len(generators), chain.order(), len(chain.levels),
            chain.forced, chain.member_levels, chain.formed,
            chain.skipped, chain.sifted, chain.adjoined, chain.settled,
        )
    return chain, enlarging


# -- module-level operations -------------------------------------------------


def generated(degree: int, candidates: Sequence[Perm]) -> PermGroup:
    """The group the candidates generate, with a leaf-only chain built now.
    Its generators are the candidates that enlarged the chain, in order, so
    each lies outside the group of those before it."""
    chain, enlarging = _build_chain(_Chain(degree), candidates)
    return PermGroup(degree, enlarging, _chain=chain)


def is_elementary_abelian(group: PermGroup, p: int) -> bool:
    """True iff the group is abelian with every generator of order dividing
    p."""
    gens = group.generators
    for i, g in enumerate(gens):
        power = g
        for _ in range(p - 1):
            power = power * g
        if not power.is_identity():
            return False
        for h in gens[i + 1 :]:
            if g * h != h * g:
                return False
    return True


# -- block structure ---------------------------------------------------------


def _check_blocks(group: PermGroup, size: int) -> None:
    """Raise InvalidBlocksError unless every generator maps each block of
    `size` consecutive points onto a block."""
    for g in group.generators:
        for start in range(0, group.degree, size):
            block = {g.images[start + i] // size for i in range(size)}
            if len(block) != 1:
                raise InvalidBlocksError(
                    f"generator {g!r} splits block {start // size + 1} of size {size}"
                )


def tree_group(depth: int, generators: Iterable[Perm]) -> PermGroup:
    """A group of automorphisms of the depth-N ternary tree on its 3**N
    lex-indexed leaves, whose chain, made on first use, starts with the
    level-(N // 2) vertices (module docstring). Raises InvalidBlocksError
    unless every generator maps those vertices to vertices."""
    level = depth // 2
    size = 3 ** (depth - level)
    # level 0 is the root alone, which every permutation fixes
    bases = range(3**level) if level else ()
    def make() -> _Chain:
        return _build_chain(_Chain(3**depth, bases, size), group.generators)[0]

    group = PermGroup(3**depth, generators, _make_chain=make)
    _check_blocks(group, size)
    return group

