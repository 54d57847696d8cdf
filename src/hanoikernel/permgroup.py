"""Permutation groups via deterministic Schreier-Sims stabilizer chains.

PermGroup is the one way to make a group: its constructor builds the
group's chain, finishes it and keeps it, so every chain a group holds is
finished. Orders are exact big integers; membership is by sifting. An
orbit needs no chain, and orbit builds none.

A chain of a group of tree automorphisms may carry the vertices of one
level as points of its own: with a block size, vertex v, the block of
`block` consecutive leaves from leaf v*block, is point degree + v of each
element, and its image under a leaf permutation p is
degree + p[v*block] // block. The vertex points are
the chain's first bases, so every level is a level of one point. tree_group
puts the 3^k vertices of level k = N // 2 of a group on 3^N leaves first:
their orbit has at most 3^k points, and a leaf orbit inside the level-k
stabilizer stays in one block of 3^(N-k) leaves, where a leaf-only base
starts with an orbit of all 3^N leaves. That halves the chain-build time of
G_5 and G_6. A sift pays for it: sifting a member of G_5 takes about 53
products against 25 through a leaf-only chain, and about 29-40 against
17-24 us, while the build takes 20-28 against 38-55 ms (the 1000 members
among 2000 seeded sift-d5 queries, in-process CPU time, each round building
and sifting through both chains, 2-vCPU VM; the host's speed varied between
runs, the ratios less). The build saving outweighs the sifts up to about
1100-2200 member sifts per chain (the interquartile ranges of two runs of
42 rounds), more than the 1000 of the sift-d5 benchmark, so the prefix is
kept.

A chain stores its permutations in an encoding chosen from its width, the
leaves and the vertex points together, so that a product is one C call. Up
to width 256 an element is a bytes object padded with fixed points to
length 256, and p then q is p.translate(q); above 256 it is a tuple, and p
then q is operator.itemgetter(*p)(q). Both are sequences of ints, so the
algorithm reads them alike. Perm images are packed where they enter a chain
(_Chain._pack), and the encoding never leaves this module. A bytes element
is inverted by bytes.maketrans(p, identity), one C call; a tuple by a
Python loop, which beat sorted, map and itemgetter at degree 729.

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
the chain and its counters stay the same. A vertex point is a point like
any other here, and an element that moves it moves all of the vertex's
leaves, so two elements that meet on a vertex point meet on its leaves too:
the vertex points change no level's decision. A level at hi is never
settled: h moves its base. In the G_5 build the levels settle 8,808 of the
12,676 pairs formed (`settled` in the build log line).

A chain that would need more levels than it has points raises
AssertionError: only broken invariants get there, and without the check
they loop forever.
"""

from __future__ import annotations

import sys
from collections import deque
from functools import partial
from operator import itemgetter
from typing import Callable, Iterable, Sequence

from . import log
from .errors import InvalidBlocksError, ShapeError
from .perm import Perm

_Tuple = tuple[int, ...]
# a chain element: padded bytes up to width _BYTES_MAX, a tuple above
_Elem = bytes | _Tuple

_BYTES_MAX = 256
_BYTES_IDENTITY = bytes(range(_BYTES_MAX))


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
    __slots__ = ("base", "gens", "transversal", "inverse_transversal", "moved")

    def __init__(self, base: int, identity: _Elem):
        self.base = base
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

    With a block size, the first levels have the vertex points as bases
    (module docstring), and every generator must map blocks to blocks; the
    levels after them have leaves as bases. add_generator and contains take
    image tuples of length `degree`, which _pack extends by the vertex
    points; everything else holds the encoding of the module docstring.

    sift and contains read each level as one flat step, (base, inverse
    transversal), that shares the level's inverse transversal, and both
    strip through the steps with _strip, on either encoding. contains,
    which only a finished chain answers, is the standard sift: it strips
    an element through every step, and the element is a member exactly
    when the residue is the identity.
    """

    # Schreier generators formed, skipped as equal to their generator and
    # sifted, strong generators adjoined, and the formed and skipped pairs
    # that a level settled as a whole (_adjoin); read by the build log line
    formed = skipped = sifted = adjoined = settled = 0

    def __init__(self, degree: int, block: int = 0):
        self.degree = degree
        self.block = block
        # the vertex points degree + v, opened as the first levels below
        self.vertices = degree // block if block else 0
        # the vertex point of each leaf, which _pack reads by C-level calls
        vertex_of = [degree + x // block for x in range(degree)] if block else []
        if degree + self.vertices <= _BYTES_MAX:
            self.identity: _Elem = _BYTES_IDENTITY
            # apply p, then q
            self.mult: Callable[[_Elem, _Elem], _Elem] = bytes.translate
            # a translate table; the bytes past the degree are never read
            self._vertex_of: _Elem = bytes(vertex_of).ljust(_BYTES_MAX, b"\0")
        else:
            self.identity = tuple(range(degree + self.vertices))
            self.mult = _mult_tuples
            self._vertex_of = tuple(vertex_of)
        self.support = _support(self.identity)
        self.levels: list[_Level] = []
        self._pending: list[deque] = []
        self._steps: list[tuple[int, dict[int, _Elem]]] = []
        for v in range(self.vertices):
            self._new_level(degree + v)

    def order(self) -> int:
        n = 1
        for level in self.levels:
            n *= len(level.inverse_transversal)
        return n

    def sift(self, p: _Elem, start: int = 0) -> tuple[_Elem, int]:
        """Strip p through the levels from `start` on; returns (residue,
        stuck level index), the index len(levels) if p got through."""
        p, stuck = self._strip(p, self._steps[start:] if start else self._steps)
        if stuck is None:
            return p, len(self.levels)
        return p, next(
            i for i, level in enumerate(self.levels)
            if level.inverse_transversal is stuck
        )

    def contains(self, images: _Tuple) -> bool:
        residue, _ = self._strip(self._pack(images), self._steps)
        return residue == self.identity

    def add_generator(self, images: _Tuple) -> bool:
        """Add a generator; returns False if it was already a member."""
        residue, stuck = self.sift(self._pack(images))
        if residue == self.identity:
            return False
        self._adjoin(residue, 0, stuck)
        self._drain()
        return True

    # -- internals ---------------------------------------------------------

    def _pack(self, images: Sequence[int]) -> _Elem:
        """The chain element of leaf images. With a block size, the vertex
        points follow the leaves: point degree + v has the image
        degree + images[v*block] // block, the vertex of the image of vertex
        v's first leaf, read off the table _vertex_of."""
        block = self.block
        if type(self.identity) is bytes:
            # bytearray() reads a tuple faster than bytes() does at degree 243
            packed = bytearray(images)
            if block:
                packed += packed[::block].translate(self._vertex_of)
            packed += _BYTES_IDENTITY[len(packed) :]
            return bytes(packed)
        packed = tuple(images)
        if block:
            packed += tuple(map(self._vertex_of.__getitem__, packed[::block]))
        return packed

    def _strip(
        self, p: _Elem, steps: list[tuple[int, dict[int, _Elem]]]
    ) -> tuple[_Elem, dict[int, _Elem] | None]:
        """Strip p through the steps; returns the residue and the inverse
        transversal of the level it is stuck at, or None if it got through."""
        mult = self.mult
        for base, inverses in steps:
            point = p[base]
            if point != base:
                u_inv = inverses.get(point)
                if u_inv is None:
                    return p, inverses
                p = mult(p, u_inv)
        return p, None

    def _finish(self) -> "_Chain":
        """Drop the forward transversals and the moved-point ints; no
        generator is added after this."""
        for level in self.levels:
            level.transversal = level.moved = None
        return self

    def _new_level(self, base: int) -> None:
        level = _Level(base, self.identity)
        self._steps.append((base, level.inverse_transversal))
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
            # a chain has at most one level per point. A broken chain would
            # open levels forever instead of failing.
            if hi >= self.degree + self.vertices:
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
            queue = self._pending[l]
            while queue:
                point, s = queue.popleft()
                u = level.transversal[point]
                schreier = mult(mult(u, s), level.inverse_transversal[s[point]])
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
        mult, support = self.mult, self.support
        # The old orbit was closed under the old generators, so it suffices
        # to push the new generator across it and then close from new points.
        for point in list(level.transversal):
            image = gen[point]
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
                image = g[point]
                if image not in level.transversal:
                    t = mult(u, g)
                    level.transversal[image] = t
                    level.inverse_transversal[image] = _inv(t)
                    level.moved |= support(t)
                    new_points.append(image)
                    queue.append(image)
        return new_points


class PermGroup:
    """A permutation group on 1..degree and its stabilizer chain, built by
    Schreier-Sims when the group is made. Its generators are the given ones
    that enlarged the chain, in order, so each lies outside the group of
    those before it; identities and repeats never do. With a block size,
    the chain's first bases are the vertex points (module docstring), so
    every generator must map blocks to blocks; they are checked before the
    chain is built, because the chain reads each vertex's image off its
    first leaf."""

    def __init__(self, degree: int, generators: Iterable[Perm] = (), block: int = 0):
        candidates = list(generators)
        for g in candidates:
            if g.degree != degree:
                raise ShapeError(f"generator degree {g.degree} != {degree}")
        if block:
            _check_blocks(degree, candidates, block)
        chain = _Chain(degree, block)
        self.degree = degree
        self.generators = tuple(g for g in candidates if chain.add_generator(g.images))
        self._chain = chain._finish()
        if log.enabled(__name__):
            log.info(
                __name__,
                "built chain: degree=%d gens=%d order=%d levels=%d vertices=%d"
                " schreier=%d skipped=%d sifted=%d strong=%d settled=%d",
                degree, len(candidates), chain.order(), len(chain.levels),
                chain.vertices, chain.formed, chain.skipped, chain.sifted,
                chain.adjoined, chain.settled,
            )

    def order(self) -> int:
        return self._chain.order()

    def contains(self, g: Perm) -> bool:
        if g.degree != self.degree:
            raise ShapeError(f"degree mismatch: {g.degree} != {self.degree}")
        return self._chain.contains(g.images)

    def __repr__(self) -> str:
        return f"<PermGroup degree={self.degree} gens={len(self.generators)}>"


# -- module-level operations -------------------------------------------------


def orbit(degree: int, generators: Iterable[Perm], point: int) -> list[int]:
    """Sorted orbit of a 1-based point under the generators; no chain."""
    if not 1 <= point <= degree:
        raise ValueError(f"point {point} outside 1..{degree}")
    images = []
    for g in generators:
        if g.degree != degree:
            raise ShapeError(f"generator degree {g.degree} != {degree}")
        images.append(g.images)
    seen = {point - 1}
    frontier = [point - 1]
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


def _check_blocks(degree: int, generators: Iterable[Perm], size: int) -> None:
    """Raise InvalidBlocksError unless every generator maps each block of
    `size` consecutive points onto a block."""
    for g in generators:
        for start in range(0, degree, size):
            block = {g.images[start + i] // size for i in range(size)}
            if len(block) != 1:
                raise InvalidBlocksError(
                    f"generator {g!r} splits block {start // size + 1} of size {size}"
                )


def tree_group(depth: int, generators: Iterable[Perm]) -> PermGroup:
    """A group of automorphisms of the depth-N ternary tree on its 3**N
    lex-indexed leaves, whose chain starts with the level-(N // 2) vertices
    as points (module docstring). Raises InvalidBlocksError unless every
    generator maps those vertices to vertices."""
    level = depth // 2
    # level 0 is the root alone, which every permutation fixes
    return PermGroup(3**depth, generators, 3 ** (depth - level) if level else 0)
