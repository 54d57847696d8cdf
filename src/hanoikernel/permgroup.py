"""Permutation groups via deterministic Schreier-Sims stabilizer chains.

PermGroup is the one way to make a group: its constructor builds the
group's chain, finishes it and keeps it, so every chain a group holds is
finished. Orders are exact big integers; membership is by sifting. An
orbit needs no chain, and orbit builds none.

A chain stores its permutations as Perm stores its images, by the same
degree bound (perm.BYTES_MAX), so that a product is one C call. Up to degree
256 an element is a bytes object padded with fixed points to length 256, and
p then q is p.translate(q); above 256 it is a tuple, and p then q is
operator.itemgetter(*p)(q). Both are sequences of ints, so the algorithm
reads them alike. A Perm's stored images enter a chain as they are
(_Chain._pack): bytes are only padded, and a tuple is kept. An element is
inverted by the function Perm.inverse calls: bytes by bytes.maketrans, one
C call, and a tuple by a Python loop.

Schreier-Sims skips the sift of a Schreier generator that its level knows
to lie in the group of the deeper levels. Each level keeps a set of such
elements, which _finish drops. _adjoin(h, lo, hi) installs h on levels
lo..hi, so at each level l < hi h is a generator of level l + 1 too, and
_adjoin adds it to level l's set. _drain adds each Schreier generator it
sifts from level l: that sift ran from level l + 1 while the deeper queues
were empty, so it either reached the identity or left a residue that
_adjoin installed and the deeper levels drained before level l went on.
Either way the element lies in the group of levels l + 1.., which only
grows. Whenever level l drains, the deeper queues are empty again, so the
deeper levels are a base and strong generating set of that group, and an
element of the set would sift to the identity. So the skip does not change
the chain: every level's base, strong generators and transversal are those
of the chain that sifts every Schreier generator. A Schreier generator that
equals its strong generator s is one case: s fixes the level's base, so it
is a generator of the next level and in the set; the pair of the level's
base and s always forms s. In the G_5 build the set takes 23,376 of the
25,543 nontrivial Schreier generators, and 2,167 are sifted (`skipped` and
`sifted` in the build log line).

A level settles all of a new strong generator's pairs at once when the
generator moves none of the points its transversal elements move; each
level keeps those points as one int (_support). Let _adjoin(h, lo, hi) put h
on a level l < hi, so that h fixes the level's base, and let h miss them.
The transversal element u_pt maps the base to pt, so for pt other than the
base it moves pt; so h fixes every orbit point and the orbit cannot grow.
h and u_pt move disjoint sets of points, so they commute, and the pair
(pt, h) forms u_pt h u_pt^-1 = h, the generator that _drain skips. So
_adjoin counts each of the level's pairs with h as formed and skipped,
queues none of them and leaves the orbit as it is; the chain and its
counters stay the same. A level at hi is never settled: h moves its base.
In the G_5 build the levels settle 17,869 of the 27,104 pairs formed
(`settled` in the build log line).

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
from .errors import ShapeError
from .perm import BYTES_MAX, _IDENTITY_BYTES, Perm
from .perm import _inverse_images as _inv

_Tuple = tuple[int, ...]
# a chain element: padded bytes up to width BYTES_MAX, a tuple above
_Elem = bytes | _Tuple


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


class _Level:
    __slots__ = ("base", "gens", "transversal", "inverse_transversal", "moved", "known")

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
        # elements known to lie in the group of the deeper levels: the strong
        # generators _adjoin installs below their deepest level and the
        # Schreier generators _drain sifts here; a growing chain reads it,
        # and _finish drops it
        self.known: set[_Elem] | None = set()


class _Chain:
    """Incremental deterministic Schreier-Sims.

    After every completed add_generator call the structure is a verified
    base and strong generating set for everything added so far: at each
    level, every Schreier generator of the base orbit sifts to the identity
    through the deeper levels.

    add_generator and contains take a Perm's stored images, or an image
    tuple, of length `degree`, which _pack encodes; everything else holds
    the encoding of the module docstring.

    sift and contains read each level as one flat step, (base, inverse
    transversal), that shares the level's inverse transversal, and both
    strip through the steps with _strip, on either encoding. contains,
    which only a finished chain answers, is the standard sift: it strips
    an element through every step, and the element is a member exactly
    when the residue is the identity.
    """

    # Schreier generators formed, skipped as known to their level, and
    # sifted, strong generators adjoined, and the formed and skipped pairs
    # that a level settled as a whole (_adjoin); read by the build log line
    formed = skipped = sifted = adjoined = settled = 0

    def __init__(self, degree: int):
        self.degree = degree
        if degree <= BYTES_MAX:
            self.identity: _Elem = _IDENTITY_BYTES
            # apply p, then q
            self.mult: Callable[[_Elem, _Elem], _Elem] = bytes.translate
        else:
            self.identity = tuple(range(degree))
            self.mult = _mult_tuples
        self.support = _support(self.identity)
        self.levels: list[_Level] = []
        self._pending: list[deque] = []
        self._steps: list[tuple[int, dict[int, _Elem]]] = []

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

    def contains(self, images: Sequence[int]) -> bool:
        residue, _ = self._strip(self._pack(images), self._steps)
        return residue == self.identity

    def add_generator(self, images: Sequence[int]) -> bool:
        """Add a generator; returns False if it was already a member."""
        residue, stuck = self.sift(self._pack(images))
        if residue == self.identity:
            return False
        self._adjoin(residue, 0, stuck)
        self._drain()
        return True

    # -- internals ---------------------------------------------------------

    def _pack(self, images: Sequence[int]) -> _Elem:
        """The chain element of a Perm's stored images or of an image tuple."""
        if type(self.identity) is bytes:
            if type(images) is not bytes:
                # bytearray() reads a tuple faster than bytes() does
                images = bytes(bytearray(images))
            return images + _IDENTITY_BYTES[len(images) :]
        return tuple(images)

    def _strip(
        self, p: _Elem, steps: list[tuple[int, dict[int, _Elem]]]
    ) -> tuple[_Elem, dict[int, _Elem] | None]:
        """Strip p through the steps; returns the residue and the inverse
        transversal of the level it is stuck at, or None if it got through.
        The identity fixes every base, so a residue that is the identity
        gets through at once."""
        mult, identity = self.mult, self.identity
        for base, inverses in steps:
            point = p[base]
            if point != base:
                u_inv = inverses.get(point)
                if u_inv is None:
                    return p, inverses
                p = mult(p, u_inv)
                if p == identity:
                    return p, None
        return p, None

    def _finish(self) -> "_Chain":
        """Drop the forward transversals, the moved-point ints and the known
        sets; no generator is added after this."""
        for level in self.levels:
            level.transversal = level.moved = level.known = None
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
            if hi >= self.degree:
                raise AssertionError(
                    f"chain of degree {self.degree} needs more than"
                    f" {hi} levels; its invariants are broken"
                )
            base = next(i for i, j in enumerate(h) if i != j)
            self._new_level(base)
        for l in range(lo, hi + 1):
            level = self.levels[l]
            level.gens.append(h)
            if l < hi:
                # h is a generator of level l + 1 too, so it lies in the group
                # of the deeper levels (module docstring)
                level.known.add(h)
                if not moved & level.moved:
                    # h moves no point a transversal element moves, so each
                    # pair (pt, h) forms h and the orbit stays (module
                    # docstring)
                    pairs = len(level.transversal)
                    self.formed += pairs
                    self.skipped += pairs
                    self.settled += pairs
                    continue
            old_points = list(level.transversal)
            new_points = self._extend_orbit(level, h)
            queue = self._pending[l]
            for pt in old_points:
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
            known = level.known
            while queue:
                point, s = queue.popleft()
                u = level.transversal[point]
                schreier = mult(mult(u, s), level.inverse_transversal[s[point]])
                formed += 1
                if schreier == identity:
                    continue
                # A Schreier generator in the level's known set sifts to the
                # identity, so it is skipped: it lies in the group of levels
                # l + 1.., and while level l drains the deeper queues are
                # empty, so those levels are a base and strong generating set
                # of that group (module docstring).
                if schreier in known:
                    skipped += 1
                    continue
                known.add(schreier)
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
    those before it; identities and repeats never do."""

    def __init__(self, degree: int, generators: Iterable[Perm] = ()):
        candidates = list(generators)
        for g in candidates:
            if g.degree != degree:
                raise ShapeError(f"generator degree {g.degree} != {degree}")
        chain = _Chain(degree)
        self.degree = degree
        self.generators = tuple(g for g in candidates if chain.add_generator(g.data))
        self._chain = chain._finish()
        if log.enabled(__name__):
            log.info(
                __name__,
                "built chain: degree=%d gens=%d order=%d levels=%d schreier=%d"
                " skipped=%d sifted=%d strong=%d settled=%d",
                degree, len(candidates), chain.order(), len(chain.levels),
                chain.formed, chain.skipped, chain.sifted,
                chain.adjoined, chain.settled,
            )

    def order(self) -> int:
        return self._chain.order()

    def contains(self, g: Perm) -> bool:
        if g.degree != self.degree:
            raise ShapeError(f"degree mismatch: {g.degree} != {self.degree}")
        return self._chain.contains(g.data)

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
        images.append(g.data)
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

