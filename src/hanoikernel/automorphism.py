"""Finite-depth automorphisms of the rooted ternary tree, stored as portraits.

A depth-N portrait carries one permutation label per internal vertex (levels
0..N-1). A vertex of level n is a tuple of n digits in 1..3, the empty tuple
being the root. The action on a vertex applies, at each step, the label of
the original prefix to the next digit:

    image of (u1, ..., un) = (u1^label(), u2^label(u1), ..., un^label(u1..un-1))

Words of generators act left-to-right, so composition is in action order:
``apply(compose(g, h), v) == apply(h, apply(g, v))``.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterator, Mapping

from .errors import DepthError, ResourceLimitError, ShapeError
from .perm import Perm

Vertex = tuple[int, ...]

# The depth cap of portraits and words. words.evaluate recurses once per
# level, and each level takes three of the 1000 frames Python allows by
# default: the function, its generator expression and the lru_cache call.
# Depth 330 exceeds them. compose and equality recurse too.
MAX_DEPTH = 250


class Portrait:
    """An immutable depth-N tree automorphism.

    Depth-0 portraits exist and form the trivial group. Deeper portraits are
    a root label plus three child portraits, the states at the first level.
    """

    __slots__ = ("depth", "root", "children", "_hash", "_is_identity")

    def __init__(self, root: Perm | None, children: tuple["Portrait", ...]):
        if root is None:
            if children:
                raise ShapeError("depth-0 portrait cannot have children")
            depth = 0
            is_id = True
        else:
            if root.degree != 3 or len(children) != 3:
                raise ShapeError("a portrait needs a degree-3 root label and three children")
            depths = {c.depth for c in children}
            if len(depths) != 1:
                raise ShapeError("children must share one depth")
            depth = children[0].depth + 1
            is_id = root.is_identity() and all(c._is_identity for c in children)
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "children", children)
        object.__setattr__(self, "_is_identity", is_id)
        object.__setattr__(self, "_hash", hash((depth, root, children)))

    def __setattr__(self, name, value):
        raise AttributeError("Portrait is immutable")

    def is_identity(self) -> bool:
        return self._is_identity

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (
            isinstance(other, Portrait)
            and self._hash == other._hash
            and self.depth == other.depth
            and self.root == other.root
            and self.children == other.children
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"<Portrait depth={self.depth} id={self._is_identity}>"

    def label(self, vertex: Vertex) -> Perm:
        """Label of an internal vertex (level < depth)."""
        node = self
        for digit in vertex:
            _check_digit(digit)
            node = node.children[digit - 1]
        if node.root is None:
            raise DepthError(f"vertex {vertex} has level {len(vertex)} >= depth {self.depth}")
        return node.root

    def labels(self) -> dict[Vertex, Perm]:
        """The labels that are not the identity, keyed by vertex; from_labels
        rebuilds the portrait from them.

        Identity subtrees are not entered, so the walk visits the vertices
        where the portrait moves something and their siblings, not all
        3^depth of them.
        """
        out: dict[Vertex, Perm] = {}
        stack: list[tuple[Vertex, Portrait]] = [((), self)]
        while stack:
            vertex, node = stack.pop()
            if node._is_identity:
                continue
            if not node.root.is_identity():
                out[vertex] = node.root
            for i, child in enumerate(node.children):
                stack.append((vertex + (i + 1,), child))
        return out


@functools.lru_cache(maxsize=None)
def identity(depth: int) -> Portrait:
    """The identity portrait of the given depth."""
    if depth < 0:
        raise DepthError("depth must be >= 0")
    if depth == 0:
        return Portrait(None, ())
    child = identity(depth - 1)
    return Portrait(Perm.identity(3), (child,) * 3)


def from_labels(depth: int, labels: Mapping[Vertex, Perm]) -> Portrait:
    """Build a portrait from a map of internal-vertex labels.

    Vertices absent from the map get the identity label. Only the labelled
    vertices and their ancestors are built, deepest first; every other
    subtree is the cached identity, so the work is O(|labels| depth).
    """
    if depth < 0:
        raise DepthError("depth must be >= 0")
    if depth > MAX_DEPTH:
        raise ResourceLimitError(f"depth {depth} exceeds the cap {MAX_DEPTH}")
    for v in labels:
        if len(v) >= depth:
            raise DepthError(f"label at {v} lies at level >= depth {depth}")
        for digit in v:
            _check_digit(digit)
    built: dict[Vertex, Portrait] = {}
    ancestors = {v[:i] for v in labels for i in range(len(v) + 1)}
    for vertex in sorted(ancestors, key=len, reverse=True):
        below = identity(depth - len(vertex) - 1)
        children = tuple(built.get(vertex + (i,), below) for i in (1, 2, 3))
        built[vertex] = Portrait(labels.get(vertex, Perm.identity(3)), children)
    return built.get((), identity(depth))


def _check_digit(digit: int) -> None:
    if not 1 <= digit <= 3:
        raise ShapeError(f"digit {digit} outside 1..3")


def apply(g: Portrait, v: Vertex) -> Vertex:
    """Image of a vertex of level <= depth(g) under the portrait action."""
    if len(v) > g.depth:
        raise DepthError(f"vertex level {len(v)} exceeds portrait depth {g.depth}")
    node = g
    out = []
    for digit in v:
        _check_digit(digit)
        out.append(node.root.apply(digit))
        node = node.children[digit - 1]
    return tuple(out)


def compose(g: Portrait, h: Portrait) -> Portrait:
    """The automorphism "g then h"."""
    if g.depth != h.depth:
        raise ShapeError("portraits must share their depth")
    if g.depth == 0:
        return g
    if g._is_identity:
        return h
    if h._is_identity:
        return g
    # state of gh at i is (state of g at i) followed by (state of h at i^g)
    root = g.root * h.root
    children = tuple(
        compose(g.children[i - 1], h.children[g.root.apply(i) - 1])
        for i in (1, 2, 3)
    )
    return Portrait(root, children)


def state_at(g: Portrait, u: Vertex) -> Portrait:
    """The state of g at u: the depth-(N-|u|) action on the subtree at u."""
    if len(u) > g.depth:
        raise DepthError(f"vertex level {len(u)} exceeds portrait depth {g.depth}")
    node = g
    for digit in u:
        _check_digit(digit)
        node = node.children[digit - 1]
    return node


def embed(u: Vertex, g: Portrait) -> Portrait:
    """The automorphism acting as g on the subtree at u and trivially outside."""
    if not u:
        return g
    _check_digit(u[0])
    sub = embed(u[1:], g)
    trivial = identity(sub.depth)
    children = tuple(sub if i == u[0] else trivial for i in (1, 2, 3))
    return Portrait(Perm.identity(3), children)


def level_vertices(n: int) -> Iterator[Vertex]:
    """All level-n vertices in lexicographic order."""
    return itertools.product((1, 2, 3), repeat=n)


def leaf_permutation(g: Portrait, n: int) -> Perm:
    """The permutation of lex indices 1..3^n induced on level-n vertices."""
    if n > g.depth:
        raise DepthError(f"level {n} exceeds portrait depth {g.depth}")
    return Perm(_leaf_images(g, n))


def _leaf_images(g: Portrait, n: int) -> list[int]:
    """0-based leaf_permutation images, read off the portrait.

    Vertex (i, rest) goes to (root(i), state_i(rest)), so the block of 3^(n-1)
    indices under child i is child i's images shifted to the block of
    root(i). An identity subtree fixes every index.
    """
    if n == 0 or g._is_identity:
        return list(range(3**n))
    size = 3 ** (n - 1)
    out: list[int] = []
    for i, child in enumerate(g.children):
        offset = g.root.data[i] * size
        out += [offset + x for x in _leaf_images(child, n - 1)]
    return out


# -- serialization ---------------------------------------------------------


def to_json_dict(g: Portrait) -> dict:
    """JSON portrait format; identity labels are omitted."""
    labels = {
        ",".join(map(str, v)): list(p.one_based())
        for v, p in sorted(g.labels().items())
    }
    return {"arity": 3, "depth": g.depth, "labels": labels}


def to_dot(g: Portrait) -> str:
    """Graphviz DOT export: one node per vertex, internal nodes labeled
    with their permutation in cycle notation."""
    lines = ["digraph portrait {"]
    for level in range(g.depth + 1):
        for v in level_vertices(level):
            node_id = ",".join(map(str, v)) or "root"
            if level < g.depth:
                label = g.label(v).cycle_string()
            else:
                label = ""
            lines.append(f'  "{node_id}" [label="{label}"];')
            if v:
                parent = ",".join(map(str, v[:-1])) or "root"
                lines.append(f'  "{parent}" -> "{node_id}";')
    lines.append("}")
    return "\n".join(lines)
