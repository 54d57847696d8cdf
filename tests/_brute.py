"""Independent brute-force oracles for the test suite.

Everything here works on raw image tuples (0-based) or digit sequences with
its own arithmetic, so it never shares a code path with the library
machinery it is used to check.
"""

from __future__ import annotations

# generator definitions: root permutation (on digits 1..3) and the single
# coordinate whose subtree carries the letter again
_ROOT = {
    "a": {1: 1, 2: 3, 3: 2},
    "b": {1: 3, 2: 2, 3: 1},
    "c": {1: 2, 2: 1, 3: 3},
}
_HOME = {"a": 1, "b": 2, "c": 3}


def act_letter(letter: str, vertex: tuple[int, ...]) -> tuple[int, ...]:
    """Recursive action of one generator on a digit sequence."""
    if not vertex:
        return vertex
    head, tail = vertex[0], vertex[1:]
    new_head = _ROOT[letter][head]
    if head == _HOME[letter]:
        return (new_head,) + act_letter(letter, tail)
    return (new_head,) + tail


def act_word(word: str, vertex: tuple[int, ...]) -> tuple[int, ...]:
    """Left-to-right action of a word on a digit sequence."""
    for letter in word:
        vertex = act_letter(letter, vertex)
    return vertex


def word_states(word: str) -> tuple[tuple[str, str, str], tuple[int, int, int]]:
    """First-level states of a word, freely reduced, and the image of each
    first-level digit.

    A letter acts on a sequence starting with digit h by its root map and,
    when h is its home digit, on the rest by itself. So the state at h is
    the word of the letters read while the digit, followed from h through
    the root maps, sits at their home.
    """
    states = []
    images = []
    for digit in (1, 2, 3):
        stack: list[str] = []
        for letter in word:
            if digit == _HOME[letter]:
                if stack and stack[-1] == letter:
                    stack.pop()
                else:
                    stack.append(letter)
            digit = _ROOT[letter][digit]
        states.append("".join(stack))
        images.append(digit)
    return tuple(states), tuple(images)  # type: ignore[return-value]


def vertices(n: int):
    """All level-n digit sequences in lexicographic order."""
    if n == 0:
        yield ()
        return
    for prefix in vertices(n - 1):
        for digit in (1, 2, 3):
            yield prefix + (digit,)


def word_leaf_tuple(word: str, n: int) -> tuple[int, ...]:
    """0-based image tuple of the word's action on level-n vertices."""
    order = list(vertices(n))
    index = {v: i for i, v in enumerate(order)}
    return tuple(index[act_word(word, v)] for v in order)


def mult(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """Apply p, then q."""
    return tuple(q[i] for i in p)


def inv(p: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def closure(gens: list[tuple[int, ...]], cap: int = 100_000) -> set[tuple[int, ...]]:
    """All products of the generators, by breadth-first closure."""
    degree = len(gens[0]) if gens else 0
    identity = tuple(range(degree))
    elements = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = mult(x, g)
                if y not in elements:
                    if len(elements) >= cap:
                        raise RuntimeError(f"closure exceeded cap {cap}")
                    elements.add(y)
                    nxt.append(y)
        frontier = nxt
    return elements


def commutator_closure(elements: set[tuple[int, ...]], cap: int = 100_000):
    """The subgroup generated by all commutators of the given elements."""
    seeds = set()
    elems = sorted(elements)
    for x in elems:
        for y in elems:
            seeds.add(mult(mult(mult(inv(x), inv(y)), x), y))
    seeds.discard(tuple(range(len(elems[0]))))
    if not seeds:
        return {tuple(range(len(elems[0])))}
    return closure(sorted(seeds), cap)
