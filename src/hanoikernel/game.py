"""The three-peg disk-moving game behind the tree action.

A state of the n-disk game is a sequence of n pegs, smallest disk first;
every such sequence is legal because smaller disks always sit on top. Each
of the three moves transfers the smallest disk available on its peg pair,
which toggles the first occurrence of either peg in the sequence. States
are exactly the level-n vertices, and the moves agree with the portrait
action of the letters a, b, c.
"""

from __future__ import annotations

from collections import deque

from . import automorphism, words
from .analysis import Result
from .errors import ResourceLimitError, ShapeError

GameState = tuple[int, ...]

# the peg pair each move exchanges
MOVE_PAIRS = {"a": (2, 3), "b": (1, 3), "c": (1, 2)}

SOLVE_DISK_CAP = 12


def check_state(state: GameState) -> GameState:
    for peg in state:
        if peg not in (1, 2, 3):
            raise ValueError(f"peg {peg!r} outside 1..3")
    return state


def apply_move(state: GameState, move: str) -> GameState:
    """Toggle the first occurrence of the move's peg pair.

    When neither peg of the pair occurs, the move has no legal disk to
    transfer onto the pair and the state is returned unchanged, matching
    the fixed point of the corresponding tree automorphism.
    """
    if move not in MOVE_PAIRS:
        raise ValueError(f"move {move!r} not one of a, b, c")
    first, second = MOVE_PAIRS[move]
    for i, peg in enumerate(check_state(state)):
        if peg == first:
            return state[:i] + (second,) + state[i + 1 :]
        if peg == second:
            return state[:i] + (first,) + state[i + 1 :]
    return state


def apply_word(state: GameState, word: str) -> GameState:
    for move in word:
        state = apply_move(state, move)
    return state


def consistency_check(n: int) -> bool:
    """Move semantics agree with the portrait action of the letters, over
    all 3^n states."""
    if n < 1:
        raise ValueError("need at least one disk")
    portraits = {m: words.evaluate(m, n) for m in MOVE_PAIRS}
    for state in automorphism.level_vertices(n):
        for move, portrait in portraits.items():
            if apply_move(state, move) != automorphism.apply(portrait, state):
                return False
    return True


def solve(n: int) -> str:
    """The shortest move word from all disks on peg 1 to all on peg 3.

    The classical recursion: to move k disks from one peg to another, move
    the k - 1 smaller ones to the third peg, the largest one across, and the
    smaller ones onto it. When the largest one moves, every smaller disk is
    on the third peg, so the move of the other two pegs, the letter of the
    third peg (MOVE_PAIRS), transfers it. The shortest solution is unique,
    and this is it.
    """
    if n < 1:
        raise ShapeError(f"disk count {n} must be >= 1")
    if n > SOLVE_DISK_CAP:
        raise ResourceLimitError(f"disk count {n} exceeds the cap {SOLVE_DISK_CAP}")

    def moves(k: int, source: int, target: int) -> str:
        if k == 0:
            return ""
        spare = 6 - source - target
        return moves(k - 1, source, spare) + "abc"[spare - 1] + moves(k - 1, spare, target)

    return moves(n, 1, 3)


def act_result(state: GameState, move: str) -> Result:
    """The state and its image under the move, against the expected image:
    the state's image under the move's letter acting on the tree. The
    tree action is read off word_states along the state's digits, as
    words.state_word walks them, so no portrait is built and no depth cap
    applies."""
    result = apply_move(state, move)
    word, image = move, []
    for peg in state:
        states, root = words.word_states(word)
        image.append(root.apply(peg))
        word = states[peg - 1]
    computed = {"state": ",".join(map(str, state)), "result": ",".join(map(str, result))}
    expected = {"result": ",".join(map(str, image))}
    return Result(f"act {move}", computed, expected, computed["result"] == expected["result"])


def solve_result(disks: int) -> Result:
    """The solution word, which passes when its length is the least number
    of moves for the disks, 2^disks - 1."""
    word = solve(disks)
    computed = {"word": word, "moves": list(word), "length": len(word)}
    expected = {"length": 2**disks - 1}
    return Result(f"solve {disks}", computed, expected, len(word) == expected["length"])


def reachable_states(n: int) -> int:
    """Size of the component of the all-ones state in the move graph."""
    start = (1,) * n
    seen = {start}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        for move in "abc":
            nxt = apply_move(state, move)
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return len(seen)
