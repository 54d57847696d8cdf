import random
from collections import deque

import pytest

from hanoikernel import game
from hanoikernel.errors import ResourceLimitError, ShapeError

import _brute


def test_known_move():
    assert game.apply_move((2, 1, 3, 2, 2, 1), "b") == (2, 3, 3, 2, 2, 1)


def test_move_with_empty_pair_is_fixed_point():
    assert game.apply_move((1, 1, 1), "a") == (1, 1, 1)


def test_moves_are_involutions():
    rng = random.Random(41)
    for _ in range(200):
        state = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 9)))
        for move in "abc":
            assert game.apply_move(game.apply_move(state, move), move) == state


def test_move_changes_at_most_one_position():
    rng = random.Random(42)
    for _ in range(200):
        state = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 9)))
        for move in "abc":
            moved = game.apply_move(state, move)
            diffs = [i for i, (x, y) in enumerate(zip(state, moved)) if x != y]
            assert len(diffs) <= 1
            if diffs:
                # the changed disk is the smallest on the move's peg pair
                pair = set(game.MOVE_PAIRS[move])
                index = diffs[0]
                assert state[index] in pair and moved[index] in pair
                assert all(peg not in pair for peg in state[:index])


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        game.apply_move((1, 4), "a")
    with pytest.raises(ValueError):
        game.apply_move((1, 2), "d")


def test_consistency_with_tree_action_small():
    for n in (1, 2, 3, 4):
        assert game.consistency_check(n)


def test_consistency_matches_independent_recursion():
    rng = random.Random(43)
    for _ in range(300):
        n = rng.randint(1, 7)
        state = tuple(rng.randint(1, 3) for _ in range(n))
        for move in "abc":
            assert game.apply_move(state, move) == _brute.act_letter(move, state)


def test_single_disk_moves():
    # one disk: move a swaps pegs 2 and 3
    assert game.apply_move((1,), "a") == (1,)
    assert game.apply_move((2,), "a") == (3,)
    assert game.apply_move((3,), "a") == (2,)


def test_solve_one_disk():
    assert game.solve(1) == "b"


def test_solve_lengths_are_classical():
    for n in (1, 2, 3, 4, 5, 6):
        assert len(game.solve(n)) == 2**n - 1


def test_solution_reaches_goal():
    for n in (1, 3, 5):
        word = game.solve(n)
        assert game.apply_word((1,) * n, word) == (3,) * n


def breadth_first_solve(n):
    """A shortest move word from all disks on peg 1 to all on peg 3, by
    breadth-first search over the states with a move string per state."""
    start, goal = (1,) * n, (3,) * n
    seen = {start: ""}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        if state == goal:
            return seen[state]
        for move in "abc":
            nxt = game.apply_move(state, move)
            if nxt not in seen:
                seen[nxt] = seen[state] + move
                queue.append(nxt)
    raise AssertionError("goal unreachable")


def test_solve_matches_breadth_first_search():
    """The recursive word is the shortest one, which is unique."""
    for n in range(1, 9):
        assert game.solve(n) == breadth_first_solve(n)


def test_solve_at_the_cap():
    word = game.solve(game.SOLVE_DISK_CAP)
    assert len(word) == 4095
    assert game.apply_word((1,) * 12, word) == (3,) * 12


def test_solve_cap():
    with pytest.raises(ResourceLimitError):
        game.solve(13)


@pytest.mark.parametrize("n", [0, -3])
def test_solve_rejects_fewer_than_one_disk(n):
    # a bad argument, not a resource cap: the CLI exits 2 on it
    with pytest.raises(ShapeError):
        game.solve(n)


def test_state_graph_connected():
    for n in (1, 2, 3, 4, 5):
        assert game.reachable_states(n) == 3**n
