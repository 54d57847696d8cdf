import gc
import random

import pytest

from hanoikernel.perm import BYTES_MAX, Perm

# both sides of the switch from bytes to tuple storage, and the edges
STORAGE_DEGREES = [0, 1, 3, 243, 255, 256, 257, 729]


def test_identity():
    p = Perm.identity(5)
    assert p.is_identity()
    assert p.cycle_string() == "()"
    assert p.apply(3) == 3


def test_from_cycles_and_apply():
    p = Perm.from_cycles(3, [(1, 2, 3)])
    assert p.apply(1) == 2 and p.apply(2) == 3 and p.apply(3) == 1
    assert p.cycle_string() == "(1 2 3)"


def test_composition_is_in_action_order():
    p = Perm.from_cycles(3, [(1, 2)])
    q = Perm.from_cycles(3, [(2, 3)])
    assert (p * q).apply(1) == 3  # 1 -> 2 under p, then 2 -> 3 under q


def test_inverse():
    p = Perm.from_cycles(4, [(1, 2, 3, 4)])
    assert (p * p.inverse()).is_identity()
    assert p.inverse().apply(1) == 4


def test_sign():
    assert Perm.from_cycles(3, [(1, 2)]).sign() == -1
    assert Perm.from_cycles(3, [(1, 2, 3)]).sign() == 1
    assert Perm.identity(6).sign() == 1


def test_one_based_round_trip():
    p = Perm([1, 2, 0])
    assert p.one_based() == (2, 3, 1)
    assert Perm([i - 1 for i in p.one_based()]) == p


def test_rejects_non_bijection():
    with pytest.raises(ValueError):
        Perm([0, 0, 1])


@pytest.mark.parametrize("degree", [3, 255, 256, 257, 729])
@pytest.mark.parametrize(
    "bad",
    ["duplicate", "too large", "just too large", "negative", "float", "string"],
)
def test_rejects_every_non_permutation(degree, bad):
    # both sides of the switch from the bytes check to the sorted one
    images = list(range(degree))
    if bad == "duplicate":
        images[-1] = 0
    elif bad == "too large":
        images[-1] = degree + 2  # [0, 1, 5] at degree 3 still fits in a byte
    elif bad == "just too large":
        images[-1] = degree
    elif bad == "negative":
        images[-1] = -1
    elif bad == "float":
        images = [float(i) for i in images]
    else:
        images[1] = "a"
    with pytest.raises(ValueError):
        Perm(images)


def test_rejects_float_images():
    # the one-based label [2.0, 1.0, 3.0] of a JSON portrait, 0-based: a
    # bijection of 0..2 in every respect but the type
    with pytest.raises(ValueError):
        Perm([1.0, 0.0, 2.0])


@pytest.mark.parametrize("degree", [0, 1, 256, 257])
def test_accepts_permutations_at_every_degree(degree):
    images = list(range(degree))
    random.Random(degree).shuffle(images)
    p = Perm(images)
    assert p.images == tuple(images)
    assert p.is_identity() == (images == list(range(degree)))
    assert Perm.identity(degree).is_identity()


def test_degree_mismatch():
    with pytest.raises(ValueError):
        Perm.identity(3) * Perm.identity(4)


def test_product_with_a_non_permutation_is_a_type_error():
    p = Perm([1, 0, 2])
    with pytest.raises(TypeError):
        p * 3
    with pytest.raises(TypeError):
        3 * p
    with pytest.raises(TypeError):
        p * (1, 0, 2)
    assert p != (1, 0, 2) and p != b"\x01\x00\x02"


def test_rejects_non_iterables():
    # bytes(3) and bytearray(True) are zero bytes, not images
    for bad in (3, True, 0, 2.0, None):
        with pytest.raises(TypeError):
            Perm(bad)


def _shuffled(rng: random.Random, degree: int) -> list[int]:
    images = list(range(degree))
    rng.shuffle(images)
    return images


@pytest.mark.parametrize("degree", STORAGE_DEGREES)
def test_equal_permutations_store_the_same_type(degree):
    """The storage type follows the degree alone, whichever way a Perm is
    made, so equal permutations compare and hash equal."""
    storage = bytes if degree <= BYTES_MAX else tuple
    images = _shuffled(random.Random(degree), degree)
    p = Perm(images)
    e = Perm.identity(degree)
    made = [
        Perm(list(images)),
        Perm(tuple(images)),
        Perm(x for x in images),
        p * e,
        e * p,
        p.inverse().inverse(),
        Perm.from_cycles(degree, p.cycles()),
    ]
    if degree <= BYTES_MAX:
        made += [Perm(bytes(images)), Perm(bytearray(images))]
    identities = [
        e,
        Perm(range(degree)),
        Perm(list(range(degree))),
        Perm.from_cycles(degree, []),
        p * p.inverse(),
        p.inverse() * p,
        e.inverse(),
        e * e,
    ]
    if degree <= BYTES_MAX:
        identities += [Perm(bytes(range(degree))), Perm(bytearray(range(degree)))]
    for group, reference in ((made, p), (identities, e)):
        for q in group:
            assert type(q.data) is storage
            assert q == reference and hash(q) == hash(reference)
            assert type(q.images) is tuple
            assert q.images == reference.images
    assert p.images == tuple(images)
    assert all(q.is_identity() for q in identities)
    assert len({p, *made}) == 1 and len(set(identities)) == 1


def _reference_sign(images: list[int]) -> int:
    inversions = sum(
        images[i] > images[j] for i in range(len(images)) for j in range(i + 1, len(images))
    )
    return -1 if inversions % 2 else 1


@pytest.mark.parametrize("degree", STORAGE_DEGREES)
def test_operations_match_a_tuple_reference(degree):
    rng = random.Random(1000 + degree)
    for _ in range(3):
        a, b = _shuffled(rng, degree), _shuffled(rng, degree)
        p, q = Perm(a), Perm(b)
        assert (p * q).images == tuple(b[i] for i in a)
        assert (q * p).images == tuple(a[i] for i in b)
        inverse = [0] * degree
        for i, j in enumerate(a):
            inverse[j] = i
        assert p.inverse().images == tuple(inverse)
        assert p.sign() == _reference_sign(a)
        assert p.one_based() == tuple(i + 1 for i in a)
        assert [p.apply(i + 1) for i in range(degree)] == [i + 1 for i in a]
        cycles = p.cycles()
        assert [c[0] for c in cycles] == sorted(c[0] for c in cycles)
        assert all(len(c) > 1 and c[0] == min(c) for c in cycles)
        moved = [x for c in cycles for x in c]
        assert sorted(moved) == [i + 1 for i in range(degree) if a[i] != i]
        assert Perm.from_cycles(degree, cycles) == p


def test_bytes_storage_is_not_tracked_by_the_collector():
    rng = random.Random(243)
    p, q = Perm(_shuffled(rng, 243)), Perm(_shuffled(rng, 243))
    for r in (p, q, p * q, p.inverse(), Perm.identity(243)):
        assert not gc.is_tracked(r.data)


def test_immutable_and_hashable():
    p = Perm.from_cycles(3, [(1, 2)])
    with pytest.raises(AttributeError):
        p.images = (0, 1, 2)
    assert hash(p) == hash(Perm.from_cycles(3, [(1, 2)]))


def test_products_of_degree_0_and_1():
    for degree in (0, 1):
        e = Perm.identity(degree)
        product = e * e
        assert product == e
        assert product.images == tuple(range(degree))
        assert product.degree == degree
        assert product.is_identity()


def test_product_matches_pointwise_composition():
    rng = random.Random(3)
    for degree in (2, 3, 7, 243, 258):
        a, b = list(range(degree)), list(range(degree))
        rng.shuffle(a)
        rng.shuffle(b)
        p, q = Perm(a), Perm(b)
        product = p * q
        assert type(product.images) is tuple
        assert product.images == tuple(b[i] for i in a)
