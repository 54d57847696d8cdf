import random

import pytest

from hanoikernel.automorphism import from_json_dict
from hanoikernel.perm import Perm


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
    p = Perm.from_one_based([2, 3, 1])
    assert p.one_based() == (2, 3, 1)


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


def test_rejects_float_images_from_json():
    with pytest.raises(ValueError):
        from_json_dict({"arity": 3, "depth": 1, "labels": {"": [2.0, 1.0, 3.0]}})


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
