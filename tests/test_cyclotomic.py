import itertools
import random

import pytest

from pbent.cyclotomic import (
    CycInt,
    MixedP,
    ValueShape,
    eta,
    gauss_sum,
    match_shape,
)


def test_canonical_form_kills_the_full_orbit():
    # 1 + e + e^2 = 0, so the all-ones vector is the zero element
    assert CycInt(3, [1, 1, 1]).is_zero()
    total = CycInt.zero(5)
    for j in range(5):
        total = total + CycInt.root_power(5, j)
    assert total.is_zero()


def test_canonical_form_last_count_is_zero():
    w = CycInt(7, [3, 1, 4, 1, 5, 9, 2])
    assert w.counts[-1] == 0


def test_immutability():
    w = CycInt.from_integer(3, 1)
    with pytest.raises(AttributeError):
        w.p = 5


def test_ring_laws_random():
    rng = random.Random(42)
    for p in (3, 5, 7):
        for _ in range(25):
            a = CycInt(p, [rng.randrange(-9, 10) for _ in range(p)])
            b = CycInt(p, [rng.randrange(-9, 10) for _ in range(p)])
            c = CycInt(p, [rng.randrange(-9, 10) for _ in range(p)])
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a - a == 0
            assert a.conj().conj() == a
            assert (a * b).conj() == a.conj() * b.conj()


def test_integer_coercion():
    w = CycInt.root_power(3, 1)
    assert w + 2 == 2 + w
    assert 3 * w == w + w + w
    assert 5 - w == -(w - 5)
    assert CycInt.from_integer(3, 4) == 4


def test_root_power_multiplication_wraps():
    p = 5
    e = CycInt.root_power(p, 1)
    acc = CycInt.from_integer(p, 1)
    for _ in range(p):
        acc = acc * e
    assert acc == 1  # e^p = 1


def test_norm_sq():
    e = CycInt.root_power(3, 1)
    assert e.norm_sq() == 1
    assert (1 + e).norm_sq() == 1  # 1 + e is a unit in Z[e_3]
    assert CycInt.from_integer(3, -4).norm_sq() == 16


def test_mixed_primes_rejected():
    with pytest.raises(MixedP):
        CycInt.from_integer(3, 1) + CycInt.from_integer(5, 1)


def test_eta_matches_square_sets():
    for p in (3, 5, 7, 11, 13):
        squares = {(x * x) % p for x in range(1, p)}
        for c in range(p):
            if c == 0:
                assert eta(p, c) == 0
            elif c in squares:
                assert eta(p, c) == 1
            else:
                assert eta(p, c) == -1


def test_eta_is_multiplicative():
    p = 11
    for a in range(1, p):
        for b in range(1, p):
            assert eta(p, a * b) == eta(p, a) * eta(p, b)


def test_gauss_sum_square():
    assert gauss_sum(3) * gauss_sum(3) == -3
    assert gauss_sum(5) * gauss_sum(5) == 5
    for p in (3, 5, 7, 11, 13):
        g = gauss_sum(p)
        assert g * g == (-1) ** ((p - 1) // 2) * p
        assert g.norm_sq() == p
        assert g.conj() == eta(p, -1) * g


def test_shape_zeta_labels():
    # odd magnitude exponent drags the Gauss sum in; for p = 3 mod 4 that
    # factor carries the i
    assert ValueShape(3, 1, 0, 4).zeta == "1"
    assert ValueShape(3, -1, 0, 4).zeta == "-1"
    assert ValueShape(3, 1, 0, 3).zeta == "i"
    assert ValueShape(3, -1, 0, 3).zeta == "-i"
    assert ValueShape(5, 1, 0, 3).zeta == "1"
    assert ValueShape(5, -1, 0, 3).zeta == "-1"


def test_match_shape_examples():
    nine_e = CycInt(3, [0, 9, 0])
    s = match_shape(nine_e, 4)
    assert s is not None and (s.sign, s.j, s.zeta) == (1, 1, "1")

    w = 3 * gauss_sum(3)  # |w|^2 = 27
    s = match_shape(w, 3)
    assert s is not None and (s.zeta, s.j) == ("i", 0)

    assert match_shape(CycInt.zero(3), 4) is None
    assert match_shape(CycInt.from_integer(3, 5), 4) is None  # wrong magnitude


def test_shape_roundtrip_all_small():
    for p in (3, 5, 7):
        for mag in range(7):
            for sign in (1, -1):
                for j in range(p):
                    shape = ValueShape(p, sign, j, mag)
                    assert match_shape(shape.to_cyc_int(), mag) == shape


def test_shape_zeta_is_the_unit_left_by_the_magnitude_and_root():
    # value^2 = zeta^2 p^mag e^(2j): zeta is i or -i only where an odd power of
    # the Gauss sum of p = 3 mod 4 enters, and carries the shape's sign
    assert ValueShape(3, -1, 2, 9).zeta == "-i"
    assert ValueShape(5, -1, 2, 9).zeta == ValueShape(3, -1, 2, 8).zeta == "-1"
    for p in (3, 5, 7, 13):
        for sign, j, mag in itertools.product((1, -1), range(p), range(1, 5)):
            shape = ValueShape(p, sign, j, mag)
            w = shape.to_cyc_int()
            zeta_sq = -1 if shape.zeta.endswith("i") else 1
            assert w * w == CycInt.root_power(p, 2 * j) * (zeta_sq * p ** mag), shape
            assert shape.zeta.startswith("-") == (sign == -1), shape


def test_to_cyc_int_magnitude():
    for p in (3, 5):
        for mag in range(6):
            w = ValueShape(p, -1, 2, mag).to_cyc_int()
            assert w.norm_sq() == p ** mag


