"""Exact rational helpers: conversion, parsing, formatting, integer roots."""

import random
import time
from fractions import Fraction

import pytest

from effvec.rationals import (
    MAX_DECIMAL_EXPONENT,
    format_rational,
    nth_root_exact,
    nth_root_floor,
    parse_rational,
    rationalize,
)
from helpers import nth_root_floor_reference


class TestRationalize:
    def test_int(self):
        assert rationalize(3) == Fraction(3)

    def test_fraction_passthrough(self):
        assert rationalize(Fraction(2, 7)) == Fraction(2, 7)

    def test_float_is_exact_dyadic(self):
        assert rationalize(0.5) == Fraction(1, 2)
        assert rationalize(0.1) == Fraction(0.1)  # dyadic, not 1/10

    def test_string(self):
        assert rationalize("2/7") == Fraction(2, 7)

    def test_bool_rejected(self):
        with pytest.raises(TypeError):
            rationalize(True)


class TestParseFormat:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("3/4", Fraction(3, 4)),
            ("5", Fraction(5)),
            ("0.25", Fraction(1, 4)),
            ("2e-1", Fraction(1, 5)),
        ],
    )
    def test_parse(self, text, value):
        assert parse_rational(text) == value

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_rational("one half")

    def test_parse_large_exponents_exactly(self):
        assert parse_rational("1e300") == 10**300
        assert parse_rational("1E-300") == Fraction(1, 10**300)
        assert parse_rational(f"1e{MAX_DECIMAL_EXPONENT}") == 10**MAX_DECIMAL_EXPONENT

    @pytest.mark.parametrize("text", ["1e999999999", "1e-999999999", "2.5E+1_000_000", "1e10001"])
    def test_parse_refuses_unbounded_exponents(self, text):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="bad rational literal"):
            parse_rational(text)
        assert time.perf_counter() - start < 1

    def test_format_round_trip(self):
        for value in (Fraction(3, 4), Fraction(-2), Fraction(7), Fraction(1, 10**12)):
            assert parse_rational(format_rational(value)) == value

    def test_format_integers_bare(self):
        assert format_rational(Fraction(4)) == "4"
        assert format_rational(Fraction(1, 3)) == "1/3"


class TestRoots:
    def test_floor_root_exact(self):
        assert nth_root_floor(64, 3) == 4
        assert nth_root_floor(10**24, 2) == 10**12

    def test_floor_root_rounds_down(self):
        assert nth_root_floor(63, 3) == 3
        assert nth_root_floor(2**100 - 1, 100) == 1

    def test_exact_root_hit(self):
        assert nth_root_exact(Fraction(8, 27), 3) == Fraction(2, 3)

    def test_exact_root_miss(self):
        assert nth_root_exact(Fraction(2), 2) is None

    def test_unit_root(self):
        assert nth_root_exact(Fraction(1), 7) == Fraction(1)

    @pytest.mark.parametrize("n", [3, 4, 5, 7, 10, 64, 257, 1000])
    def test_floor_root_matches_reference_near_powers(self, n):
        for k in (2, 3, 10, 12345, 2**40 + 15):
            for x in (k**n - 1, k**n, k**n + 1):
                assert nth_root_floor(x, n) == nth_root_floor_reference(x, n), (k, n, x - k**n)

    def test_floor_root_matches_reference_on_random_radicands(self):
        rng = random.Random(8)
        cases = [(2**70000 - 1, 3), (2**70000 - 1, 1000), (2**70000, 1000)]
        cases += [(rng.getrandbits(rng.randint(1, 70000)), rng.randint(3, 1000)) for _ in range(20)]
        for x, n in cases:
            assert nth_root_floor(x, n) == nth_root_floor_reference(x, n), (x.bit_length(), n)
