"""Tests for permutations and the cycle-notation formats."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digsym.errors import DegreeMismatch, ParseError
from digsym.perm import (
    Permutation,
    format_cycles,
    parse_cycles,
    read_permutations,
    write_permutations,
)


def perms(degree):
    return st.permutations(range(degree)).map(Permutation)


class TestBasics:
    def test_compose_three_cycle_twice(self):
        p = parse_cycles("(0 1 2)", 3)
        assert format_cycles(p * p) == "(0 2 1)"
        for n in (0, 1):
            e = Permutation.identity(n)
            assert (e * e).images == tuple(range(n))

    def test_rotation_by_three(self):
        p = parse_cycles("(0 3)(1 4)(2 5)", 6)
        assert [p(i) for i in range(6)] == [3, 4, 5, 0, 1, 2]

    def test_inverse(self):
        p = parse_cycles("(0 1 2 3)", 4)
        assert (p * p.inverse()).is_identity()
        assert (~p)(1) == 0
        assert not p.is_identity()
        for n in (0, 1):
            e = Permutation(range(n))
            assert e == Permutation.identity(n) and e.is_identity()
            assert e.inverse() == e and (e * e.inverse()).is_identity()

    def test_order(self):
        assert parse_cycles("(0 1)(2 3 4)", 5).order() == 6
        assert Permutation.identity(0).order() == Permutation.identity(1).order() == 1

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatch):
            parse_cycles("(0 1)", 2) * parse_cycles("(0 1)", 3)
        with pytest.raises(DegreeMismatch):
            Permutation.identity(0) * Permutation.identity(1)

    def test_not_a_permutation(self):
        with pytest.raises(ValueError):
            Permutation([0, 0, 1])

    def test_images_must_be_integers(self):
        # Floats equal to 0..n-1 would pass the bijection test and fail
        # later, as table indices.
        for images in ([1.0, 0.0, 2.0], ["0"], [None]):
            with pytest.raises(TypeError):
                Permutation(images)
        p = Permutation([True, False])
        assert p.images == (1, 0) and type(p.images[0]) is int


class TestCycleText:
    def test_identity(self):
        assert format_cycles(Permutation.identity(4)) == "()"
        assert parse_cycles("()", 4).is_identity()

    def test_round_trip(self):
        p = parse_cycles("(0 4)(1 3 5)", 6)
        assert parse_cycles(format_cycles(p), 6) == p

    def test_commas_allowed(self):
        assert parse_cycles("(0, 1, 2)", 3) == parse_cycles("(0 1 2)", 3)

    def test_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_cycles("(0 1) junk", 3)

    def test_overlapping_cycles_rejected(self):
        with pytest.raises(ParseError):
            parse_cycles("(0 1)(1 2)", 3)

    def test_out_of_range(self):
        with pytest.raises(ParseError):
            parse_cycles("(0 9)", 3)


class TestPermutationFile:
    def test_round_trip(self):
        perms = [parse_cycles("(0 1 2)", 4), parse_cycles("(2 3)", 4)]
        degree, back = read_permutations(write_permutations(4, perms))
        assert degree == 4 and back == perms

    def test_header_required(self):
        with pytest.raises(ParseError):
            read_permutations("(0 1)\n")

    def test_error_cites_line(self):
        with pytest.raises(ParseError) as info:
            read_permutations("deg 4\n(0 1)\nnope\n")
        assert info.value.line == 3


class TestGroupLaws:
    @settings(max_examples=80, deadline=None)
    @given(perms(6), perms(6), perms(6))
    def test_associativity(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @settings(max_examples=80, deadline=None)
    @given(perms(6))
    def test_inverse_law(self, p):
        assert (p * ~p).is_identity() and (~p * p).is_identity()

    @settings(max_examples=80, deadline=None)
    @given(perms(6), perms(6))
    def test_composition_order(self, a, b):
        for x in range(6):
            assert (a * b)(x) == b(a(x))

    @settings(max_examples=50, deadline=None)
    @given(perms(7))
    def test_cycle_text_round_trip(self, p):
        assert parse_cycles(format_cycles(p), 7) == p
