"""Text and JSON wire formats: parsing, emission, round-trips, tampering."""

import json
from fractions import Fraction

import pytest

from effvec import (
    HamiltonianCycle,
    ParseError,
    decompose,
    format_matrix,
    format_rational,
    format_vector,
    generate,
    is_efficient,
    matrix_to_json,
    parse_matrix,
    parse_vector,
)
from effvec.formats import (
    certificate_to_json,
    cycle_from_json,
    cycle_to_json,
    decomposition_from_json,
    decomposition_to_json,
)
from effvec.generators import KINDS
from helpers import fractions


class TestParseMatrix:
    def test_text_with_comments_and_blanks(self):
        text = "# fixture\n\n2\n1 2\n\n1/2 1\n"
        assert parse_matrix(text).entries[0][1] == 2

    def test_decimal_entries(self):
        a = parse_matrix("2\n1 0.5\n2 1\n")
        assert a.entries[0][1] == Fraction(1, 2)

    def test_json_input(self):
        payload = {"n": 2, "rows": [["1", "1/3"], ["3", "1"]]}
        assert parse_matrix(json.dumps(payload)).entries[1][0] == 3

    def test_json_decimals_read_as_text_decimals(self):
        text = parse_matrix("2\n1 0.1\n10 1\n")
        assert parse_matrix('{"n":2,"rows":[[1,0.1],[10,1]]}') == text
        assert text.entries[0][1] == Fraction(1, 10)

    def test_error_location(self):
        with pytest.raises(ParseError, match="line 2, entry 2"):
            parse_matrix("2\n1 x\n1 1\n")

    def test_row_count_mismatch(self):
        with pytest.raises(ParseError, match="expected 3 rows"):
            parse_matrix("3\n1 2\n")

    def test_reciprocity_error_wrapped(self):
        with pytest.raises(ParseError, match="not reciprocal"):
            parse_matrix("2\n1 3\n2 1\n")

    def test_bad_json_shape(self):
        with pytest.raises(ParseError):
            parse_matrix('{"rows": [["1"]]}')


class TestVectors:
    def test_whitespace_tokens(self):
        assert parse_vector("1 1/2 0.25") == fractions(1, "1/2", "1/4")

    def test_json_array(self):
        assert parse_vector('["1", "2/3"]') == fractions(1, "2/3")

    def test_json_decimals_read_as_text_decimals(self):
        assert parse_vector("[0.1, 1]") == parse_vector("0.1 1") == fractions("1/10", 1)

    def test_rejects_nonpositive(self):
        with pytest.raises(ParseError):
            parse_vector("1 0")

    def test_round_trip(self):
        v = fractions(1, "7/3", "22/7")
        assert parse_vector(format_vector(v)) == v


class TestRoundTrips:
    def test_text_round_trip_random(self):
        for seed in range(10):
            a = generate("random", 4, seed=seed)
            assert parse_matrix(format_matrix(a)) == a

    def test_json_round_trip_random(self):
        for seed in range(10):
            a = generate("random", 5, seed=seed)
            assert parse_matrix(json.dumps(matrix_to_json(a))) == a

    def test_cycle_round_trip(self):
        c = HamiltonianCycle.from_vertices((0, 3, 1, 2))
        assert cycle_from_json(cycle_to_json(c)) == c
        assert cycle_to_json(c) == [1, 4, 2, 3]

    def test_certificate_json_one_based(self, circulant4, double4):
        payload = certificate_to_json(is_efficient(circulant4, fractions(1, 1, 1, 1)))
        assert payload == {"status": "efficient", "cycle": [1, 4, 3, 2]}
        payload = certificate_to_json(is_efficient(double4, fractions(2, 4, 5, 4)))
        assert payload == {"status": "inefficient", "cut": [3]}

    def test_decomposition_round_trip(self, circulant4, consistent3):
        for a in (circulant4, consistent3):
            d = decompose(a)
            rebuilt = decomposition_from_json(
                json.loads(json.dumps(decomposition_to_json(d)))
            )
            assert rebuilt.matrix == d.matrix
            assert rebuilt.cones == d.cones
            assert rebuilt.unit_cycles == d.unit_cycles
            assert rebuilt.ray == d.ray

    def test_decomposition_round_trip_every_kind(self):
        for kind in KINDS:
            for n in range(2 if kind in ("consistent", "random") else 3, 7):
                d = decompose(generate(kind, n, seed=n))
                payload = json.loads(json.dumps(decomposition_to_json(d)))
                assert decomposition_from_json(payload) == d

    def test_decomposition_dropped_cone_detected(self):
        payload = decomposition_to_json(decompose(generate("random", 4, seed=0)))
        del payload["cones"][0]
        with pytest.raises(ParseError, match="cones"):
            decomposition_from_json(payload)

    def test_decomposition_extra_unit_cycle_detected(self, circulant4):
        payload = decomposition_to_json(decompose(circulant4))
        payload["unit_cycles"].append([1, 2, 3, 4])
        with pytest.raises(ParseError, match="unit cycles"):
            decomposition_from_json(payload)

    def test_decomposition_wrong_ray_detected(self, circulant4, consistent3):
        payload = decomposition_to_json(decompose(consistent3))
        payload["ray"] = ["1", "2", "2"]
        with pytest.raises(ParseError, match="ray"):
            decomposition_from_json(payload)
        payload = decomposition_to_json(decompose(circulant4))
        payload["ray"] = ["1", "1", "1", "1"]
        with pytest.raises(ParseError, match="ray"):
            decomposition_from_json(payload)

    def test_decomposition_tamper_detected(self, circulant4):
        payload = decomposition_to_json(decompose(circulant4))
        payload["cones"][0]["product"] = "1/15"
        with pytest.raises(ParseError, match="product"):
            decomposition_from_json(payload)

    def test_decomposition_tampered_extreme_detected(self, circulant4):
        payload = decomposition_to_json(decompose(circulant4))
        payload["cones"][0]["extremes"][0] = ["1", "9", "4", "2"]
        with pytest.raises(ParseError):
            decomposition_from_json(payload)


class TestFormatting:
    def test_format_rational(self):
        assert format_rational(Fraction(3)) == "3"
        assert format_rational(Fraction(1, 3)) == "1/3"

    def test_format_matrix_header(self, circulant4):
        lines = format_matrix(circulant4).splitlines()
        assert lines[0] == "4"
        assert len(lines) == 5
