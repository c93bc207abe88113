"""Text and JSON wire formats: parsing, emission, round-trips."""

import json
from fractions import Fraction

import pytest

from effvec import (
    HamiltonianCycle,
    ParseError,
    format_matrix,
    format_rational,
    format_vector,
    generate,
    is_efficient,
    matrix_to_json,
    parse_matrix,
    parse_vector,
)
from effvec.formats import certificate_to_json, cycle_to_json
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

    def test_line_after_last_row_refused(self):
        with pytest.raises(ParseError, match="line 5: unexpected line after the 2 matrix rows"):
            parse_matrix("2\n1 2\n1/2 1\n# comment\n7 7 7\nfoo\n")
        assert parse_matrix("2\n1 2\n1/2 1\n# comment\n\n").n == 2

    def test_reciprocity_error_wrapped(self):
        with pytest.raises(ParseError, match="not reciprocal"):
            parse_matrix("2\n1 3\n2 1\n")

    def test_bad_json_shape(self):
        with pytest.raises(ParseError):
            parse_matrix('{"rows": [["1"]]}')
        for rows in ("null", "5", "[1, 2]"):
            with pytest.raises(ParseError, match="list of lists"):
                parse_matrix('{"rows": ' + rows + "}")

    @pytest.mark.parametrize("n", ['"2"', "2.0", "true", "null", "[2]"])
    def test_json_n_must_be_an_integer(self, n):
        with pytest.raises(ParseError, match="'n' must be an integer"):
            parse_matrix('{"n": ' + n + ', "rows": [["1", "2"], ["1/2", "1"]]}')
        with pytest.raises(ParseError, match="'n' must be an integer"):
            parse_matrix('{"n": ' + n + ', "rows": [["1"]]}')
        assert parse_matrix('{"n": 2, "rows": [["1", "2"], ["1/2", "1"]]}').n == 2

    @pytest.mark.parametrize(
        "literal,message",
        [
            ("1e99999", "bad rational literal '1e99999'"),
            ("1" + "0" * 5000, "integer literal exceeds the 4300-digit limit"),
        ],
        ids=["exponent", "digits"],
    )
    def test_json_literal_refused_with_location(self, literal, message):
        # Unquoted numbers are read inside json.loads; one it cannot read is
        # a ParseError located at the input, as the text format's is.
        for parse, text, where in [
            (parse_matrix, '{"n": 2, "rows": [[1, ' + literal + "], [1, 1]]}", "matrix"),
            (parse_vector, f"[{literal}, 1]", "vector"),
        ]:
            with pytest.raises(ParseError) as exc:
                parse(text)
            assert str(exc.value) == f"{where}: {message}"
        with pytest.raises(ParseError, match="^line 2, entry 2: bad rational literal"):
            parse_matrix(f"2\n1 {literal}\n1 1\n")
        with pytest.raises(ParseError, match="^component 1: bad rational literal"):
            parse_vector(f"{literal} 1")

    def test_long_literal_echoed_as_prefix(self):
        # A long literal that cannot be read is echoed as its first 40
        # characters and its length, naming the digit limit when that is
        # the cause; a short one is echoed whole.
        digits = "1" + "0" * 5000
        with pytest.raises(ParseError) as exc:
            parse_matrix(f"2\n1 {digits}\n1 1\n")
        assert str(exc.value) == (
            f"line 2, entry 2: bad rational literal '{digits[:40]}'... (5001 characters): "
            "exceeds the 4300-digit limit"
        )
        with pytest.raises(ParseError) as exc:
            parse_vector("1 " + "x" * 41)
        assert str(exc.value) == f"component 2: bad rational literal '{'x' * 40}'... (41 characters)"
        with pytest.raises(ParseError) as exc:
            parse_vector("1 " + "x" * 40)
        assert str(exc.value) == f"component 2: bad rational literal '{'x' * 40}'"

    def test_deeply_nested_json(self):
        with pytest.raises(ParseError, match="bad JSON"):
            parse_matrix('{"rows": ' + "[" * 100_000)
        with pytest.raises(ParseError, match="bad JSON"):
            parse_vector("[" * 100_000)


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

    def test_certificate_json_one_based(self, circulant4, double4):
        assert cycle_to_json(HamiltonianCycle.from_vertices((0, 3, 1, 2))) == [1, 4, 2, 3]
        payload = certificate_to_json(is_efficient(circulant4, fractions(1, 1, 1, 1)))
        assert payload == {"status": "efficient", "cycle": [1, 4, 3, 2]}
        payload = certificate_to_json(is_efficient(double4, fractions(2, 4, 5, 4)))
        assert payload == {"status": "inefficient", "cut": [3]}


class TestFormatting:
    def test_format_rational(self):
        assert format_rational(Fraction(3)) == "3"
        assert format_rational(Fraction(1, 3)) == "1/3"

    def test_format_matrix_header(self, circulant4):
        lines = format_matrix(circulant4).splitlines()
        assert lines[0] == "4"
        assert len(lines) == 5
