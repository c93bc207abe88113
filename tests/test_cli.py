"""Command-line interface: exit codes, output shapes, global flags."""

import json
import time

import pytest

from effvec import format_matrix, generate, parse_matrix
from effvec.cli import build_parser, main


@pytest.fixture
def files(tmp_path, circulant4, double4, perturbed5, consistent3):
    def write(name, content):
        path = tmp_path / name
        path.write_text(content)
        return str(path)

    return {
        "circulant": write("circulant.txt", format_matrix(circulant4) + "\n"),
        "double": write("double.txt", format_matrix(double4) + "\n"),
        "perturbed": write("perturbed.txt", format_matrix(perturbed5) + "\n"),
        "consistent": write("consistent.txt", format_matrix(consistent3) + "\n"),
        "column": write("column.txt", "1 1/2 1 2\n"),
        "blend": write("blend.txt", "2 4 5 4\n"),
        "bad": write("bad.txt", "4\n1 2\n"),
        "trailing": write("trailing.txt", "2\n1 2\n1/2 1\n7 7 7\nfoo\n"),
        "tmp": tmp_path,
    }


class TestCheck:
    def test_efficient_exit_zero(self, files, capsys):
        assert main(["check", files["circulant"], files["column"]]) == 0
        out = capsys.readouterr().out
        assert "status: efficient" in out and "1 -> 4 -> 3 -> 2 -> 1" in out

    def test_inefficient_exit_one(self, files, capsys):
        assert main(["check", files["double"], files["blend"]]) == 1
        out = capsys.readouterr().out
        assert "status: inefficient" in out and "cut: 3" in out

    def test_parse_error_exit_two(self, files, capsys):
        assert main(["check", files["bad"], files["column"]]) == 2
        assert "error:" in capsys.readouterr().err

    def test_line_after_rows_exit_two(self, files, capsys):
        assert main(["check", files["trailing"], files["column"]]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "line 4: unexpected line" in captured.err

    def test_missing_file_exit_two(self, files):
        assert main(["check", str(files["tmp"] / "nope.txt"), files["column"]]) == 2

    def test_directory_exit_two(self, files, capsys):
        assert main(["check", str(files["tmp"]), files["column"]]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name,content",
        [
            ("huge.txt", "2\n1 1e999999999\n1e-999999999 1\n"),
            ("huge.json", '{"n": 2, "rows": [[1, 1e999999999], [1e-999999999, 1]]}'),
        ],
    )
    def test_unbounded_exponent_exit_two(self, files, capsys, name, content):
        path = files["tmp"] / name
        path.write_text(content)
        start = time.perf_counter()
        assert main(["check", str(path), files["column"]]) == 2
        assert time.perf_counter() - start < 1
        assert "bad rational literal '1e999999999'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind,content,literal,where",
        [
            ("matrix", "2\n1_0/3 1\n3/10 1\n", "1_0/3", "line 2, entry 1"),
            ("matrix", '{"n": 2, "rows": [["1/ 2", "2"], ["1/2", "1"]]}', "1/ 2", "row 1, entry 1"),
            ("vector", "1_0/3 1 1 1\n", "1_0/3", "component 1"),
            ("vector", '["1/ 2", "1", "1", "1"]', "1/ 2", "component 1"),
            ("weights", "1_0/3,1,1,1", "1_0/3", "--weights"),
        ],
        ids=["text", "json", "text-vector", "json-vector", "weights"],
    )
    def test_literal_outside_the_grammar_exit_two(self, files, capsys, kind, content, literal, where):
        # Every input literal is read by one reader: the same message at
        # each entry point, located where the literal stood.
        path = files["tmp"] / "input"
        path.write_text(content)
        argv = {
            "matrix": ["check", str(path), files["column"]],
            "vector": ["check", files["circulant"], str(path)],
            "weights": ["rank", files["circulant"], "--weights", content],
        }[kind]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {where}: bad rational literal {literal!r}\n"

    def test_underscore_in_dimension_exit_two(self, files, capsys):
        # int() alone would read '0_2' as 2; the dimension follows the
        # literal grammar, which has no underscore.
        path = files["tmp"] / "dimension.txt"
        path.write_text("0_2\n1 2\n1/2 1\n")
        vector = files["tmp"] / "vector.txt"
        vector.write_text("1 1\n")
        assert main(["check", str(path), str(vector)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 1: expected the dimension, got '0_2'\n"

    def test_long_json_integer_exit_two(self, files, capsys):
        path = files["tmp"] / "long.json"
        path.write_text('{"n": 2, "rows": [[1, 1' + "0" * 5000 + "], [1, 1]]}")
        assert main(["check", str(path), files["column"]]) == 2
        err = capsys.readouterr().err
        assert "matrix: integer literal exceeds the 4300-digit limit" in err
        assert "set_int_max_str_digits" not in err

    def test_json_output(self, files, capsys):
        assert main(["check", files["circulant"], files["column"], "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"status": "efficient", "cycle": [1, 4, 3, 2]}

    def test_global_flag_position(self, files, capsys):
        assert main(["--json", "check", files["circulant"], files["column"]]) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "efficient"


class TestDecompose:
    def test_text_report(self, files, capsys):
        assert main(["decompose", files["circulant"]]) == 0
        out = capsys.readouterr().out
        assert "cones (product < 1): 1" in out
        assert "product 1/16" in out
        assert out.count("extreme:") == 4

    def test_summary(self, files, capsys):
        assert main(["decompose", files["circulant"], "--summary"]) == 0
        out = capsys.readouterr().out
        assert "unit-product cycles: 4" in out and "extremes per cone: 4" in out

    def test_summary_builds_no_cone(self, files, capsys, monkeypatch):
        import effvec.cones
        import effvec.decomposition
        import effvec.reversals

        def refuse(*args):
            raise AssertionError("a summary needs no extreme ray")

        for module in (effvec.cones, effvec.decomposition, effvec.reversals):
            monkeypatch.setattr(module, "_rays", refuse)
        assert main(["decompose", files["double"], "--summary"]) == 0
        assert "extremes per cone: 4 4 4\n" in capsys.readouterr().out
        assert main(["decompose", files["double"], "--summary", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"cones": 3, "unit_cycles": 0, "extremes_per_cone": [4, 4, 4]}

    def test_summary_builds_no_record(self, files, capsys, monkeypatch):
        # A summary counts the walk's orders: no cone and no cycle record.
        import effvec.decomposition
        from effvec import HamiltonianCycle

        expected = {}
        text = format_matrix(generate("simple", 6, seed=0))
        path = files["tmp"] / "simple.txt"
        path.write_text(text)
        for flags in ([], ["--json"]):
            assert main(["decompose", str(path), "--summary", *flags]) == 0
            expected[tuple(flags)] = capsys.readouterr().out

        def refuse(*args):
            raise AssertionError("a summary builds no record")

        monkeypatch.setattr(effvec.decomposition, "EfficiencyCone", refuse)
        monkeypatch.setattr(HamiltonianCycle, "_unchecked", refuse)
        for flags in ([], ["--json"]):
            assert main(["decompose", str(path), "--summary", *flags]) == 0
            assert capsys.readouterr().out == expected[tuple(flags)]
        assert json.loads(expected[("--json",)]) == {"cones": 24, "unit_cycles": 72, "extremes_per_cone": [6] * 24}

    def test_json_round_trips(self, files, capsys):
        assert main(["decompose", files["circulant"], "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert parse_matrix(json.dumps(payload["matrix"])) is not None
        assert len(payload["cones"]) == 1
        assert payload["cones"][0]["product"] == "1/16"

    def test_convexity_flag(self, files, capsys):
        assert main(["decompose", files["double"], "--convexity"]) == 0
        out = capsys.readouterr().out
        assert "convexity: non_convex" in out and "witness" in out

    def test_convex_certificate(self, files, capsys):
        assert main(["decompose", files["circulant"], "--convexity"]) == 0
        assert "convexity: convex (shared-edges)\n  shared edges: " in capsys.readouterr().out
        assert main(["decompose", files["circulant"], "--summary", "--convexity", "--json"]) == 0
        convexity = json.loads(capsys.readouterr().out)["convexity"]
        assert convexity["verdict"] == "convex"
        assert [1, 4] in convexity["shared_edges"]  # an edge of the cone's cycle 1 -> 4 -> 3 -> 2

    def test_budget_flag_is_gone(self, files, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["decompose", files["double"], "--convexity", "--budget", "5"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --budget 5" in capsys.readouterr().err

    def test_summary_json_shows_consistent_ray(self, files, capsys):
        assert main(["decompose", files["consistent"], "--summary", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["ray"] == ["1", "1/2", "1/3"]

    def test_consistent_ray(self, files, capsys):
        assert main(["decompose", files["consistent"]]) == 0
        assert "single ray" in capsys.readouterr().out

    def test_output_beyond_digit_limit_writes_nothing(self, files, capsys):
        # Valid entries whose extreme rays need more than 4300 digits: the
        # report is refused whole, with the limit named.
        path = files["tmp"] / "digits.txt"
        path.write_text("3\n1 1e5000 2\n1e-5000 1 3\n1/2 1/3 1\n")
        assert main(["decompose", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "4300-digit limit" in captured.err
        assert "set_int_max_str_digits" not in captured.err

    def test_cap_exit_three(self, files, tmp_path, capsys):
        from effvec import generate

        big = tmp_path / "big.txt"
        big.write_text(format_matrix(generate("random", 11, seed=0)) + "\n")
        assert main(["decompose", str(big)]) == 3
        assert main(["decompose", files["perturbed"], "--cap", "4"]) == 3
        assert main(["decompose", files["perturbed"], "--cap", "5", "--summary"]) == 0


class TestReversals:
    def test_pair_list(self, files, capsys):
        assert main(["reversals", files["double"], files["blend"]]) == 0
        out = capsys.readouterr().out
        assert "count:" in out

    def test_cycle_restriction(self, files, capsys):
        assert main(
            ["reversals", files["circulant"], files["column"], "--cycle", "1,4,3,2"]
        ) == 0
        assert "along-cycle count:" in capsys.readouterr().out

    def test_minimize(self, files, capsys):
        assert main(
            ["reversals", files["circulant"], "--minimize", "--cycle", "1,4,3,2"]
        ) == 0
        out = capsys.readouterr().out
        assert "vector: 1 1/2 1/4 1/8" in out
        assert "along-cycle reversals: 1" in out
        assert "status: efficient" in out

    def test_minimize_needs_cycle(self, files):
        assert main(["reversals", files["circulant"], "--minimize"]) == 2

    def test_minimize_refuses_vector_file(self, files, capsys):
        argv = ["reversals", files["circulant"], files["bad"], "--minimize", "--cycle", "1,4,3,2"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--minimize takes no vector file" in captured.err

    def test_along_cycle_at_n2(self, files, capsys):
        matrix, vector = files["tmp"] / "m2.txt", files["tmp"] / "w2.txt"
        matrix.write_text("2\n1 2\n1/2 1\n")
        vector.write_text("1 1\n")
        assert main(["reversals", str(matrix), str(vector), "--cycle", "2,1"]) == 0
        out = capsys.readouterr().out
        assert out.endswith("\ncount: 1\nalong-cycle count: 1\n")

    def test_missing_vector(self, files):
        assert main(["reversals", files["circulant"]]) == 2

    def test_bad_cycle_list(self, files):
        assert (
            main(["reversals", files["circulant"], files["column"], "--cycle", "1,2"])
            == 2
        )


class TestPerturbed:
    def test_classify(self, files, capsys):
        assert main(["perturbed", "classify", files["perturbed"]]) == 0
        assert capsys.readouterr().out.strip() == "column"

    def test_classify_json(self, files, capsys):
        assert main(["perturbed", "classify", files["double"], "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"class": "double-in-column"}

    def test_canonicalize(self, files, capsys):
        assert main(["perturbed", "canonicalize", files["perturbed"]]) == 0
        out = capsys.readouterr().out
        assert "perturbed index: 1" in out

    def test_eff_set(self, files, capsys):
        assert main(["perturbed", "eff-set", files["perturbed"]]) == 0
        out = capsys.readouterr().out
        assert out.count("band (") == 6
        assert "5*w1 >= w2 >= w_k >= w3 >= 4*w1" in out

    def test_eff_set_json(self, files, capsys):
        assert main(["perturbed", "eff-set", files["double"], "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["bands"]) == 3
        assert payload["transform"]["perturbed_index"] == 1

    def test_not_perturbed_exit_one(self, files, capsys):
        assert main(["perturbed", "canonicalize", files["circulant"]]) == 1
        assert "not column-perturbed" in capsys.readouterr().err


class TestRank:
    def test_table(self, files, capsys):
        assert main(["rank", files["circulant"]]) == 0
        out = capsys.readouterr().out
        assert "method" in out and "column-1" in out and "perron" in out
        assert "columns share cone of cycle: 1 -> 4 -> 3 -> 2 -> 1" in out

    def test_json(self, files, capsys):
        assert main(["rank", files["circulant"], "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        methods = [c["method"] for c in payload["candidates"]]
        assert methods[:4] == ["column-1", "column-2", "column-3", "column-4"]
        assert "weighted-geometric" in methods
        assert all(c["efficient"] for c in payload["candidates"])
        assert payload["columns_common_cone"] == [1, 4, 3, 2]

    def test_custom_weights(self, files, capsys):
        assert main(["rank", files["circulant"], "--weights", "1/2,1/2,0,0"]) == 0

    def test_weight_count_error(self, files):
        assert main(["rank", files["circulant"], "--weights", "1/2,1/2"]) == 2

    def test_bad_weight_literal(self, files, capsys):
        assert main(["rank", files["circulant"], "--weights", "1/0,1,1,1"]) == 2
        assert "error: --weights: bad rational literal '1/0'" in capsys.readouterr().err
        start = time.perf_counter()
        assert main(["rank", files["circulant"], "--weights", "1e999999999,0,0,0"]) == 2
        assert time.perf_counter() - start < 1
        assert "error: --weights: bad rational literal '1e999999999'" in capsys.readouterr().err

    def test_large_ratios_reach_the_spectral_candidates(self, files, capsys):
        # The geometric mean no longer floors a component to 0; the Perron
        # iteration then meets |lambda_2| / lambda_1 = 1 - 6e-9 and reports it.
        path = files["tmp"] / "ratios.txt"
        path.write_text(f"3\n1 {10**25} 2\n1/{10**25} 1 3\n1/2 1/3 1\n")
        assert main(["rank", str(path)]) == 1
        err = capsys.readouterr().err
        assert "power iteration did not converge" in err
        assert "must be positive" not in err

    def test_entries_beyond_float_range_exit_two(self, files, capsys):
        path = files["tmp"] / "beyond.txt"
        path.write_text("3\n1 1e400 2\n1e-400 1 3\n1/2 1/3 1\n")
        assert main(["rank", str(path)]) == 2
        err = capsys.readouterr().err
        assert "error: perron power iteration needs entries within the float range" in err

    def test_large_weight_denominators_exit_three(self, files, capsys):
        # The lcm q of the denominators is 971230541; q-th roots at the
        # default tolerance would need radicands of billions of bits.
        start = time.perf_counter()
        code = main(["rank", files["circulant"], "--weights", "1/997,1/991,1/983,968288310/971230541"])
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "error: weighted geometric mean refused" in captured.err

    def test_cap_refused_before_any_candidate(self, files, capsys, monkeypatch):
        import effvec.cli
        from effvec import generate

        def refuse(*args):
            raise RuntimeError("a candidate was computed")

        monkeypatch.setattr(effvec.cli, "column_vector", refuse)
        big = files["tmp"] / "big.txt"
        big.write_text(format_matrix(generate("random", 11, seed=0)) + "\n")
        for extra in ([], ["--weights", ",".join(["1"] * 11)]):
            assert main(["rank", str(big), *extra]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "error: enumeration over (n-1)! cycles refused for n=11 (cap 10)" in captured.err
        # The weight count is still checked first.
        assert main(["rank", str(big), "--weights", "1,1"]) == 2

    def test_tolerance_below_float_range(self, files, capsys):
        # Power iteration cannot meet a tolerance at or below float epsilon,
        # so it is refused before any iteration runs.
        code = main(["rank", files["circulant"], "--tolerance", "1e-400"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "math domain error" not in captured.err
        assert "tolerance must exceed float epsilon 2**-52" in captured.err

    def test_tolerance_above_float_range(self, files, capsys):
        # Stops as the largest float tolerance does, with no traceback.
        outputs = []
        for tolerance in ("1e400", "1.7976931348623157e308"):
            assert main(["rank", files["circulant"], "--json", "--tolerance", tolerance]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            outputs.append(captured.out)
        assert outputs[0] == outputs[1]


class TestGenerate:
    def test_deterministic_bytes(self, capsys):
        assert main(["generate", "random", "4", "--seed", "7"]) == 0
        first = capsys.readouterr().out
        assert main(["generate", "random", "4", "--seed", "7"]) == 0
        assert capsys.readouterr().out == first
        parse_matrix(first)

    def test_out_file(self, tmp_path):
        target = tmp_path / "gen.txt"
        assert main(["generate", "consistent", "5", "--out", str(target)]) == 0
        from effvec import is_consistent

        assert is_consistent(parse_matrix(target.read_text()))

    def test_bad_kind_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "weird", "4"])
        assert exc.value.code == 2

    def test_column_kind_limit(self, capsys):
        assert main(["generate", "column", "56"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: kind 'column' needs n <= 55\n"

    def test_bad_dimension(self, capsys):
        assert main(["generate", "simple", "2"]) == 2


class TestSelfCheck:
    def test_passes(self, capsys):
        assert main(["self-check", "--trials", "25", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "cycle oracle" in out and "dominance" in out and "decomposition: ok" in out

    def test_failures_go_to_stderr_also_under_json(self, capsys, monkeypatch):
        # An improve that never moves a vector fails every inefficient trial.
        monkeypatch.setattr("effvec.cli.improve", lambda a, w: None)
        assert main(["--json", "self-check", "--trials", "5", "--seed", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out.splitlines()[1].endswith("inefficient dominated, FAIL")
        assert captured.err.startswith("FAIL: improved vector is not an efficient dominator on n=")


class TestConfig:
    def test_parser_built_once(self):
        assert build_parser() is build_parser()

    def test_bad_tolerance(self, files):
        assert main(["rank", files["circulant"], "--tolerance", "abc"]) == 2
        assert main(["rank", files["circulant"], "--tolerance", "0"]) == 2
        assert main(["rank", files["circulant"], "--tolerance", "1e-999999999"]) == 2

    def test_bad_cap(self, files):
        assert main(["decompose", files["circulant"], "--cap", "2"]) == 2

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--cap", "2"], "enumeration cap must be at least 3"),
            (["--tolerance", "-1"], "tolerance must be positive"),
            (["--tolerance", "0"], "tolerance must be positive"),
            (["--tolerance", "abc"], "bad rational literal 'abc'"),
        ],
    )
    def test_flag_messages(self, files, capsys, flags, message):
        # Either side of the subcommand.
        for argv in (["decompose", files["circulant"], *flags], [*flags, "decompose", files["circulant"]]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "command", ["check", "decompose", "reversals", "perturbed", "rank", "generate", "self-check"]
    )
    def test_help_lists_global_flags(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--json", "--cap", "--seed", "--tolerance"):
            assert flag in out
