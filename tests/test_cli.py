import io
import json
from fractions import Fraction

import pytest

from cdvdiv.cli import EXIT_INPUT_ERROR, EXIT_OK, RunConfig, _json_text, main, run


def write_input(tmp_path, text, name="f.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def run_config(config):
    out, err = io.StringIO(), io.StringIO()
    status = run(config, out=out, err=err)
    return status, out.getvalue(), err.getvalue()


class TestClassifyCommand:
    def test_ce7(self, tmp_path):
        path = write_input(tmp_path, "x^2 + y^3 + y*z^3 + t^9")
        status, out, _err = run_config(RunConfig(command="classify", input_path=path))
        assert status == EXIT_OK
        assert out.strip() == "cE7"

    def test_missing_file(self):
        status, _out, err = run_config(
            RunConfig(command="classify", input_path="/does/not/exist")
        )
        assert status == EXIT_INPUT_ERROR
        assert "not found" in err

    def test_empty_file(self, tmp_path):
        path = write_input(tmp_path, "")
        status, _out, err = run_config(RunConfig(command="analyze", input_path=path))
        assert status == EXIT_INPUT_ERROR
        assert "empty" in err

    def test_parse_error(self, tmp_path):
        path = write_input(tmp_path, "x^2 + w")
        status, _out, err = run_config(RunConfig(command="analyze", input_path=path))
        assert status == EXIT_INPUT_ERROR
        assert "position" in err

    def test_non_ascii_digits_are_parse_errors(self, tmp_path):
        for text in ("x^\u00b2 + y^3 + z^5 + t^7", "x^2 + y^3 + z^5 + t^\u0667"):
            path = write_input(tmp_path, text)
            for command in ("classify", "analyze"):
                status, out, err = run_config(RunConfig(command=command, input_path=path))
                assert status == EXIT_INPUT_ERROR
                assert out == ""
                assert err.startswith(f"error: cannot parse {path}: expected an integer")

    def test_directory_input(self, tmp_path):
        for command in ("classify", "analyze"):
            status, out, err = run_config(RunConfig(command=command, input_path=str(tmp_path)))
            assert status == EXIT_INPUT_ERROR
            assert out == ""
            assert err.startswith(f"error: cannot read {tmp_path}")

    def test_non_utf8_input(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes("x^2 + y^3 + z^4 + t^4 \u00e9".encode("latin-1"))
        status, out, err = run_config(RunConfig(command="analyze", input_path=str(path)))
        assert status == EXIT_INPUT_ERROR
        assert out == ""
        assert err.startswith(f"error: cannot read {path}")
        assert "utf-8" in err

    def test_truncation_below_one(self, tmp_path):
        path = write_input(tmp_path, "x^2 + y^3 + z^4 + t^4")
        for command in ("classify", "analyze"):
            for truncation in (0, -3):
                status, out, err = run_config(
                    RunConfig(command=command, input_path=path, truncation=truncation)
                )
                assert status == EXIT_INPUT_ERROR
                assert out == ""
                assert err == f"error: --truncation must be at least 1, not {truncation}\n"

    def test_truncation_below_the_order(self, tmp_path):
        # every term of the germ has degree >= 2, so degree 1 drops them all
        path = write_input(tmp_path, "x^2 + y^3 + z^4 + t^4")
        for command in ("classify", "analyze"):
            status, out, err = run_config(
                RunConfig(command=command, input_path=path, truncation=1)
            )
            assert status == EXIT_INPUT_ERROR
            assert out == ""
            assert err == (
                "error: truncation degree 1 is below the order 2 of the germ, "
                "so it drops every term\n"
            )

    def test_truncation_at_the_order_is_accepted(self, tmp_path):
        path = write_input(tmp_path, "x^3 + y^3 + z^3 + t^4")
        status, out, err = run_config(RunConfig(command="classify", input_path=path, truncation=3))
        assert (status, out.strip(), err) == (EXIT_OK, "other", "")

    def test_positive_truncation_is_accepted(self, tmp_path):
        path = write_input(tmp_path, "x^2 + y^3 + z^4 + t^4")
        status, out, err = run_config(RunConfig(command="classify", input_path=path, truncation=4))
        assert (status, out.strip(), err) == (EXIT_OK, "cE6", "")


class TestAnalyzeCommand:
    def test_cd4_text(self, tmp_path):
        path = write_input(tmp_path, "x^2 + y^2*z + z^3 + t^3")
        status, out, _err = run_config(RunConfig(command="analyze", input_path=path))
        assert status == EXIT_OK
        assert "non-rational discrepancy-1 components: 1" in out
        assert "genus 1" in out

    def test_structured_output_is_json_with_schema(self, tmp_path):
        path = write_input(tmp_path, "x^2 + y^2*z + z^3 + t^3")
        status, out, _err = run_config(
            RunConfig(command="analyze", input_path=path, output_format="structured")
        )
        assert status == EXIT_OK
        doc = json.loads(out)
        assert doc["schema_version"] == "3"
        assert doc["report"]["uniqueness"]["non_rational_discrepancy_one"] == 1
        assert doc["report"]["classification"] == "cD_4"

    def test_byte_identical_across_runs(self, tmp_path):
        path = write_input(tmp_path, "x^2 + y^3 + z^5 + t^15")
        config = RunConfig(
            command="analyze", input_path=path, output_format="structured", seed=7
        )
        _s1, out1, _ = run_config(config)
        _s2, out2, _ = run_config(config)
        assert out1 == out2

    def test_text_and_structured_agree(self, tmp_path):
        path = write_input(tmp_path, "x^2 + y^3 + y*z^3 + t^9")
        _s, text_out, _ = run_config(RunConfig(command="analyze", input_path=path))
        _s, json_out, _ = run_config(
            RunConfig(command="analyze", input_path=path, output_format="structured")
        )
        doc = json.loads(json_out)["report"]
        nonrational = [
            c
            for w in doc["weights"]
            for c in w["components"]
            if c["rationality"] == "non_rational"
        ]
        assert len(nonrational) == 1
        assert nonrational[0]["genus"] == 3
        assert "genus 3" in text_out
        assert str(doc["uniqueness"]["non_rational_discrepancy_one"]) in text_out


class TestOtherCommands:
    def test_diagram(self, tmp_path):
        path = write_input(tmp_path, "x^2 + y^2*z + z^3 + t^3")
        status, out, _err = run_config(RunConfig(command="diagram", input_path=path))
        assert status == EXIT_OK
        assert "vertices:" in out

    def test_weights(self, tmp_path):
        path = write_input(tmp_path, "x^2 + y^2*z + z^3 + t^3")
        status, out, _err = run_config(RunConfig(command="weights", input_path=path))
        assert status == EXIT_OK
        assert "(2, 1, 1, 1)" in out

    def test_non_isolated_input_is_an_input_error(self, tmp_path):
        path = write_input(tmp_path, "x^2 + y^2*z")
        for command in ("weights", "analyze"):
            status, out, err = run_config(RunConfig(command=command, input_path=path))
            assert status == EXIT_INPUT_ERROR
            assert out == ""
            assert "ray (1, 1, 0, 0)" in err
            assert "not an isolated cDV point" in err

    def test_germ_missing_a_variable_is_an_input_error(self, tmp_path):
        path = write_input(tmp_path, "x^2 + y^2*z + z^20")
        status, out, err = run_config(RunConfig(command="analyze", input_path=path))
        assert status == EXIT_INPUT_ERROR
        assert out == ""
        assert "whole t-axis is singular" in err

    def test_weights_refuses_what_analyze_refuses(self, tmp_path):
        for text, message in (
            ("1 + x^2 + y^2 + z^2 + t^2", "error: nonzero constant term"),
            ("x^2 + y^2*z + z^20", "error: t occurs in no monomial"),
        ):
            path = write_input(tmp_path, text)
            for command in ("weights", "analyze"):
                status, out, err = run_config(RunConfig(command=command, input_path=path))
                assert status == EXIT_INPUT_ERROR
                assert out == ""
                assert err.startswith(message)

    def test_lemmas_requires_type(self):
        status, _out, err = run_config(RunConfig(command="lemmas"))
        assert status == EXIT_INPUT_ERROR
        assert "--type" in err

    def test_lemmas_ce6(self):
        status, out, _err = run_config(
            RunConfig(command="lemmas", type_name="cE6", output_format="structured")
        )
        assert status == EXIT_OK
        doc = json.loads(out)["report"]
        assert len(doc["quadruples"]) == 4
        assert doc["weights"] == [[2, 2, 1, 1], [3, 2, 2, 1], [4, 3, 2, 1]]

    def test_lemmas_cd(self):
        status, out, _err = run_config(
            RunConfig(command="lemmas", type_name="cD:6", output_format="structured")
        )
        assert status == EXIT_OK
        doc = json.loads(out)["report"]
        assert [3, 2, 1, 1] in [q["weight"] for q in doc["quadruples"]]

    def test_bad_type(self):
        status, _out, err = run_config(RunConfig(command="lemmas", type_name="cZ9"))
        assert status == EXIT_INPUT_ERROR
        assert "unknown type" in err


def test_corpus_reports_verdict_counts(monkeypatch):
    from cdvdiv import cli
    from cdvdiv.pipeline import CorpusResult

    counted = CorpusResult(
        instances=3,
        undecided_verdicts=4,
        undecided_components=5,
        degenerate_exact_witness=6,
        degenerate_no_exact_witness=7,
        catalog_disagreements=8,
    )
    monkeypatch.setattr(cli, "run_corpus", lambda seed: counted)
    status, out, _err = run_config(RunConfig(command="corpus", output_format="structured"))
    assert status == EXIT_OK
    doc = json.loads(out)["report"]
    assert doc["undecided_verdicts"] == 4
    assert doc["undecided_components"] == 5
    assert doc["degenerate_verdicts"] == {"exact_witness": 6, "no_exact_witness": 7}
    assert doc["catalog_disagreements"] == 8
    assert doc["ok"]
    status, out, _err = run_config(RunConfig(command="corpus"))
    assert "undecided verdicts: 4, undecided components: 5" in out
    assert "degenerate verdicts: 6 with an exact witness, 7 without" in out
    assert "catalog disagreements: 8\n" in out


class TestMainEntry:
    def test_main_classify(self, tmp_path, capsys):
        path = write_input(tmp_path, "x^2 + y^3 + z^4 + t^4")
        status = main(["classify", "--input", path])
        assert status == EXIT_OK
        assert capsys.readouterr().out.strip() == "cE6"

    def test_main_rejects_unreadable_input_and_bad_truncation(self, tmp_path, capsys):
        assert main(["analyze", "--input", str(tmp_path)]) == EXIT_INPUT_ERROR
        assert "cannot read" in capsys.readouterr().err
        path = write_input(tmp_path, "x^2 + y^3 + z^4 + t^4")
        assert main(["analyze", "--input", path, "--truncation", "0"]) == EXIT_INPUT_ERROR
        assert "--truncation must be at least 1" in capsys.readouterr().err

    def test_main_rejects_truncation_below_the_order(self, tmp_path, capsys):
        path = write_input(tmp_path, "x^2 + y^3 + z^4 + t^4")
        for command in ("classify", "analyze"):
            assert main([command, "--input", path, "--truncation", "1"]) == EXIT_INPUT_ERROR
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "below the order 2 of the germ" in captured.err

    def test_main_weights_refuses_what_analyze_refuses(self, tmp_path, capsys):
        for text, message in (
            ("0", "the zero polynomial does not define a hypersurface germ"),
            ("1 + x^2 + y^2 + z^2 + t^2", "nonzero constant term"),
            ("x^2 + y^2*z + z^20", "t occurs in no monomial"),
        ):
            path = write_input(tmp_path, text)
            errors = []
            for command in ("weights", "analyze"):
                assert main([command, "--input", path]) == EXIT_INPUT_ERROR
                captured = capsys.readouterr()
                assert captured.out == ""
                errors.append(captured.err)
            assert message in errors[0]
            assert errors[0] == errors[1]


class TestStructuredWriter:
    """The structured format is the text of json.dumps(document, indent=2)."""

    def test_every_command_matches_the_stdlib(self, tmp_path):
        path = write_input(tmp_path, "x^2 + y^2*z + z^3 + t^3")
        configs = [
            RunConfig(command=command, input_path=path, output_format="structured")
            for command in ("classify", "diagram", "weights", "analyze")
        ] + [
            RunConfig(command="lemmas", type_name="cD:6", output_format="structured"),
            RunConfig(command="lemmas", type_name="cE8", output_format="structured"),
            RunConfig(command="corpus", output_format="structured"),
        ]
        for config in configs:
            status, out, err = run_config(config)
            assert (status, err) == (EXIT_OK, ""), config
            assert out == json.dumps(json.loads(out), indent=2) + "\n", config

    def test_writer_matches_the_stdlib(self):
        point = (3, -1, 0, 2**70)
        doc = {
            "empty dict": {},
            "empty list": [],
            "empty tuple": (),
            "nested empty": {"a": {}, "b": [[], {}], "c": [{"d": []}]},
            "strings": ['quote " backslash \\ newline \n tab \t', "\u2265 and \u00e9", ""],
            'key with " and \u2265': "value",
            "ints": [0, -7, 2**64 + 1, -(2**80)],
            "constants": [True, False, None],
            "points": [point, {"deeper": [point, point]}, point],
            "equal to a point, other types": [(1, 0), (True, 0), (1, False)],
            "strings in a tuple": ("x", "y"),
            "points in a tuple": ((1, 2), (3, 4)),
        }
        assert _json_text(doc, "\n", {}) == json.dumps(doc, indent=2)
        for value in (0, "s", None, True, [], {}, [1, [2, [3]]], (5, 6)):
            assert _json_text(value, "\n", {}) == json.dumps(value, indent=2)

    @pytest.mark.parametrize(
        "bad",
        [
            Fraction(1, 2),
            1.5,
            {1: "int key"},
            {"nested": [Fraction(3)]},
            [(1, 2), (Fraction(1), 2)],
            [(1, 2), (1.0, 2)],
        ],
    )
    def test_other_types_are_refused(self, bad):
        with pytest.raises(TypeError):
            _json_text(bad, "\n", {})
