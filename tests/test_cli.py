import io
import json

from cdvdiv.cli import EXIT_INPUT_ERROR, EXIT_OK, RunConfig, main, run


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
        assert doc["schema_version"] == "2"
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
    )
    monkeypatch.setattr(cli, "run_corpus", lambda seed: counted)
    status, out, _err = run_config(RunConfig(command="corpus", output_format="structured"))
    assert status == EXIT_OK
    doc = json.loads(out)["report"]
    assert doc["undecided_verdicts"] == 4
    assert doc["undecided_components"] == 5
    assert doc["degenerate_verdicts"] == {"exact_witness": 6, "no_exact_witness": 7}
    status, out, _err = run_config(RunConfig(command="corpus"))
    assert "undecided verdicts: 4, undecided components: 5" in out
    assert "degenerate verdicts: 6 with an exact witness, 7 without" in out


class TestMainEntry:
    def test_main_classify(self, tmp_path, capsys):
        path = write_input(tmp_path, "x^2 + y^3 + z^4 + t^4")
        status = main(["classify", "--input", path])
        assert status == EXIT_OK
        assert capsys.readouterr().out.strip() == "cE6"
