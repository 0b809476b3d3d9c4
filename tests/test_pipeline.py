import pytest

from cdvdiv.pipeline import (
    AnalyzeOptions,
    CorpusResult,
    analyze,
    analyze_text,
    generate_corpus,
    run_corpus,
)
from cdvdiv.poly import parse_polynomial

P = parse_polynomial


class TestAnalyzeExamples:
    def test_cd4_example(self):
        result = analyze_text("x^2 + y^2*z + z^3 + t^3")
        assert result.classification.label() == "cD_4"
        reports = result.non_rational_reports()
        assert len(reports) == 1
        report = reports[0]
        assert report.weight.w == (2, 1, 1, 1)
        assert report.discrepancy == 1
        assert report.genus == 1
        assert report.hyperelliptic is True
        assert not result.uniqueness_violation

    def test_cd_family_member(self):
        result = analyze_text("x^2 + y^2*z + z^5 + t^5")
        assert result.classification.label() == "cD_6"
        reports = result.non_rational_reports()
        assert len(reports) == 1
        assert reports[0].weight.w == (3, 2, 1, 1)
        assert reports[0].genus == 2
        assert reports[0].hyperelliptic is True

    def test_ce7_example(self):
        result = analyze_text("x^2 + y^3 + y*z^3 + t^9")
        assert result.classification.label() == "cE7"
        reports = result.non_rational_reports()
        assert len(reports) == 1
        report = reports[0]
        assert report.weight.w == (5, 3, 2, 1)
        assert report.genus == 3
        assert report.hyperelliptic is False

    def test_ce8_example(self):
        result = analyze_text("x^2 + y^3 + z^5 + t^15")
        reports = result.non_rational_reports()
        assert len(reports) == 1
        report = reports[0]
        assert report.weight.w == (8, 5, 3, 1)
        assert report.genus == 4
        assert report.hyperelliptic is False

    def test_ordinary_double_point(self):
        result = analyze_text("x^2 + y^2 + z^2 + t^2")
        assert result.classification.label() == "cA_1"
        assert result.non_rational_count == 0
        assert not result.uniqueness_violation
        # the quadric itself is reported rational via the cA table rule
        quadric = result.weight_reports[0].components[0]
        assert quadric.verdict == "rational"

    def test_zero_input_rejected(self):
        from cdvdiv.poly import Polynomial

        with pytest.raises(ValueError):
            analyze(Polynomial.zero())

    def test_reduction_applied_before_diagram(self):
        # x-linear noise must not change the verdicts
        clean = analyze_text("x^2 + y^2*z + z^3 + t^3")
        noisy = analyze_text("x^2 + 2*x*t^2 + y^2*z + z^3 + t^3")
        assert noisy.classification == clean.classification
        assert [r.weight.w for r in noisy.non_rational_reports()] == [
            r.weight.w for r in clean.non_rational_reports()
        ]

    @pytest.mark.parametrize(
        "text,label",
        [
            ("x^2 + y^2 + z^2 + t^2", "cA_1"),
            # the type analysis itself raises: beyond the cE_8 range
            ("x^2 + y^3 + z^7 + t^7", "other"),
            # the type analysis returns "other": no quadratic part
            ("x^3 + y^3 + z^3 + t^3", "other"),
        ],
    )
    def test_failed_reduction_classifies_once(self, monkeypatch, text, label):
        from cdvdiv import normalform

        calls = []
        real = normalform._analyze_germ

        def counted(f, truncation):
            calls.append(f)
            return real(f, truncation)

        f = P(text)
        expected = normalform.classify_type(f)
        monkeypatch.setattr(normalform, "_analyze_germ", counted)
        result = analyze(f)
        assert len(calls) == 1
        assert result.classification == expected
        assert result.classification.label() == label

    def test_every_weight_has_discrepancy_one_base(self):
        result = analyze_text("x^2 + y^3 + z^5 + t^15")
        for wr in result.weight_reports:
            assert wr.weight.sum() - 1 - wr.support_value == 1
            for comp in wr.components:
                assert comp.discrepancy == comp.multiplicity


class TestCatalogRealizations:
    # Inputs tuned (via the pure t-power) so that specific catalog weights
    # carry the non-rational component; its genus must match the catalog:
    # genus 1 everywhere except the two large cones.
    @pytest.mark.parametrize(
        "text,weight,genus,hyper",
        [
            ("x^2 + y^3 + z^4 + t^4", (2, 2, 1, 1), 1, True),
            ("x^2 + y^3 + z^4 + t^6", (3, 2, 2, 1), 1, True),
            ("x^2 + y^3 + z^4 + t^8", (4, 3, 2, 1), 1, True),
            ("x^2 + y^3 + y*z^3 + t^12", (6, 4, 3, 1), 1, True),
            ("x^2 + y^3 + z^5 + t^6", (3, 2, 2, 1), 1, True),
            ("x^2 + y^3 + z^5 + z^3*t^5 + t^14", (7, 5, 3, 1), 1, True),
            ("x^2 + y^3 + z^5 + t^24", (12, 8, 5, 1), 1, True),
            ("x^2 + y^3 + z^5 + t^15", (8, 5, 3, 1), 4, False),
            ("x^2 + y^3 + y*z^3 + t^9", (5, 3, 2, 1), 3, False),
        ],
    )
    def test_realized_catalog_weight(self, text, weight, genus, hyper):
        result = analyze_text(text)
        reports = [r for r in result.non_rational_reports() if r.weight.w == weight]
        assert len(reports) == 1, [r.weight.w for r in result.non_rational_reports()]
        assert reports[0].genus == genus
        assert reports[0].hyperelliptic is hyper
        assert result.non_rational_count == 1

    def test_flagged_ce7_weights_stay_rational(self):
        # The weight y*z^3 is always on or below the level of x^2 and y^3 at
        # (3,2,1,1) and (3,3,1,1), so their faces contain a y-linear
        # monomial and the components come out rational - the inconsistency
        # the catalog correspondence flags.
        result = analyze_text("x^2 + y^3 + y*z^3 + t^6")
        by_weight = {wr.weight.w: wr for wr in result.weight_reports}
        for w in ((3, 2, 1, 1), (3, 3, 1, 1)):
            if w not in by_weight:
                continue
            for comp in by_weight[w].components:
                assert comp.verdict in ("rational", "rational_by_plt")


class TestCorpus:
    def test_generator_is_deterministic_and_large_enough(self):
        a = generate_corpus(seed=0)
        b = generate_corpus(seed=0)
        assert len(a) >= 100
        assert [i.label for i in a] == [i.label for i in b]
        assert [i.polynomial for i in a] == [i.polynomial for i in b]

    def test_small_corpus_slice(self):
        for instance in generate_corpus(seed=0)[:6]:
            result = analyze(
                instance.polynomial,
                AnalyzeOptions(check_faces=False),
            )
            assert result.classification.kind == instance.kind
            assert result.non_rational_count <= 1

    def test_seed_0_corpus_verdicts_are_all_decided(self):
        result = run_corpus(seed=0)
        assert result.ok
        assert result.undecided_verdicts == 0
        assert result.undecided_components == 0
        assert result.degenerate_exact_witness == result.degenerate_no_exact_witness == 0

    def test_verdict_counts_of_one_analysis(self):
        # The chart edge 256z^4 - 96z^2 + 32z - 3 = (4z - 1)^3 (4z + 3) is
        # degenerate; its singular point z = 1/4 is an exact witness.
        result = CorpusResult()
        result.count_verdicts(analyze_text("x^2 + y^3 + z^4 + z^3*t + y*z^3*t + t^5"))
        assert result.undecided_components == 1
        assert result.degenerate_exact_witness == 1
        assert result.degenerate_no_exact_witness == 0
        assert result.undecided_verdicts == 0

    def test_undecided_face_warns_and_counts(self, monkeypatch):
        from cdvdiv import pipeline
        from cdvdiv.newton import UNDECIDED, FaceVerdict

        undecided = FaceVerdict(UNDECIDED, "undecided (dimension 3): no exact test applies")
        monkeypatch.setattr(pipeline, "singular_torus_search", lambda g: undecided)
        analysis = analyze_text("x^2 + y^2*z + z^3 + t^3")
        warned = [w for w in analysis.warnings if "is undecided" in w]
        assert len(warned) == len(analysis.weight_reports) > 0
        result = CorpusResult()
        result.count_verdicts(analysis)
        assert result.undecided_verdicts == len(analysis.weight_reports)

    def test_run_corpus_summary_shape(self):
        result = run_corpus(seed=1)
        assert result.instances >= 100
        assert result.max_non_rational <= 1
        assert result.violations == 0
        assert result.ok
