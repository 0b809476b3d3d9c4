"""The certified truncation degree of the normal-form reduction.

Without a truncation the reduction works at the smallest degree D it can
certify: S_max = max sum(w) over the candidate polyhedron of the reduced
form g_D satisfies S_max <= D + 2.  Then g_D has the discrepancy-1 weights
and faces of the untruncated reduction, so `analyze` must find the same
weights, faces, components and verdicts at D as at the ceiling
`default_truncation`.  The germs are the golden `analyze` germs and a
seeded sample of the benchmark's `reduction` inputs whose analysis at the
ceiling is quick.
"""

import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from cdvdiv import normalform
from cdvdiv.lp import max_weight_sum
from cdvdiv.normalform import (
    ReductionError,
    default_truncation,
    reduce_to_normal_form,
    replay,
)
from cdvdiv.pipeline import AnalyzeOptions, analyze
from cdvdiv.poly import parse_polynomial
from test_structured_golden import ANALYZE_GERMS

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
from workloads import reduction_inputs  # noqa: E402


def _sampled_reduction_germs():
    rng = random.Random(12)
    perturbed = [inp for inp in reduction_inputs(1, tiny=False) if "perturbed" in inp.label]
    small = [inp for inp in reduction_inputs(0, tiny=False) if "+ 3 random" in inp.label]
    return [(inp.label, inp.polynomial) for inp in rng.sample(perturbed, 8) + small]


GERMS = [(text, parse_polynomial(text)) for text in ANALYZE_GERMS] + _sampled_reduction_germs()


def _reduce_or_none(f, truncation=None):
    try:
        return reduce_to_normal_form(f, truncation)
    except ReductionError:
        return None


@pytest.mark.parametrize("label, f", GERMS, ids=[label for label, _f in GERMS])
def test_certified_degree_matches_the_ceiling(label, f):
    ceiling = default_truncation(f)
    cert = _reduce_or_none(f)
    at_ceiling = _reduce_or_none(f, ceiling)
    assert (cert is None) == (at_ceiling is None)
    if cert is not None:
        degree = cert.truncation_degree
        assert cert.truncation_certified
        assert cert.s_max == max_weight_sum(cert.reduced.support())
        assert cert.s_max <= degree + 2 and degree <= ceiling
        assert replay(f, cert) == cert.reduced
        assert cert.type == at_ceiling.type
        assert cert.reduced == at_ceiling.reduced.truncate(degree)
    assert _divisors(analyze(f)) == _divisors(
        analyze(f, AnalyzeOptions(truncation=ceiling))
    )


def _divisors(result):
    return (
        result.classification,
        [
            (
                wr.weight.w,
                wr.face_dimension,
                wr.surface.equation,
                [(c.component, c.multiplicity, c.verdict, c.genus) for c in wr.components],
            )
            for wr in result.weight_reports
        ],
        result.non_rational_count,
    )


def test_s_max_just_above_the_bound_does_not_certify():
    # S_max = 22 for x^2 + y^3 + z^5 + t^15, attained at w = (10, 20/3, 4, 4/3).
    f = parse_polynomial("x^2 + y^3 + z^5 + t^15")
    assert max_weight_sum(f.support()) == 22
    above = reduce_to_normal_form(f, 19)
    assert (above.s_max, above.truncation_certified) == (22, False)
    assert any("not certified" in note for note in above.notes)
    assert reduce_to_normal_form(f, 20).truncation_certified
    assert reduce_to_normal_form(f).truncation_degree == 20
    # S_max = 206/13 lies in (13 + 2, 13 + 3].
    g = parse_polynomial("x^2 + y^3 + z^5 + y*t^6 + z*t^8")
    cert = reduce_to_normal_form(g, 13)
    assert cert.s_max == Fraction(206, 13)
    assert not cert.truncation_certified
    assert reduce_to_normal_form(g).truncation_degree == 14


def test_uncertified_truncation_warns():
    f = parse_polynomial("x^2 + y^3 + z^5 + t^15")
    result = analyze(f, AnalyzeOptions(truncation=19))
    assert any("not certified" in warning for warning in result.warnings)
    assert not any("not certified" in warning for warning in analyze(f).warnings)


def test_explicit_truncation_reduces_there_only(monkeypatch):
    degrees = []
    real = normalform._analyze_germ

    def counted(f, truncation):
        degrees.append(truncation)
        return real(f, truncation)

    monkeypatch.setattr(normalform, "_analyze_germ", counted)
    reduce_to_normal_form(parse_polynomial("x^2 + y^3 + z^5 + t^15"), 7)
    assert degrees == [7]


def test_search_raises_the_degree_every_round(monkeypatch):
    # Refuse the first two certificates whatever S_max says: the search must
    # still move up, by at least one degree a round.
    degrees = []
    real = normalform._certify

    def refusing(red):
        s_max, certified = real(red)
        assert red.truncation not in degrees
        degrees.append(red.truncation)
        return s_max, certified and len(degrees) > 2

    monkeypatch.setattr(normalform, "_certify", refusing)
    f = parse_polynomial("x^2 + y^3 + z^5 + t^15")
    assert reduce_to_normal_form(f).truncation_degree == 22
    assert degrees == [20, 21, 22]


def test_unbounded_candidates_double_the_degree(monkeypatch):
    # Report the input's polyhedron and the first reduced form's as
    # unbounded: the search starts at deg f = 15 and doubles to 30.
    degrees = []
    real_sum, real_certify = normalform.max_weight_sum, normalform._certify
    answers = iter([None, None])
    monkeypatch.setattr(
        normalform, "max_weight_sum", lambda points: next(answers, real_sum(points))
    )

    def recorded(red):
        degrees.append(red.truncation)
        return real_certify(red)

    monkeypatch.setattr(normalform, "_certify", recorded)
    cert = reduce_to_normal_form(parse_polynomial("x^2 + y^3 + z^5 + t^15"))
    assert degrees == [15, 30]
    assert (cert.truncation_degree, cert.s_max, cert.truncation_certified) == (30, 22, True)


def test_elimination_failure_retries_at_the_ceiling(monkeypatch):
    # Refused at every degree tried: the refusal is the one the ceiling gives.
    text = "x^2 + y^3 + y*z^3 + z^5 + z^6*t + t^9"
    f = parse_polynomial(text)
    degrees = []
    real = normalform._analyze_germ

    def counted(g, truncation):
        degrees.append(truncation)
        return real(g, truncation)

    monkeypatch.setattr(normalform, "_analyze_germ", counted)
    with pytest.raises(ReductionError) as info:
        reduce_to_normal_form(f)
    assert degrees[-1] == default_truncation(f) and len(degrees) == 2
    monkeypatch.setattr(normalform, "_analyze_germ", real)
    with pytest.raises(ReductionError) as direct:
        reduce_to_normal_form(f, default_truncation(f))
    assert str(info.value) == str(direct.value)


@pytest.mark.parametrize(
    "text, label",
    [
        # completing x^2 + x*t^4 leaves the residual -t^8/4, above the
        # start degree 2: it vanishes there, so the ceiling decides
        ("x^2 + y^2 + z^2 + x*t^4", "cA_7"),
        ("x^2 + y^2 + z^2 + t^3", "cA_2"),
    ],
)
def test_cA_residual_above_the_start_degree(text, label):
    assert normalform.classify_type(parse_polynomial(text)).label() == label


def test_type_jets_below_the_start_degree_move_up_to_them():
    # (x + y + z + t)^2 puts every variable in a square, so S_max = 4 and the
    # search starts at degree 2, where the cubic part is cut.
    f = parse_polynomial("x + y + z + t") ** 2 + parse_polynomial("y^2*z + z^3 + t^3")
    cert = reduce_to_normal_form(f)
    assert cert.type.label() == "cD_4"
    assert (cert.truncation_degree, cert.s_max, cert.truncation_certified) == (5, 6, True)
    # A smooth cubic: the cD_4 elimination refuses it, with the ceiling's text.
    g = parse_polynomial("x + y + z + t") ** 2 + parse_polynomial("y^3 + z^3 + t^3")
    with pytest.raises(ReductionError) as info:
        reduce_to_normal_form(g)
    assert str(info.value) == str(_refusal(g, default_truncation(g)))


def _refusal(f, truncation):
    try:
        reduce_to_normal_form(f, truncation)
    except ReductionError as err:
        return err
    raise AssertionError("not refused")
