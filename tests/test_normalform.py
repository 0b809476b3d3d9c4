import random
from fractions import Fraction

import pytest

from cdvdiv.normalform import (
    ReductionError,
    SingularityType,
    classify_type,
    default_truncation,
    reduce_to_normal_form,
    replay,
)
from cdvdiv.poly import Polynomial, Substitution, apply_substitution, parse_polynomial

P = parse_polynomial


class TestSingularityType:
    def test_labels(self):
        assert SingularityType("cD", 4).label() == "cD_4"
        assert SingularityType("cE7").label() == "cE7"

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            SingularityType("cD", 3)
        with pytest.raises(ValueError):
            SingularityType("cA")
        with pytest.raises(ValueError):
            SingularityType("cE6", 2)


class TestClassify:
    def test_example_types(self):
        assert classify_type(P("x^2 + y^2*z + z^3 + t^3")) == SingularityType("cD", 4)
        assert classify_type(P("x^2 + y^3 + y*z^3 + t^9")) == SingularityType("cE7")
        assert classify_type(P("x^2 + y^3 + z^4 + t^4")) == SingularityType("cE6")

    def test_higher_cd(self):
        for k in range(2, 7):
            f = P(f"x^2 + y^2*z + z^{2 * k - 1} + t^{2 * k - 1}")
            assert classify_type(f) == SingularityType("cD", 2 * k)

    def test_ce8(self):
        assert classify_type(P("x^2 + y^3 + z^5 + t^15")) == SingularityType("cE8")

    def test_smooth_and_errors(self):
        assert classify_type(P("x + y^2")).kind == "smooth"
        with pytest.raises(ValueError):
            classify_type(P("1 + x^2"))

    def test_quadric_is_cA1(self):
        assert classify_type(P("x^2 + y^2 + z^2 + t^2")) == SingularityType("cA", 1)

    def test_cA_parameters(self):
        assert classify_type(P("x^2 + y^2 + z^2 + t^3")) == SingularityType("cA", 2)
        assert classify_type(P("x^2 + y^2 + z^4 + t^4")).kind == "cA"

    def test_cA_with_cross_terms_only(self):
        # rank-2 quadratic part given by a single cross term
        assert classify_type(P("x*y + z^3 + t^3")).kind == "cA"

    def test_invariant_under_zt_swap(self):
        pairs = [
            ("x^2 + y^2*z + z^3 + t^3", "x^2 + y^2*t + t^3 + z^3"),
            ("x^2 + y^3 + z^4 + t^5", "x^2 + y^3 + t^4 + z^5"),
            ("x^2 + y^3 + y*z^3 + t^9", "x^2 + y^3 + y*t^3 + z^9"),
        ]
        for a, b in pairs:
            assert classify_type(P(a)) == classify_type(P(b))

    def test_invariant_under_rescaling(self):
        rng = random.Random(6)
        forms = [
            "x^2 + y^2*z + z^3 + t^3",
            "x^2 + y^3 + z^4 + t^4",
            "x^2 + y^3 + y*z^3 + t^9",
            "x^2 + y^3 + z^5 + t^15",
        ]
        for text in forms:
            f = P(text)
            base = classify_type(f)
            for _ in range(3):
                scales = [Fraction(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(4)]
                sub = Substitution(
                    tuple(
                        Polynomial.variable(v).scale(s)
                        for v, s in zip("xyzt", scales)
                    ),
                    truncation_degree=40,
                )
                assert classify_type(apply_substitution(f, sub)) == base


class TestReduce:
    def test_x_linear_term_removed(self):
        f = P("x^2 + 2*x*t^3 + y^3 + z^4")
        cert = reduce_to_normal_form(f)
        assert cert.reduced == P("x^2 + y^3 + z^4 - t^6")
        assert len(cert.applied_changes) == 1
        assert cert.type == SingularityType("cE6")

    def test_y_square_term_removed(self):
        f = P("x^2 + y^3 + 3*y^2*t^2 + z^4")
        cert = reduce_to_normal_form(f)
        assert cert.reduced == P("x^2 + y^3 - 3*y*t^4 + 2*t^6 + z^4")
        assert len(cert.applied_changes) == 1

    def test_fixed_point(self):
        f = P("x^2 + y^3 + z^4 + t^4")
        cert = reduce_to_normal_form(f)
        assert cert.reduced == f
        assert cert.applied_changes == ()

    def test_replay_reproduces_reduction(self):
        f = P("x^2 + 2*x*t^3 + y^3 + 3*y^2*t^2 + z^4 + t^5")
        cert = reduce_to_normal_form(f)
        assert replay(f, cert) == cert.reduced

    def test_idempotent(self):
        f = P("x^2 + 2*x*t^3 + y^3 + z^4 + t^5")
        cert = reduce_to_normal_form(f)
        again = reduce_to_normal_form(cert.reduced, cert.truncation_degree)
        assert again.applied_changes == ()
        assert again.reduced == cert.reduced

    def test_no_extra_x_monomials(self):
        f = P("x^2 + x*y^2 + x*z*t^2 + y^2*z + z^5 + t^5 + y*t^4")
        cert = reduce_to_normal_form(f)
        for exps in cert.reduced.support():
            if exps[0]:
                assert exps == (2, 0, 0, 0)

    def test_higher_x_power_removed(self):
        f = P("x^2 + x^3 + y^3 + z^4 + t^5")
        cert = reduce_to_normal_form(f)
        assert classify_type(cert.reduced) == SingularityType("cE6")
        for exps in cert.reduced.support():
            if exps[0]:
                assert exps == (2, 0, 0, 0)
        assert replay(f, cert) == cert.reduced

    def test_constraints_recorded(self):
        cert = reduce_to_normal_form(P("x^2 + y^3 + z^4 + t^4"))
        assert all(check.holds for check in cert.satisfied_constraints)
        assert any("x appears only" in check.name for check in cert.satisfied_constraints)

    def test_cA_rejected(self):
        with pytest.raises(ReductionError):
            reduce_to_normal_form(P("x^2 + y^2 + z^2 + t^2"))

    def test_smooth_rejected(self):
        with pytest.raises(ReductionError):
            reduce_to_normal_form(P("x + y^2"))

    def test_double_line_normalization(self):
        # y^2 t instead of y^2 z: the cubic's repeated line has cofactor t.
        f = P("x^2 + y^2*t + t^5 + z^5 + y*z^4")
        cert = reduce_to_normal_form(f)
        assert cert.type.kind == "cD"
        assert cert.reduced.coefficient((0, 2, 1, 0)) != 0
        assert replay(f, cert) == cert.reduced

    def test_structural_monomial_exposed_by_shear(self):
        # The pure minimum sits on t^4, so the z-power of the shape has to
        # be created by a shear; the level-by-level sweep that follows must
        # still converge and replay.
        f = P("x^2 + y^2*t + t^5 + z^5 + 2*x*z^2 + y^2*z^2")
        cert = reduce_to_normal_form(f, truncation_degree=10)
        assert cert.type == SingularityType("cD", 5)
        assert replay(f.truncate(10), cert) == cert.reduced


class TestEliminationRows:
    """Each germ needs a different row of the elimination rule table."""

    @pytest.mark.parametrize(
        "text, label, changes",
        [
            # cE6: the y^2 row and the z row, each several times.
            ("x^2 + y^3 + z^4 + z^3*t + y*z^3*t + t^5", "cE6", 7),
            # cE8: one kill in the z row through z^5.
            ("x^2 + y^3 + z^5 + t^5*z^3 + y*z^3*t + t^7 + z^4*t^2", "cE8", 1),
            # cD_5: the z-free y^2 row, which shears z through y^2 z.
            ("x^2 + y^2*z + z^4 + y^2*t^2 + t^5", "cD_5", 1),
        ],
    )
    def test_row_reduces_and_replays(self, text, label, changes):
        # At the ceiling degree, where the rows fire the counted times.
        f = P(text)
        cert = reduce_to_normal_form(f, default_truncation(f))
        assert cert.type.label() == label
        assert len(cert.applied_changes) == changes
        assert replay(f, cert) == cert.reduced
        again = reduce_to_normal_form(cert.reduced, cert.truncation_degree)
        assert again.applied_changes == ()


class TestLinearChange:
    def test_double_line_cubic_needs_a_real_change(self):
        # The cubic y^2*z + 2*y*z^2 + z^3 = z*(y + z)^2 has the double line
        # y + z, which the linear change y <- y - z moves onto y; the second
        # change, the cofactor z onto z, is the identity and is skipped.
        f = P("x^2 + y^2*z + 2*y*z^2 + z^3 + z^6 + t^6")
        cert = reduce_to_normal_form(f)
        assert cert.type.label() == "cD_7"
        assert [change.describe() for change in cert.applied_changes] == ["y <- y - z"]
        assert replay(f, cert) == cert.reduced == P("x^2 + y^2*z + z^6 + t^6")


class TestExposeStructuralMonomial:
    """A missing structural monomial is exposed by the z <-> t swap, or else by
    the first shear t <- t + lam*z that keeps the preserved monomials."""

    @pytest.mark.parametrize(
        "text, label, note, changes",
        [
            (
                "x^2 + y^3 + t^4 + z^5",
                "cE6",
                "swapped z and t to expose the structural monomial (0, 0, 4, 0)",
                1,
            ),
            (
                "x^2 + y^3 + y*t^3 + z^7",
                "cE7",
                "swapped z and t to expose the structural monomial (0, 1, 3, 0)",
                1,
            ),
            (
                "x^2 + y^3 + z^3*t + z*t^3",
                "cE6",
                "sheared t <- t + 1*z to expose the structural monomial (0, 0, 4, 0)",
                2,
            ),
            (
                # t <- t + z cancels z^4; the next shear exposes it.
                "x^2 + y^3 + z*t^3 - z^3*t",
                "cE6",
                "sheared t <- t + 2*z to expose the structural monomial (0, 0, 4, 0)",
                2,
            ),
            (
                # The swap would expose z^5 but lose y^2*z.
                "x^2 + y^2*z + t^5 + z^6",
                "cD_6",
                "sheared t <- t + 1*z to expose the structural monomial (0, 0, 5, 0)",
                14,
            ),
            (
                "x^2 + y^3 + z^2*t^3 + z^3*t^2",
                "cE8",
                "sheared t <- t + 1*z to expose the structural monomial (0, 0, 5, 0)",
                2,
            ),
        ],
    )
    def test_move_and_note(self, text, label, note, changes):
        f = P(text)
        cert = reduce_to_normal_form(f)
        assert cert.type.label() == label
        assert cert.notes == (note,)
        assert len(cert.applied_changes) == changes
        assert replay(f, cert) == cert.reduced
