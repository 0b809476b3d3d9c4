"""Classification of cDV hypersurface germs and reduction to normal form.

Target shapes (coefficients of the structural monomials stay arbitrary
nonzero rationals, since normalizing them to 1 would need radicals):

  cD_n : x^2 + y^2 z + z^(n-1) + sum a_i z^(i-1) t^(b_i) + a_n y t^(b_n)
  cE6  : x^2 + y^3 + z^4 + pure/mixed (z,t) terms with z-power <= 2
         + y-linear terms with z-power <= 2
  cE7  : x^2 + y^3 + y z^3 + (z,t) terms with z-power < k, z^k
         + y-linear terms with z-power <= 1
  cE8  : x^2 + y^3 + z^5 + (z,t) terms with z-power <= 3
         + y-linear terms with z-power <= 3

The reduction is the constructive one.  It completes the square to remove
every x-monomial except x^2 (an inverse-square-root power series handles
x-powers above 1) and normalizes the cubic part by exact linear changes.
Later changes replace only y, z or t, by x-free polynomials, so no
x-monomial comes back.  The disallowed y- and z-monomials are then removed
by one elimination loop driven by a rule table, `_RULES`, with a few rows
per type.  A row names a structural monomial (y^2 z, y^3, y z^3, z^4, z^5,
or the lowest pure z-power, read off the current polynomial), the
monomials it kills, and the variable it shears.  The rows of one type are
disjoint.  Each round the least offender picks its row, and one shear
through that row's structural monomial cancels the whole row at first
order.  A missing structural monomial is first exposed by a z <-> t swap
or a t <- t + lam*z shear where the row allows it.  Every applied
coordinate change is recorded and replayable, so certificates can be
verified independently.  Type detection routes on exact data: the
rank of the quadratic form, the factorization pattern of the ternary cubic
(reduced / double line / triple line), and the first nonzero of the
classical sequence (quartic pure part, cubic y-linear part, quintic pure
part) for the three cE flavours.

Every change is truncated at a total degree D.  Without an explicit degree
the reduction runs at the smallest D it certifies.  Write the untruncated
reduction as g = g_D + h with deg h > D, and let S_max be max sum(w) over
the candidate weights {w >= 1 : sum(w) - 2 <= w(g_D)} (`cdvdiv.lp`).  If
S_max <= D + 2 (and every change has minimal degree >= 1, so that
truncating each step truncates the composition), then:
  - w(h) >= D + 1 for every w >= 1;
  - w(g) <= w(g_D), so the candidates of g lie among those of g_D;
  - there sum(w) - 2 <= D < w(h), so w(g) = w(g_D), on the same face.
So g_D has the discrepancy-1 weights and faces of g.  The search starts at
ceil(S_max) - 2 of the input's own support and raises D until the
certificate holds; the old 2*deg + 4 (`default_truncation`) is only its
ceiling.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, comb
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from cdvdiv.factorize import rational_factors
from cdvdiv.lp import max_weight_sum, minimal_points
from cdvdiv.poly import (
    ExponentVector,
    Graded,
    Polynomial,
    Substitution,
    VARS,
    ZERO_EXPONENT,
    apply_substitution,
    from_integers,
    grlex_key,
    integer_form,
    mul_graded,
    total_degree,
)

X2: ExponentVector = (2, 0, 0, 0)
Y2Z: ExponentVector = (0, 2, 1, 0)
Y3: ExponentVector = (0, 3, 0, 0)
YZ3: ExponentVector = (0, 1, 3, 0)
Z4: ExponentVector = (0, 0, 4, 0)
Z5: ExponentVector = (0, 0, 5, 0)

Support = Tuple[ExponentVector, ...]

# Largest t <- t + lam*z shear tried to expose a structural monomial.
_MAX_SHEAR = 64


class ReductionError(Exception):
    """The reduction cannot reach (or certify) a normal form.

    `germ_type` is the cDV type that `reduce_to_normal_form` found before it
    stopped ("other" when the type analysis itself failed), so callers need
    not classify the germ again; it is None where no type was determined.
    `in_elimination` is True when the elimination that runs once the type
    is known raised it: its moves depend on the truncation degree.
    """

    in_elimination = False

    def __init__(self, message: str, germ_type: Optional[SingularityType] = None):
        super().__init__(message)
        self.germ_type = germ_type


@dataclass(frozen=True)
class SingularityType:
    kind: str  # cA | cD | cE6 | cE7 | cE8 | smooth | other
    n: Optional[int] = None

    def __post_init__(self):
        if self.kind not in ("cA", "cD", "cE6", "cE7", "cE8", "smooth", "other"):
            raise ValueError(f"unknown singularity kind {self.kind!r}")
        if self.kind == "cA" and (self.n is None or self.n < 1):
            raise ValueError("cA needs a parameter n >= 1")
        if self.kind == "cD" and (self.n is None or self.n < 4):
            raise ValueError("cD needs a parameter n >= 4")
        if self.kind in ("cE6", "cE7", "cE8", "smooth", "other") and self.n is not None:
            raise ValueError(f"{self.kind} takes no parameter")

    def label(self) -> str:
        return f"{self.kind}_{self.n}" if self.n is not None else self.kind


@dataclass(frozen=True)
class ConstraintCheck:
    name: str
    holds: bool


@dataclass(frozen=True)
class NormalFormCertificate:
    """`s_max` is max sum(w) over the candidate polyhedron of `reduced`
    (None when it is unbounded); `truncation_certified` says that
    s_max <= truncation_degree + 2 and every change has minimal degree >= 1,
    so the discrepancy-1 weights and faces of `reduced` are those of the
    untruncated reduction."""

    type: SingularityType
    reduced: Polynomial
    applied_changes: Tuple[Substitution, ...]
    satisfied_constraints: Tuple[ConstraintCheck, ...]
    truncation_degree: int
    notes: Tuple[str, ...] = ()
    s_max: Optional[Fraction] = None
    truncation_certified: bool = False


def default_truncation(f: Polynomial) -> int:
    """The largest truncation degree tried: twice the top degree plus 4.

    The reduction works at the smallest degree D its certificate accepts;
    this heuristic is only the ceiling of that search, and the degree at
    which an uncertified result or a refusal comes back.  The certificate:
    let g = g_D + h be the untruncated reduction, so deg h > D, and let
    S_max = max sum(w) over the candidates {w >= 1 : sum(w) - 2 <= w(g_D)}.
      - w(h) >= D + 1 for every w >= 1, since every term of h has degree > D;
      - w(g) <= w(g_D), so the candidates of g lie among those of g_D;
      - there sum(w) - 2 <= S_max - 2 <= D < w(h), so w(g) = w(g_D) on the
        same face: g and g_D have the same discrepancy-1 weights and faces.
    """
    return 2 * max(2, f.degree()) + 4


def replay(original: Polynomial, certificate: NormalFormCertificate) -> Polynomial:
    """Re-apply the recorded substitutions; must reproduce `reduced` exactly."""
    current = original.truncate(certificate.truncation_degree)
    for sub in certificate.applied_changes:
        current = apply_substitution(current, sub)
    return current


# ---------------------------------------------------------------------------
# Reduction engine
# ---------------------------------------------------------------------------


class _Reducer:
    def __init__(self, f: Polynomial, truncation: int):
        self.current = f.truncate(truncation)
        self.truncation = truncation
        self.changes: List[Substitution] = []
        # Safety net only: cycling is caught by the revisit cap in the
        # elimination loop.  Shears that expose structural monomials can
        # legitimately spray offenders across the whole degree range, so the
        # budget scales with the truncation.
        self.budget = 10 * max(4, len(f)) + 20 * truncation
        self.notes: List[str] = []
        # Set when the verdict rests on everything above the truncation
        # being absent: the residual of a rank >= 2 quadratic part vanished.
        self.residual_cut = False

    def apply(self, sub: Substitution) -> None:
        if self.budget <= 0:
            worst = min(self.current.support(), key=grlex_key)
            raise ReductionError(
                f"iteration budget exhausted while reducing (near monomial "
                f"{worst}); raise the truncation or check the input"
            )
        self.budget -= 1
        self.changes.append(sub)
        self.current = apply_substitution(self.current, sub)

    def single(self, var: str, replacement: Polynomial) -> None:
        self.apply(Substitution.single(var, replacement, self.truncation))

    def coefficient(self, exps: ExponentVector) -> Fraction:
        return self.current.coefficient(exps)


def _quadratic_matrix(f: Polynomial) -> List[List[Fraction]]:
    q = [[Fraction(0)] * 4 for _ in range(4)]
    for exps, coeff in f.items():
        if total_degree(exps) != 2:
            continue
        idx = [i for i in range(4) for _ in range(exps[i])]
        i, j = idx
        if i == j:
            q[i][i] = coeff
        else:
            q[i][j] += coeff / 2
            q[j][i] += coeff / 2
    return q


def _diagonalize_quadratic(red: _Reducer) -> List[int]:
    """Make the degree-2 part diagonal by linear changes; return carriers."""
    active = [0, 1, 2, 3]
    carriers: List[int] = []
    for _ in range(12):
        q = _quadratic_matrix(red.current)
        pivot = next((i for i in active if q[i][i] != 0), None)
        if pivot is None:
            cross = next(
                (
                    (i, j)
                    for i in active
                    for j in active
                    if i < j and q[i][j] != 0
                ),
                None,
            )
            if cross is None:
                break
            i, j = cross
            red.single(VARS[i], Polynomial.variable(VARS[i]) + Polynomial.variable(VARS[j]))
            continue
        off = [j for j in active if j != pivot and q[pivot][j] != 0]
        if off:
            repl = Polynomial.variable(VARS[pivot])
            for j in off:
                repl = repl - Polynomial.variable(VARS[j]).scale(
                    q[pivot][j] / q[pivot][pivot]
                )
            red.single(VARS[pivot], repl)
        carriers.append(pivot)
        active.remove(pivot)
    else:
        raise ReductionError("quadratic diagonalization did not settle")
    return carriers


def _permute_variables(red: _Reducer, order: Sequence[int]) -> None:
    """Relabel variables so that old variable order[i] becomes variable i."""
    if list(order) == [0, 1, 2, 3]:
        return
    repls: List[Polynomial] = [Polynomial.zero()] * 4
    for new_slot, old_slot in enumerate(order):
        repls[old_slot] = Polynomial.variable(VARS[new_slot])
    red.apply(Substitution(tuple(repls), red.truncation))


def _binomial_half_series(u: Polynomial, degree: int) -> Polynomial:
    """(1 + u)^(-1/2) as a power series truncated at `degree`.

    u must have minimal degree >= 1.  With u = N/d the j-th term is
    (-1)^j C(2j, j) N^j / (4d)^j, so the terms are summed as integers over
    (4d)^J, J the last power that reaches `degree`; each power of N is the
    one below it times N, truncated as it is formed.
    """
    form, den = integer_form(u)
    last = degree // u.min_degree()
    base = 4 * den
    total: Dict[ExponentVector, int] = {}
    power: Graded = [{ZERO_EXPONENT: 1}]
    for j in range(last + 1):
        if j:
            power = mul_graded(power, form, degree)
        weight = (-1) ** j * comb(2 * j, j) * base ** (last - j)
        for group in power:
            for e, c in group.items():
                total[e] = total.get(e, 0) + weight * c
    return from_integers(total, base**last)


def _eliminate_square_variable(red: _Reducer, var_index: int) -> None:
    """Remove every monomial containing the variable except its pure square.

    Works in rounds, each a single substitution: complete the square against
    the whole linear-in-v part at once (v <- v - L/(2c)), then absorb all
    higher v-powers through one inverse-square-root series
    (v <- v (1 + U)^(-1/2)).  Every round at least doubles the headroom of
    the lowest offender, so only O(log truncation) substitutions are needed.
    """
    previous_min = None
    while True:
        step = _square_round(red, var_index, previous_min)
        if step is None:
            return
        previous_min, repl = step
        red.single(VARS[var_index], repl)


def _square_round(red: _Reducer, var_index: int, previous_min):
    """(grlex key of the lowest offender, replacement) of the next round of
    `_eliminate_square_variable`, or None when no offender is left.

    Built apart from the substitution, so that the offender maps are freed
    before it runs.
    """
    square = tuple(2 if i == var_index else 0 for i in range(4))
    name = VARS[var_index]
    offenders = [e for e in red.current.support() if e[var_index] >= 1 and e != square]
    if not offenders:
        return None
    lowest = grlex_key(min(offenders, key=grlex_key))
    if previous_min is not None and lowest <= previous_min:
        raise ReductionError(f"no progress while eliminating {name}-monomials")
    c = red.coefficient(square)
    if c == 0:
        raise ReductionError(
            f"cannot remove {min(offenders)}: the square {name}^2 is missing"
        )
    # Batch the phase the lowest offender belongs to; the other phase's
    # terms are untouched at first order, so this is what guarantees the
    # strict progress checked above.
    lin_min = min((grlex_key(e) for e in offenders if e[var_index] == 1), default=None)
    if lin_min is not None and lin_min == lowest:
        linear = {
            tuple(0 if i == var_index else e[i] for i in range(4)): red.coefficient(e)
            for e in offenders
            if e[var_index] == 1
        }
        return lowest, Polynomial.variable(name) - Polynomial(linear).scale(
            Fraction(1, 2) / c
        )
    # v * series is truncated at the cutoff, so the series stops one degree
    # below it.
    series = _binomial_half_series(
        Polynomial(
            {
                tuple(e[i] - square[i] for i in range(4)): red.coefficient(e) / c
                for e in offenders
                if e[var_index] >= 2
            }
        ),
        red.truncation - 1,
    )
    return lowest, Polynomial.variable(name) * series


def _part(f: Polynomial, predicate) -> Polynomial:
    return Polynomial({e: c for e, c in f.items() if predicate(e)})


def _cubic_part(f: Polynomial) -> Polynomial:
    return _part(f, lambda e: e[0] == 0 and total_degree(e) == 3)


def _linear_change(red: _Reducer, rows: List[List[Fraction]]) -> None:
    """Change (y, z, t) so that the form with coefficients rows[i] becomes
    the (i+1)-th variable; rows must be an invertible 3x3 matrix."""
    inv = _invert3(rows)
    repls = [Polynomial.variable("x")]
    for i in range(3):
        repl = Polynomial.zero()
        for j in range(3):
            if inv[i][j]:
                repl = repl + Polynomial.variable(VARS[1 + j]).scale(inv[i][j])
        repls.append(repl)
    sub = Substitution(tuple(repls), red.truncation)
    if not sub.is_identity():
        red.apply(sub)


def _invert3(rows: List[List[Fraction]]) -> List[List[Fraction]]:
    a = [[Fraction(v) for v in row] + [Fraction(int(i == k)) for k in range(3)]
         for i, row in enumerate(rows)]
    for col in range(3):
        pivot = next((r for r in range(col, 3) if a[r][col] != 0), None)
        if pivot is None:
            raise ReductionError("singular linear change requested")
        a[col], a[pivot] = a[pivot], a[col]
        scale = a[col][col]
        a[col] = [v / scale for v in a[col]]
        for r in range(3):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [v - factor * w for v, w in zip(a[r], a[col])]
    return [row[3:] for row in a]


def _linear_coeffs(linear: Polynomial) -> List[Fraction]:
    """Coefficients of a linear form in (y, z, t)."""
    coeffs = [Fraction(0)] * 3
    for exps, c in linear.items():
        if total_degree(exps) != 1 or exps[0] != 0:
            raise ReductionError(f"not a linear form in y,z,t: {linear}")
        coeffs[exps[1:].index(1)] = c
    return coeffs


def _complete_to_basis(form: List[Fraction], fixed_first: bool = False):
    """Rows of an invertible matrix whose first (or second) row is `form`."""
    units = [[Fraction(int(i == k)) for k in range(3)] for i in range(3)]
    pivot = next(i for i in range(3) if form[i] != 0)
    others = [units[i] for i in range(3) if i != pivot]
    if fixed_first:
        # Keep y fixed; the form becomes the z-slot.
        if form[0] != 0 and all(form[i] == 0 for i in (1, 2)):
            raise ReductionError("cofactor line is proportional to y")
        pivot = next(i for i in (1, 2) if form[i] != 0)
        keep = 2 if pivot == 1 else 1
        return [units[0], form, units[keep]]
    return [form] + others


def _shear_until(
    red: _Reducer,
    target: ExponentVector,
    preserve: Tuple[ExponentVector, ...] = (),
) -> None:
    """Expose the structural monomial `target` (make its coefficient nonzero).

    Tries the z <-> t swap first (the cheap case of a mislabelled input),
    then shears t <- t + lam*z with increasing integer lam.  A candidate is
    only accepted if the monomials in `preserve` keep nonzero coefficients.
    """
    if red.coefficient(target) != 0:
        return
    swap = Substitution(
        (
            Polynomial.variable("x"),
            Polynomial.variable("y"),
            Polynomial.variable("t"),
            Polynomial.variable("z"),
        ),
        red.truncation,
    )
    swapped = apply_substitution(red.current, swap)
    if swapped.coefficient(target) != 0 and all(
        swapped.coefficient(e) != 0 for e in preserve if red.coefficient(e) != 0
    ):
        red.apply(swap)
        red.notes.append(
            f"swapped z and t to expose the structural monomial {target}"
        )
        return
    for lam in range(1, _MAX_SHEAR + 1):
        probe = apply_substitution(
            red.current,
            Substitution.single(
                "t",
                Polynomial.variable("t") + Polynomial.variable("z").scale(lam),
                red.truncation,
            ),
        )
        if probe.coefficient(target) != 0 and all(
            probe.coefficient(e) != 0 for e in preserve if red.coefficient(e) != 0
        ):
            red.single(
                "t", Polynomial.variable("t") + Polynomial.variable("z").scale(lam)
            )
            red.notes.append(
                f"sheared t <- t + {lam}*z to expose the structural monomial "
                f"{target}"
            )
            return
    raise ReductionError(f"could not expose structural monomial {target}")


@dataclass(frozen=True)
class _Rule:
    """One row of an elimination table: the monomials e != struct with
    members(e, struct) are killed in one batch by shearing variable `var`
    through `struct`.  `struct` is fixed or read off the sorted support
    (None: no offenders).  A missing `struct` is exposed by `_shear_until`
    keeping `preserve`, or is an error when `preserve` is None.
    """

    members: Callable[[ExponentVector, ExponentVector], bool]
    struct: Union[ExponentVector, Callable[[Support], Optional[ExponentVector]]]
    var: int
    preserve: Optional[Tuple[ExponentVector, ...]] = None


def _run_elimination(red: _Reducer, rules: Sequence[_Rule]) -> None:
    # Corrections of one kill may revive an already-killed lower offender
    # (structural monomials share variables, and allowed monomials below the
    # structural level feed back one level per round), so progress is
    # policed by a per-monomial revisit cap scaled to the truncation depth
    # rather than by strict grlex monotonicity; a genuine cycle keeps
    # hitting the same monomials beyond any level count.
    cap = red.truncation + 6
    kill_counts: Dict[ExponentVector, int] = {}
    while True:
        support = red.current.support()
        rows = [(r, r.struct(support) if callable(r.struct) else r.struct) for r in rules]
        # The rows of a table are disjoint, so each offender has one row.
        offenders = [
            (e, rule, struct)
            for e in support
            for rule, struct in rows
            if struct is not None and e != struct and rule.members(e, struct)
        ]
        if not offenders:
            return
        m, rule, struct = offenders[0]
        kill_counts[m] = kill_counts.get(m, 0) + 1
        if kill_counts[m] > cap:
            raise ReductionError(
                f"elimination is cycling near monomial {m}; the input is "
                "outside the certified reduction moves"
            )
        if rule.preserve is not None and red.coefficient(struct) == 0:
            _shear_until(red, struct, rule.preserve)
            continue  # re-evaluate the offenders against the new support
        _kill_with_struct(red, struct, rule.var, [e for e, r, _ in offenders if r is rule])


def _kill_with_struct(red: _Reducer, struct: ExponentVector, var_index: int, members):
    """Shear the struct variable to cancel the target monomials.

    With struct = v^k * w (v the sheared variable), the replacement
    v <- v - (a / (k c)) * m / (v^(k-1) w) removes m exactly at first order;
    since the first-order effect is linear, a whole batch of monomials
    served by the same (struct, v) pair is removed by one substitution
    (their cross terms land at strictly higher grlex order).
    """
    c = red.coefficient(struct)
    if c == 0:
        raise ReductionError(
            f"cannot eliminate {members[0]}: structural monomial {struct} is missing"
        )
    k = struct[var_index]
    # v - shift as one term map: v itself is never a shift, since m != struct.
    repl = {tuple(int(i == var_index) for i in range(4)): Fraction(1)}
    for member in members:
        delta = [member[i] - struct[i] for i in range(4)]
        delta[var_index] += 1
        if any(d < 0 for d in delta):
            raise ReductionError(f"{member} is not divisible by {struct} / v")
        repl[tuple(delta)] = -red.coefficient(member) / (k * c)
    red.single(VARS[var_index], Polynomial(repl))


# ---------------------------------------------------------------------------
# Type-specific elimination rule tables
# ---------------------------------------------------------------------------


def _cd_pure_struct(support: Support) -> Optional[ExponentVector]:
    """z^m, m the least degree of a (z,t)-monomial: the cD z^(n-1) slot."""
    for e in support:
        if e[0] == e[1] == 0 and total_degree(e) > 0:
            return (0, 0, total_degree(e), 0)
    return None


def _cd_parameters(g: Polynomial) -> Tuple[Optional[int], Optional[int]]:
    """(pure_min, n) for the current cD-shaped polynomial."""
    support = g.support()
    struct = _cd_pure_struct(support)
    pure_min = struct[2] if struct else None
    y_ts = [
        e[3]
        for e in support
        if e[0] == 0 and e[1] == 1 and e[2] == 0 and e[3] >= 1
    ]
    candidates = []
    if pure_min is not None:
        candidates.append(pure_min + 1)
    if y_ts:
        candidates.append(2 * min(y_ts))
    n = min(candidates) if candidates else None
    return pure_min, n


def _lowest_pure_z(support: Support) -> Optional[ExponentVector]:
    """The lowest pure z-power z^k: the cE7 z^k slot."""
    for e in support:
        if e[0] == e[1] == e[3] == 0 and e[2] > 0:
            return e
    return None


def _zt_at_or_above(e: ExponentVector, struct: ExponentVector) -> bool:
    """y-free monomials with z-power at least that of the structural z^k."""
    return e[1] == 0 and e[2] >= struct[2]


# y^2-divisible monomials through y^3, shearing y: the first row of every cE
# table, and the sweep that runs before the cE flavour is decided.
_Y3_ROW = _Rule(lambda e, s: e[1] >= 2, Y3, 1)


def _ce_z_row(struct: ExponentVector) -> _Rule:
    """The z row of cE6 / cE8: at most y-linear monomials with z-power at
    least 3 / 4, through z^4 / z^5, shearing z."""
    return _Rule(
        lambda e, s: e[1] < 2 and e[2] >= s[2] - 1, struct, 2, preserve=(Y3, YZ3)
    )


_RULES: Dict[str, Tuple[_Rule, ...]] = {
    "cD": (
        # y- and z-divisible: the y-shear leaves the z-structural monomials
        # alone, so these kills cannot feed the pure-z kills below.
        _Rule(lambda e, s: e[1] >= 1 and e[2] >= 1, Y2Z, 1),
        # z-free: the z-shear through y^2 z has z-free correction terms.
        _Rule(lambda e, s: e[1] >= 2 and e[2] == 0, Y2Z, 2),
        _Rule(_zt_at_or_above, _cd_pure_struct, 2, preserve=(Y2Z,)),
    ),
    "cE6": (_Y3_ROW, _ce_z_row(Z4)),
    "cE7": (
        _Y3_ROW,
        _Rule(lambda e, s: e[1] == 1 and e[2] >= 2, YZ3, 2),
        _Rule(_zt_at_or_above, _lowest_pure_z, 2),
    ),
    "cE8": (_Y3_ROW, _ce_z_row(Z5)),
}


# ---------------------------------------------------------------------------
# Shape verification
# ---------------------------------------------------------------------------


def _cd_shape(g: Polynomial):
    pure_min, n = _cd_parameters(g)
    if n is None or n < 4:
        return None, [], f"no transverse (z,t) or y*t monomials (n undetermined)"
    checks = [
        ConstraintCheck("x appears only as x^2", True),
        ConstraintCheck(
            f"n = {n} from pure (z,t) minimum {pure_min} and y*t contributions", True
        ),
    ]
    for e in g.support():
        a, b, c, d = e
        if e in (X2, Y2Z):
            continue
        if a:
            return None, [], f"leftover x-monomial {e}"
        if b >= 2 or (b == 1 and c >= 1):
            return None, [], f"disallowed y-monomial {e}"
        if b == 1:
            continue  # y*t^d, the a_n y t^(b_n) slot
        if c + d < n - 1:
            return None, [], f"(z,t)-monomial {e} below the n-1 level"
        if d == 0 and c != pure_min:
            return None, [], f"extra pure z-power {e}"
        checks.append(
            ConstraintCheck(f"z^{c}*t^{d}: (i-1)+b_i = {c + d} >= {n - 1}", True)
        )
    return SingularityType("cD", n), checks, None


def _ce_shape(kind: str, g: Polynomial):
    struct_z = {"cE6": Z4, "cE7": None, "cE8": Z5}[kind]
    bound = {"cE6": 4, "cE7": 5, "cE8": 5}[kind]
    max_mixed_z = {"cE6": 2, "cE7": 1, "cE8": 3}[kind]
    checks = [ConstraintCheck("x appears only as x^2", True)]
    k = None
    if kind == "cE7":
        pure = [e for e in g.support() if e[0] == 0 and e[1] == 0 and e[3] == 0 and e[2] > 0]
        if pure:
            k = min(e[2] for e in pure)
            checks.append(ConstraintCheck(f"pure z-power k = {k} >= 5", k >= 5))
            if k < 5:
                return None, [], f"pure z-power z^{k} too low for {kind}"
    for e in g.support():
        a, b, c, d = e
        if e in (X2, Y3):
            continue
        if kind == "cE6" and e == Z4:
            continue
        if kind == "cE8" and e == Z5:
            continue
        if kind == "cE7" and e == YZ3:
            continue
        if kind == "cE7" and k is not None and e == (0, 0, k, 0):
            continue
        if a:
            return None, [], f"leftover x-monomial {e}"
        if b >= 2:
            return None, [], f"disallowed y-monomial {e}"
        if b == 1:
            if c > max_mixed_z or d == 0:
                return None, [], f"disallowed y-linear monomial {e}"
            continue
        # pure/mixed (z,t)
        if kind in ("cE6", "cE8"):
            if c > max_mixed_z:
                return None, [], f"(z,t)-monomial {e} with z-power above {max_mixed_z}"
            if c + d < bound:
                return None, [], f"(z,t)-monomial {e} below the level {bound}"
            checks.append(
                ConstraintCheck(f"z^{c}*t^{d}: (i-1)+b_i = {c + d} >= {bound}", True)
            )
        else:  # cE7
            if k is not None and c >= k:
                return None, [], f"(z,t)-monomial {e} with z-power >= k = {k}"
            if c + d < 4:
                return None, [], f"(z,t)-monomial {e} below the quartic level"
    sig = SingularityType(kind)
    return sig, checks, None


# ---------------------------------------------------------------------------
# Main entry points
# ---------------------------------------------------------------------------


def _route_cubic(red: _Reducer) -> str:
    """Normalize the cubic part and return the branch: 'cD4', 'cDn', 'cE'."""
    g3 = _cubic_part(red.current)
    if g3.is_zero():
        raise ReductionError("cubic part vanishes: multiplicity above cDV range")
    _const, factors = rational_factors(g3)
    triple = next((f for f, m in factors if m >= 3), None)
    double = next((f for f, m in factors if m == 2), None)
    if triple is not None:
        if triple.degree() != 1:
            raise ReductionError("unexpected repeated non-linear cubic factor")
        rows = _complete_to_basis(_linear_coeffs(triple))
        _linear_change(red, rows)
        g3 = _cubic_part(red.current)
        if g3.support() != (Y3,):
            raise ReductionError("triple-line normalization failed")
        return "cE"
    if double is not None:
        if double.degree() != 1:
            raise ReductionError("unexpected repeated non-linear cubic factor")
        rows = _complete_to_basis(_linear_coeffs(double))
        _linear_change(red, rows)
        g3 = _cubic_part(red.current)
        if any(e[1] < 2 for e in g3.support()):
            raise ReductionError("double-line normalization failed")
        # Cubic is now c * y^2 * (cofactor); move the cofactor to z.
        cofactor = Polynomial(
            {(0, e[1] - 2, e[2], e[3]): c for e, c in g3.items()}
        )
        rows = _complete_to_basis(_linear_coeffs(cofactor), fixed_first=True)
        _linear_change(red, rows)
        g3 = _cubic_part(red.current)
        if g3.support() != (Y2Z,):
            raise ReductionError("cofactor normalization failed")
        return "cDn"
    return "cD4"


_Verdict = Tuple[SingularityType, List[ConstraintCheck]]


def _finish_cd(red: _Reducer) -> _Verdict:
    _run_elimination(red, _RULES["cD"])
    sig, checks, problem = _cd_shape(red.current)
    if problem is None:
        return sig, checks
    raise ReductionError(f"cD shape check failed: {problem}")


def _try_cd4_permutations(red: _Reducer) -> _Verdict:
    base_poly = red.current
    base_changes = list(red.changes)
    base_budget = red.budget
    base_notes = list(red.notes)
    first_error: Optional[str] = None
    for perm in itertools.permutations((1, 2, 3)):
        red.current = base_poly
        red.changes = list(base_changes)
        red.budget = base_budget
        red.notes = list(base_notes)
        try:
            _permute_variables(red, [0, *perm])
            return _finish_cd(red)
        except ReductionError as err:
            if first_error is None:
                first_error = str(err)
    raise ReductionError(
        f"no (y,z,t) arrangement matches the cD_4 shape: {first_error}"
    )


def _ce_flavour(red: _Reducer) -> Tuple[str, ExponentVector]:
    """(cE kind, its structural monomial), read off the classical sequence."""
    # Sweep y^2-divisible monomials first; the route decision below is
    # invariant under these kills.
    _run_elimination(red, (_Y3_ROW,))
    g = red.current
    c4 = _part(g, lambda e: e[0] == 0 and e[1] == 0 and total_degree(e) == 4)
    b3 = _part(g, lambda e: e[0] == 0 and e[1] == 1 and e[2] + e[3] == 3)
    c5 = _part(g, lambda e: e[0] == 0 and e[1] == 0 and total_degree(e) == 5)
    if not c4.is_zero():
        kind, struct = "cE6", Z4
    elif not b3.is_zero():
        kind, struct = "cE7", YZ3
    elif not c5.is_zero():
        kind, struct = "cE8", Z5
    else:
        raise ReductionError(
            "neither quartic (z,t) part, cubic y-linear part, nor quintic "
            "(z,t) part is present: beyond the cE_8 range"
        )
    return kind, struct


def _finish_ce(red: _Reducer, kind: str, struct: ExponentVector) -> _Verdict:
    if red.coefficient(struct) == 0:
        _shear_until(red, struct, preserve=(Y3, YZ3))
    _run_elimination(red, _RULES[kind])
    sig, checks, problem = _ce_shape(kind, red.current)
    if problem is not None:
        raise ReductionError(f"{kind} shape check failed: {problem}")
    return sig, checks


def _analyze_germ(
    f: Polynomial, truncation: int
) -> Tuple[SingularityType, List[ConstraintCheck], _Reducer]:
    """(type, shape checks, reducer); the checks are empty unless cD/cE."""
    if f.is_zero():
        raise ValueError("the zero polynomial does not define a hypersurface germ")
    if f.coefficient((0, 0, 0, 0)) != 0:
        raise ValueError("nonzero constant term: the origin is not on the hypersurface")
    linear = _part(f, lambda e: total_degree(e) == 1)
    red = _Reducer(f, truncation)
    if not linear.is_zero():
        return SingularityType("smooth"), [], red
    carriers = _diagonalize_quadratic(red)
    carriers = [i for i in carriers if _quadratic_matrix(red.current)[i][i] != 0]
    if not carriers:
        return SingularityType("other"), [], red
    order = sorted(carriers) + [i for i in range(4) if i not in carriers]
    _permute_variables(red, order)
    rank = len(carriers)
    if rank >= 2:
        for i in range(rank):
            _eliminate_square_variable(red, i)
        residual = _part(
            red.current,
            lambda e: all(e[i] == 0 for i in range(rank)),
        )
        if rank == 4:
            return SingularityType("cA", 1), [], red
        if residual.is_zero():
            red.residual_cut = True
            red.notes.append(
                "no residual terms after splitting the quadratic part: "
                "non-isolated within the truncation"
            )
            return SingularityType("other"), [], red
        n = residual.min_degree() - 1
        return SingularityType("cA", n), [], red
    # rank 1: the compound D/E zone.
    _eliminate_square_variable(red, 0)
    branch = _route_cubic(red)
    flavour = _ce_flavour(red) if branch == "cE" else None
    try:
        if flavour is not None:
            return (*_finish_ce(red, *flavour), red)
        if branch == "cDn":
            return (*_finish_cd(red), red)
        return (*_try_cd4_permutations(red), red)
    except ReductionError as err:
        err.in_elimination = True
        raise


_NORMAL_FORM_KINDS = ("cD", "cE6", "cE7", "cE8")
# The type analysis reads the jets up to this degree: the quadratic and
# cubic parts, then the quartic, y-linear cubic and quintic parts.
_TYPE_JET_DEGREE = 5


def _certify(red: _Reducer) -> Tuple[Optional[Fraction], bool]:
    """(S_max of the reduced form, whether it certifies red.truncation)."""
    s_max = max_weight_sum(red.current.support())
    certified = (
        s_max is not None
        and s_max <= red.truncation + 2
        and all(r.min_degree() >= 1 for sub in red.changes for r in sub.replacements)
    )
    return s_max, certified


def _start_degree(f: Polynomial, ceiling: int) -> int:
    """ceil(S_max) - 2 over the input's own support (deg f when that is
    unbounded, the ceiling when it is empty: a smooth point), raised to the
    input's lowest pure power of each variable.

    A pure power is a vertex of the Newton polyhedron; keeping it keeps the
    diagram of a normal-form input whole, although no discrepancy-1 weight
    sees it (x^2 + y^3 + z^4 + t^14 certifies at D = 12).
    """
    if f.min_degree() < 2:
        return ceiling
    s_max = max_weight_sum(f.support())
    start = f.degree() if s_max is None else ceil(s_max) - 2
    # The lowest pure power of a variable is a minimal point, the others not.
    pure = [sum(e) for e in minimal_points(f.support()) if sum(map(bool, e)) == 1]
    return min(ceiling, max([start, *pure]))


def _reduce(f: Polynomial, truncation: Optional[int]):
    """(type, shape checks, reducer, S_max, certified) at `truncation`, or at
    the smallest certified degree when it is None.

    The search starts at `_start_degree`, reduces, and raises D to
    max(D + 1, ceil(S_max) - 2), or doubles it when the candidate polyhedron
    of the reduced form is unbounded, until the certificate holds or D
    reaches `default_truncation`.  An elimination failure below that ceiling
    retries once at the ceiling, so every refusal is the one the ceiling
    gives.  Types other than cD/cE come back at once, and so do failures of
    the type analysis, unless they read terms the truncation removed: below
    the degree of the type jets it moves up to that degree, and a vanished
    cA residual moves to the ceiling.
    """
    ceiling = default_truncation(f)
    degree = truncation or _start_degree(f, ceiling)
    while True:
        retry = not truncation and degree < ceiling
        try:
            germ_type, checks, red = _analyze_germ(f, degree)
        except ReductionError as err:
            if retry and err.in_elimination:
                degree = ceiling
            elif retry and degree < _TYPE_JET_DEGREE:
                degree = _TYPE_JET_DEGREE
            else:
                raise
            continue
        if germ_type.kind not in _NORMAL_FORM_KINDS:
            if retry and red.residual_cut:
                degree = ceiling
                continue
            return germ_type, checks, red, None, False
        s_max, certified = _certify(red)
        if certified or not retry:
            if not certified:
                bound = "unbounded" if s_max is None else f"S_max = {s_max}"
                red.notes.append(
                    f"truncation degree {degree} is not certified ({bound}): "
                    "discrepancy-1 weights and faces may differ from the germ's"
                )
            return germ_type, checks, red, s_max, certified
        raised = 2 * degree if s_max is None else max(degree + 1, ceil(s_max) - 2)
        degree = min(ceiling, raised)


def classify_type(f: Polynomial, truncation_degree: Optional[int] = None) -> SingularityType:
    """cDV type of the germ at the origin defined by f.

    Pattern-matches the reduced equation against the normal-form shapes;
    quadratic rank >= 2 short-circuits to cA.  Returns "smooth" for a
    nonsingular point and "other" when no shape matches within the
    truncation budget.  Raises ValueError when f does not vanish at 0.
    Without `truncation_degree` it reduces as `reduce_to_normal_form` does.
    """
    try:
        return _reduce(f, truncation_degree)[0]
    except ReductionError:
        return SingularityType("other")


def reduce_to_normal_form(
    f: Polynomial, truncation_degree: Optional[int] = None
) -> NormalFormCertificate:
    """Reduce a cD/cE germ to its normal-form shape.

    Returns the certificate with the reduced polynomial, the replayable list
    of coordinate changes, and the verified b_i-type constraints.  Raises
    ReductionError for inputs outside the cD/cE range (cA inputs only need
    classification) or when the reduction cannot be completed within the
    iteration budget and truncation; its `germ_type` is the type found.
    With `truncation_degree` it reduces at that degree only; without, at
    the smallest certified degree up to `default_truncation` (see there).
    """
    try:
        germ_type, checks, red, s_max, certified = _reduce(f, truncation_degree)
    except ReductionError as err:
        err.germ_type = SingularityType("other")
        raise
    kind = germ_type.kind
    if kind == "smooth":
        raise ReductionError("the point is smooth; nothing to reduce", germ_type)
    if kind == "cA":
        raise ReductionError(
            "cA-type germ: every low-discrepancy divisor over it is rational, "
            "no cD/cE normal form applies",
            germ_type,
        )
    if kind == "other":
        raise ReductionError(
            "no cD/cE normal form matches within the truncation", germ_type
        )
    return NormalFormCertificate(
        type=germ_type,
        reduced=red.current,
        applied_changes=tuple(red.changes),
        satisfied_constraints=tuple(checks),
        truncation_degree=red.truncation,
        notes=tuple(red.notes),
        s_max=s_max,
        truncation_certified=certified,
    )
