"""Exact sparse polynomial arithmetic in x, y, z, t over the rationals.

A polynomial is a finite map from exponent vectors to nonzero rational
coefficients:

  ExponentVector = (e_x, e_y, e_z, e_t)   non-negative integers
  Polynomial     ~ {ExponentVector: Fraction}

The zero polynomial has an empty term map, and no zero coefficient is ever
stored, so two equal polynomials have identical term maps.  Coefficients are
`fractions.Fraction` throughout: every operation is exact and nothing here
uses floating point.

The module also provides the textual input grammar

  expression  = term (('+' | '-') term)*
  term        = coefficient | [coefficient '*'] factor ('*' factor)*
  coefficient = ['-'] integer ['/' positive-integer]
  factor      = variable ['^' positive-integer]
  variable    = 'x' | 'y' | 'z' | 't'

(whitespace insignificant; a leading sign on the first term is accepted),
and truncated substitution of polynomials for variables, which is the engine
behind the coordinate changes used by the normal-form reduction.

Substitution runs on an integer form.  Each replacement is written once as
an integer term map over one denominator and grouped by total degree
(`integer_form`), the terms of the input share one common denominator, and
the hot loops add and multiply Python ints; a `Fraction` is built only for
each output term (`from_integers`).  Products are truncated while they are
formed (`mul_graded`): when every replacement has minimal degree >= 1, a
product term above the cutoff can only gain degree in later factors, so it
is never formed.  The powers of a replaced variable are rolled up one factor
at a time while the input's terms are walked by that variable's exponent,
so one power is alive at a time.  Exact arithmetic makes the order of
summation irrelevant, so the result is the one the full expansion truncates
to.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

VARS: Tuple[str, str, str, str] = ("x", "y", "z", "t")
VAR_INDEX: Dict[str, int] = {v: i for i, v in enumerate(VARS)}

ExponentVector = Tuple[int, int, int, int]

ZERO_EXPONENT: ExponentVector = (0, 0, 0, 0)
# The coefficient of every absent monomial: Fractions are immutable.
_ZERO = Fraction(0)


def total_degree(e: ExponentVector) -> int:
    """Total degree of a monomial: the sum of its exponents."""
    return e[0] + e[1] + e[2] + e[3]


def grlex_key(e: ExponentVector) -> Tuple[int, ExponentVector]:
    """Sort key for graded lexicographic order with x > y > z > t."""
    return (total_degree(e), e)


class Polynomial:
    """Immutable sparse polynomial in x, y, z, t with Fraction coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[ExponentVector, Fraction] | None = None):
        cleaned: Dict[ExponentVector, Fraction] = {}
        if terms:
            for exps, coeff in terms.items():
                if any(e < 0 for e in exps) or len(exps) != 4:
                    raise ValueError(f"invalid exponent vector {exps!r}")
                if type(coeff) is not Fraction:  # a Fraction is shared, not copied
                    coeff = Fraction(coeff)
                if coeff != 0:
                    cleaned[tuple(exps)] = coeff
        self._terms = cleaned

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial()

    @staticmethod
    def constant(value: int | Fraction) -> "Polynomial":
        return Polynomial({ZERO_EXPONENT: Fraction(value)})

    @staticmethod
    def variable(name: str) -> "Polynomial":
        """The variable `name`, one shared instance each: polynomials are
        immutable, and every substitution holds its unmoved variables."""
        return _VARIABLES[name]

    @staticmethod
    def monomial(exps: Iterable[int], coeff: int | Fraction = 1) -> "Polynomial":
        return Polynomial({tuple(exps): Fraction(coeff)})

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> Dict[ExponentVector, Fraction]:
        """A copy of the term map."""
        return dict(self._terms)

    def items(self) -> Iterator[Tuple[ExponentVector, Fraction]]:
        return iter(self._terms.items())

    def support(self) -> Tuple[ExponentVector, ...]:
        """Exponent vectors with nonzero coefficient, in grlex order."""
        return tuple(sorted(self._terms, key=grlex_key))

    def coefficient(self, exps: Iterable[int]) -> Fraction:
        return self._terms.get(tuple(exps), _ZERO)

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def degree(self) -> int:
        """Maximal total degree (-1 for the zero polynomial)."""
        if not self._terms:
            return -1
        return max(total_degree(e) for e in self._terms)

    def min_degree(self) -> int:
        """Minimal total degree over the support (-1 for zero)."""
        if not self._terms:
            return -1
        return min(total_degree(e) for e in self._terms)

    def variables_present(self) -> Tuple[str, ...]:
        """Names of variables occurring with positive exponent."""
        seen = [False, False, False, False]
        for exps in self._terms:
            for i in range(4):
                if exps[i]:
                    seen[i] = True
        return tuple(v for i, v in enumerate(VARS) if seen[i])

    def max_exponent(self, var: int | str) -> int:
        i = VAR_INDEX[var] if isinstance(var, str) else var
        if not self._terms:
            return 0
        return max(e[i] for e in self._terms)

    # -- arithmetic --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __neg__(self) -> "Polynomial":
        return Polynomial({e: -c for e, c in self._terms.items()})

    def __add__(self, other: "Polynomial") -> "Polynomial":
        out = dict(self._terms)
        for e, c in other._terms.items():
            s = out.get(e)
            s = c if s is None else s + c
            if s:
                out[e] = s
            else:
                del out[e]
        result = Polynomial.__new__(Polynomial)
        result._terms = out
        return result

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        out: Dict[ExponentVector, Fraction] = {}
        for ea, ca in self._terms.items():
            for eb, cb in other._terms.items():
                e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2], ea[3] + eb[3])
                s = out.get(e)
                s = ca * cb if s is None else s + ca * cb
                if s:
                    out[e] = s
                else:
                    del out[e]
        result = Polynomial.__new__(Polynomial)
        result._terms = out
        return result

    def scale(self, value: int | Fraction) -> "Polynomial":
        value = Fraction(value)
        if value == 0:
            return Polynomial.zero()
        return Polynomial({e: c * value for e, c in self._terms.items()})

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Polynomial.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def truncate(self, degree: int) -> "Polynomial":
        """Drop all terms of total degree strictly above `degree`."""
        return Polynomial(
            {e: c for e, c in self._terms.items() if total_degree(e) <= degree}
        )

    def derivative(self, var: int | str) -> "Polynomial":
        i = VAR_INDEX[var] if isinstance(var, str) else var
        out: Dict[ExponentVector, Fraction] = {}
        for e, c in self._terms.items():
            if e[i] == 0:
                continue
            d = list(e)
            d[i] -= 1
            out[tuple(d)] = c * e[i]
        return Polynomial(out)

    def evaluate(self, point: Iterable[int | Fraction]) -> Fraction:
        vals = [Fraction(v) for v in point]
        total = Fraction(0)
        for e, c in self._terms.items():
            term = c
            for i in range(4):
                if e[i]:
                    term *= vals[i] ** e[i]
            total += term
        return total

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        return pretty(self)

    def __repr__(self) -> str:
        return f"Polynomial({pretty(self)!r})"


_VARIABLES: Dict[str, Polynomial] = {
    v: Polynomial({tuple(int(i == j) for j in range(4)): Fraction(1)})
    for i, v in enumerate(VARS)
}


def _monomial_text(exps: ExponentVector) -> str:
    parts = []
    for i, e in enumerate(exps):
        if e == 1:
            parts.append(VARS[i])
        elif e > 1:
            parts.append(f"{VARS[i]}^{e}")
    return "*".join(parts)


def pretty(poly: Polynomial) -> str:
    """Canonical rendering: terms in descending grlex order.

    The output re-parses to the same polynomial, so pretty/parse round-trip
    is a fixed point.
    """
    if poly.is_zero():
        return "0"
    pieces = []
    for exps in reversed(poly.support()):
        coeff = poly.coefficient(exps)
        mono = _monomial_text(exps)
        mag = abs(coeff)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not pieces:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(pieces)


class ParseError(ValueError):
    """Syntax error in the polynomial grammar, with a 0-based position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        self.skip_ws()
        ch = self.text[self.pos]
        self.pos += 1
        return ch

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected an integer", start)
        return int(self.text[start : self.pos])


def parse_polynomial(text: str) -> Polynomial:
    """Parse the textual grammar into a canonical Polynomial.

    Like terms are merged; merges that cancel to zero are dropped.  Raises
    ParseError with the offending position for malformed input, unknown
    variables, or non-positive exponents.
    """
    tok = _Tokenizer(text)
    result = Polynomial.zero()
    first = True
    while True:
        ch = tok.peek()
        if not ch:
            if first:
                raise ParseError("empty input", tok.pos)
            break
        if first:
            sign = 1
            if ch == "-":
                tok.take()
                sign = -1
            first = False
        else:
            if ch == "+":
                sign = 1
            elif ch == "-":
                sign = -1
            else:
                raise ParseError(f"expected '+' or '-', found {ch!r}", tok.pos)
            tok.take()
        result = result + _parse_term(tok).scale(sign)
    return result


def _parse_term(tok: _Tokenizer) -> Polynomial:
    coeff = Fraction(1)
    ch = tok.peek()
    if ch.isdigit():
        num = tok.integer()
        if tok.peek() == "/":
            tok.take()
            den_pos = tok.pos
            den = tok.integer()
            if den <= 0:
                raise ParseError("denominator must be positive", den_pos)
            coeff = Fraction(num, den)
        else:
            coeff = Fraction(num)
        if tok.peek() != "*":
            # A bare constant term.
            return Polynomial.constant(coeff)
        tok.take()
    factors = [_parse_factor(tok)]
    while tok.peek() == "*":
        tok.take()
        factors.append(_parse_factor(tok))
    exps = [0, 0, 0, 0]
    for idx, power in factors:
        exps[idx] += power
    return Polynomial.monomial(tuple(exps), coeff)


def _parse_factor(tok: _Tokenizer) -> Tuple[int, int]:
    pos = tok.pos
    ch = tok.peek()
    if not ch:
        raise ParseError("expected a variable", pos)
    if ch not in VAR_INDEX:
        if ch.isalpha():
            raise ParseError(f"unknown variable {ch!r} (use x, y, z, t)", tok.pos)
        raise ParseError(f"expected a variable, found {ch!r}", tok.pos)
    tok.take()
    power = 1
    if tok.peek() == "^":
        tok.take()
        exp_pos = tok.pos
        if tok.peek() == "-":
            raise ParseError("negative exponents are not allowed", exp_pos)
        power = tok.integer()
        if power <= 0:
            raise ParseError("exponent must be a positive integer", exp_pos)
    return VAR_INDEX[ch], power


@dataclass(frozen=True)
class Substitution:
    """A coordinate change v -> replacement(v), truncated by total degree.

    Each of the four variables carries a nonzero replacement polynomial.
    Applying the substitution discards every term of total degree above
    `truncation_degree`; when every replacement has minimal total degree
    >= 1 the truncated result agrees exactly with the truncation of the
    untruncated composition, which is the regime the normal-form reduction
    works in.
    """

    replacements: Tuple[Polynomial, Polynomial, Polynomial, Polynomial]
    truncation_degree: int

    def __post_init__(self):
        if self.truncation_degree <= 0:
            raise ValueError("truncation_degree must be a positive integer")
        if len(self.replacements) != 4:
            raise ValueError("need one replacement per variable")
        for repl in self.replacements:
            if repl.is_zero():
                raise ValueError("replacement polynomials must be nonzero")

    @staticmethod
    def identity(truncation_degree: int) -> "Substitution":
        return Substitution(
            tuple(Polynomial.variable(v) for v in VARS), truncation_degree
        )

    @staticmethod
    def single(
        var: str, replacement: Polynomial, truncation_degree: int
    ) -> "Substitution":
        """Replace one variable, leaving the others fixed."""
        repls = [Polynomial.variable(v) for v in VARS]
        repls[VAR_INDEX[var]] = replacement
        return Substitution(tuple(repls), truncation_degree)

    def is_identity(self) -> bool:
        return all(
            repl == Polynomial.variable(v) for v, repl in zip(VARS, self.replacements)
        )

    def replacement(self, var: str) -> Polynomial:
        return self.replacements[VAR_INDEX[var]]

    def describe(self) -> str:
        parts = [
            f"{v} <- {pretty(repl)}"
            for v, repl in zip(VARS, self.replacements)
            if repl != Polynomial.variable(v)
        ]
        return "; ".join(parts) if parts else "identity"


# An integer polynomial grouped by total degree: entry d maps the exponent
# vectors of degree d to integer coefficients.
Graded = List[Dict[ExponentVector, int]]


def integer_form(poly: Polynomial) -> Tuple[Graded, int]:
    """(graded integer term map, denominator) whose quotient is poly."""
    den = 1
    for c in poly._terms.values():
        den = lcm(den, c.denominator)
    graded: Graded = [{} for _ in range(poly.degree() + 1)]
    for e, c in poly._terms.items():
        graded[total_degree(e)][e] = c.numerator * (den // c.denominator)
    return graded, den


def from_integers(terms: Dict[ExponentVector, int], den: int) -> Polynomial:
    """The polynomial terms / den, built in place of `terms` (zeros dropped)."""
    for e in [e for e, c in terms.items() if not c]:
        del terms[e]
    for e, c in terms.items():
        terms[e] = Fraction(c, den)
    result = Polynomial.__new__(Polynomial)
    result._terms = terms
    return result


def mul_graded(a: Graded, b: Graded, room: Optional[int]) -> Graded:
    """The product a*b without its terms above degree `room` (None: all).

    No pair past the bound is multiplied: for a's terms of degree da only
    b's groups up to degree room - da are visited.
    """
    top = len(a) + len(b) - 2
    if room is not None:
        top = min(top, room)
    if a == [{ZERO_EXPONENT: 1}]:
        return b[: top + 1]  # one times b: b's own groups, not a copy
    out: Graded = [{} for _ in range(top + 1)]
    for da in range(min(len(a), top + 1)):
        for (a0, a1, a2, a3), ca in a[da].items():
            for db in range(min(len(b), top - da + 1)):
                target = out[da + db]
                for (b0, b1, b2, b3), cb in b[db].items():
                    e = (a0 + b0, a1 + b1, a2 + b2, a3 + b3)
                    s = target.get(e)
                    target[e] = ca * cb if s is None else s + ca * cb
    for group in out:
        for e in [e for e, c in group.items() if not c]:
            del group[e]
    return out


def apply_substitution(f: Polynomial, s: Substitution) -> Polynomial:
    """Compose f with the substitution, truncating by total degree.

    The result is exactly (f after replacement) with all terms of total
    degree > s.truncation_degree discarded.

    A variable whose replacement is itself only shifts monomials.  Each
    moved variable's replacement is put once into integer form N_i / d_i,
    grouped by degree, and f's terms share the common denominator of
    c * prod d_i^e_i over its terms c x^e, read off the denominators alone;
    the sums below are of Python ints, and each output term becomes one
    `Fraction`.

    f's terms are walked by ascending exponent of the first moved variable,
    whose power rolls up one factor at a time, so one power of it is alive
    at a time; the powers of any other moved variable are cached.

    When every replacement has minimal degree >= 1, each factor still to be
    multiplied into a partial product raises its degree by at least that
    factor's exponent, so a partial term that cannot land at or below the
    cutoff is never formed: the rolling power stops at the cutoff less the
    least degree the rest of any remaining term contributes.  A replacement
    with a constant term runs the same loop with no bound on the products,
    and only the final shift is truncated.
    """
    cutoff = s.truncation_degree
    moved = [i for i, v in enumerate(VARS) if s.replacements[i] != Polynomial.variable(v)]
    if not moved:
        return f.truncate(cutoff)
    bounded = all(s.replacements[i].min_degree() >= 1 for i in moved)
    forms = {i: integer_form(s.replacements[i]) for i in moved}
    lead, others = moved[0], moved[1:]
    fixed = tuple(0 if i in moved else 1 for i in range(4))

    den_powers = {i: [forms[i][1] ** n for n in range(f.max_exponent(i) + 1)] for i in moved}

    def denominator(e: ExponentVector, c: Fraction) -> int:
        den = c.denominator
        for i in moved:
            den *= den_powers[i][e[i]]
        return den

    # f's exponents by the exponent of the lead variable, and floors[n]: the
    # least degree that a term of bucket n or above gains besides its power
    # of the lead variable.
    buckets: List[List[ExponentVector]] = [[] for _ in range(f.max_exponent(lead) + 1)]
    common = 1
    for e, c in f._terms.items():
        buckets[e[lead]].append(e)
        common = lcm(common, denominator(e, c))
    floors = [0] * len(buckets)
    floor = cutoff + 1
    for n in range(len(buckets) - 1, -1, -1):
        floor = min([floor] + [total_degree(e) - n for e in buckets[n]])
        floors[n] = floor

    cached = {i: [[{ZERO_EXPONENT: 1}]] for i in others}

    def other_power(i: int, n: int) -> Graded:
        powers = cached[i]
        while len(powers) <= n:
            powers.append(mul_graded(powers[-1], forms[i][0], cutoff if bounded else None))
        return powers[n]

    total: Dict[ExponentVector, int] = {}
    power: Graded = [{ZERO_EXPONENT: 1}]
    have = 0
    for n, bucket in enumerate(buckets):
        if not bucket:
            continue
        while have < n:
            bound = cutoff - floors[n] if bounded else None
            power = mul_graded(power, forms[lead][0], bound)
            have += 1
        for e in bucket:
            shift = (e[0] * fixed[0], e[1] * fixed[1], e[2] * fixed[2], e[3] * fixed[3])
            room = cutoff - total_degree(shift)
            product = power
            for i in others:
                if e[i]:
                    product = mul_graded(product, other_power(i, e[i]), room if bounded else None)
            c = f._terms[e]
            scale = c.numerator * (common // denominator(e, c))
            shifted = shift != ZERO_EXPONENT
            for d in range(min(len(product), room + 1)):
                for ep, cp in product[d].items():
                    if shifted:
                        ep = (ep[0] + shift[0], ep[1] + shift[1], ep[2] + shift[2], ep[3] + shift[3])
                    acc = total.get(ep)
                    total[ep] = scale * cp if acc is None else acc + scale * cp
        # Only `power` may hold this power now, so that it is freed as soon
        # as the next one is formed.
        del product
    return from_integers(total, common)
