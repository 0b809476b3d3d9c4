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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, Iterator, Mapping, Tuple

VARS: Tuple[str, str, str, str] = ("x", "y", "z", "t")
VAR_INDEX: Dict[str, int] = {v: i for i, v in enumerate(VARS)}

ExponentVector = Tuple[int, int, int, int]

ZERO_EXPONENT: ExponentVector = (0, 0, 0, 0)


def total_degree(e: ExponentVector) -> int:
    """Total degree of a monomial: the sum of its exponents."""
    return e[0] + e[1] + e[2] + e[3]


def grlex_key(e: ExponentVector) -> Tuple[int, ExponentVector]:
    """Sort key for graded lexicographic order with x > y > z > t."""
    return (total_degree(e), e)


def _merge_exponents(a: ExponentVector, b: ExponentVector) -> ExponentVector:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3])


class Polynomial:
    """Immutable sparse polynomial in x, y, z, t with Fraction coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[ExponentVector, Fraction] | None = None):
        cleaned: Dict[ExponentVector, Fraction] = {}
        if terms:
            for exps, coeff in terms.items():
                if any(e < 0 for e in exps) or len(exps) != 4:
                    raise ValueError(f"invalid exponent vector {exps!r}")
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
        exps = [0, 0, 0, 0]
        exps[VAR_INDEX[name]] = 1
        return Polynomial({tuple(exps): Fraction(1)})

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
        return self._terms.get(tuple(exps), Fraction(0))

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
            s = out.get(e, Fraction(0)) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        result = Polynomial.__new__(Polynomial)
        result._terms = out
        return result

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        out: Dict[ExponentVector, Fraction] = {}
        for ea, ca in self._terms.items():
            for eb, cb in other._terms.items():
                e = _merge_exponents(ea, eb)
                s = out.get(e, Fraction(0)) + ca * cb
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
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


def apply_substitution(f: Polynomial, s: Substitution) -> Polynomial:
    """Compose f with the substitution, truncating by total degree.

    The result is exactly (f after replacement) with all terms of total
    degree > s.truncation_degree discarded.  Intermediate products are only
    pruned when every replacement has minimal degree >= 1 (then pruned terms
    can never contribute below the cutoff); otherwise the composition is
    expanded fully before the final truncation.
    """
    cutoff = s.truncation_degree
    prune = all(repl.min_degree() >= 1 for repl in s.replacements)
    interim = cutoff if prune else None

    # powers[i][n] is the n-th power of replacement i; each new power is the
    # one below it times the replacement.
    powers = [[Polynomial.constant(1)] for _ in range(4)]

    def var_power(i: int, n: int) -> Polynomial:
        cached = powers[i]
        while len(cached) <= n:
            power = cached[-1] * s.replacements[i]
            cached.append(power if interim is None else power.truncate(interim))
        return cached[n]

    total: Dict[ExponentVector, Fraction] = {}
    for exps, coeff in f.items():
        term = Polynomial.constant(coeff)
        for i in range(4):
            if exps[i]:
                term = term * var_power(i, exps[i])
                if interim is not None:
                    term = term.truncate(interim)
        for e, c in term.items():
            total[e] = total.get(e, 0) + c
    return Polynomial({e: c for e, c in total.items() if total_degree(e) <= cutoff})
