"""Exact arithmetic on ordinals below w^w in Cantor normal form.

An ordinal is a finite sum  w^e1*c1 + ... + w^ek*ck  with strictly
decreasing natural exponents and positive integer coefficients.  These
values carry transfinite path lengths, distances and statuses.  The text
grammar is ASCII-only ("w" stands for omega) so values survive JSON and
command-line round trips.

Only outside input is validated: the public ``Ordinal(terms)``
constructor and ``parse_ordinal`` check the normal form.  The results of
``+``, ``scale`` and ``omega_term`` are canonical by construction and
are built without re-checking.
"""

from __future__ import annotations

import re
from functools import total_ordering
from typing import Iterable

__all__ = [
    "Ordinal",
    "OrdinalParseError",
    "ZERO",
    "format_ordinal",
    "omega_term",
    "parse_ordinal",
]


class OrdinalParseError(ValueError):
    """Text does not match the ordinal grammar."""


@total_ordering
class Ordinal:
    """An ordinal below w^w, immutable and hashable.

    ``a + b`` is the non-commutative ordinal sum.  Comparison follows
    ordinal order, which on canonical forms coincides with lexicographic
    comparison of the (exponent, coefficient) term lists.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable[tuple[int, int]] = ()):
        terms = tuple((exp, coeff) for exp, coeff in terms)
        prev_exp = None
        for exp, coeff in terms:
            if type(exp) is not int or type(coeff) is not int:
                raise ValueError(f"term ({exp!r}, {coeff!r}) is not a pair of integers")
            if exp < 0 or coeff < 1:
                raise ValueError(
                    f"term ({exp}, {coeff}) needs exponent >= 0 and coefficient >= 1"
                )
            if prev_exp is not None and exp >= prev_exp:
                raise ValueError("exponents must be strictly decreasing")
            prev_exp = exp
        self._terms = terms

    @classmethod
    def _of(cls, terms: tuple[tuple[int, int], ...]) -> "Ordinal":
        """An Ordinal over terms already in Cantor normal form, unchecked."""
        ordinal = object.__new__(cls)
        ordinal._terms = terms
        return ordinal

    @property
    def terms(self) -> tuple[tuple[int, int], ...]:
        return self._terms

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def leading_exponent(self) -> int:
        """Exponent of the largest term; 0 for the zero ordinal."""
        return self._terms[0][0] if self._terms else 0

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Ordinal):
            return NotImplemented
        return self._terms == other._terms

    def __lt__(self, other: "Ordinal") -> bool:
        if not isinstance(other, Ordinal):
            return NotImplemented
        return self._terms < other._terms

    def __hash__(self) -> int:
        return hash(self._terms)

    def __add__(self, other: "Ordinal") -> "Ordinal":
        if not isinstance(other, Ordinal):
            return NotImplemented
        right = other._terms
        if not right:
            return self
        left = self._terms
        lead = right[0][0]
        if len(left) == 1 and len(right) == 1 and left[0][0] == lead:
            # A status sum lands here for each non-zero distance after
            # its first: two one-term ordinals at one exponent add their
            # coefficients, with no scan, slice or _of call.
            total = object.__new__(Ordinal)
            total._terms = ((lead, left[0][1] + right[0][1]),)
            return total
        # One pass from the low end of self: its terms below the leading
        # exponent of other are absorbed, a term at that exponent merges
        # by coefficient addition, and the rest is kept.
        k = len(left)
        while k and left[k - 1][0] < lead:
            k -= 1
        if k and left[k - 1][0] == lead:
            k -= 1
            return Ordinal._of(left[:k] + ((lead, left[k][1] + right[0][1]),) + right[1:])
        return Ordinal._of(left[:k] + right)

    def scale(self, k: int) -> "Ordinal":
        """Right-multiply by a natural number.

        The leading coefficient is multiplied by ``k`` and the lower
        terms are kept once; ``a.scale(0)`` is 0.
        """
        if type(k) is not int or k < 0:
            raise ValueError(f"scale factor must be a natural number, got {k!r}")
        if k == 0 or not self._terms:
            return ZERO
        (exp, coeff), rest = self._terms[0], self._terms[1:]
        return Ordinal._of(((exp, coeff * k), *rest))

    def __str__(self) -> str:
        return format_ordinal(self)

    def __repr__(self) -> str:
        return f"Ordinal({self._terms!r})"


ZERO = Ordinal()


def omega_term(mu: int, n: int) -> Ordinal:
    """The ordinal w^mu * n; mu == 0 gives the finite ordinal n."""
    if type(mu) is not int or mu < 0:
        raise ValueError(f"exponent must be a natural number, got {mu!r}")
    if type(n) is not int or n < 0:
        raise ValueError(f"coefficient must be a natural number, got {n!r}")
    if n == 0:
        return ZERO
    return Ordinal._of(((mu, n),))


def _format_term(exp: int, coeff: int) -> str:
    if exp == 0:
        return str(coeff)
    base = "w" if exp == 1 else f"w^{exp}"
    return base if coeff == 1 else f"{base}*{coeff}"


def format_ordinal(a: Ordinal) -> str:
    """Canonical text form: terms joined by ' + ', '0' for zero."""
    if a.is_zero:
        return "0"
    return " + ".join(_format_term(exp, coeff) for exp, coeff in a.terms)


_TERM_RE = re.compile(
    r"(?P<int>[1-9][0-9]*)"
    r"|w(?:\^(?P<exp>[2-9]|[1-9][0-9]+))?(?:\*(?P<coeff>[2-9]|[1-9][0-9]+))?"
)


def parse_ordinal(text: str) -> Ordinal:
    """Parse the canonical text form; a left inverse of format_ordinal.

    Rejects malformed terms, zero coefficients, a written exponent or
    coefficient of 1 on a w term, and terms that are not in strictly
    decreasing exponent order.
    """
    if not isinstance(text, str):
        raise OrdinalParseError(f"expected text, got {type(text).__name__}")
    if text == "0":
        return ZERO
    terms: list[tuple[int, int]] = []
    for part in text.split(" + "):
        match = _TERM_RE.fullmatch(part)
        if match is None:
            raise OrdinalParseError(f"malformed ordinal term {part!r}")
        try:
            if match.group("int") is not None:
                terms.append((0, int(match.group("int"))))
            else:
                exp = int(match.group("exp")) if match.group("exp") else 1
                coeff = int(match.group("coeff")) if match.group("coeff") else 1
                terms.append((exp, coeff))
        except ValueError as exc:  # a number too long to convert
            raise OrdinalParseError(f"ordinal term of {len(part)} characters: {exc}") from None
    try:
        return Ordinal(terms)
    except ValueError:  # the grammar leaves only the exponent order to fail
        raise OrdinalParseError(
            f"terms of {text!r} are not in strictly decreasing exponent order"
        ) from None
