"""Property and example tests for the ordinal kernel."""

import random
import re

import pytest
from hypothesis import example, given, strategies as st

from tgstatus.ordinal import (
    Ordinal,
    OrdinalParseError,
    ZERO,
    format_ordinal,
    omega_term,
    parse_ordinal,
)

from helpers import oracle_ordinal_sum, oracle_ordinal_text


@st.composite
def ordinals(draw):
    exponents = draw(
        st.lists(st.integers(min_value=0, max_value=6), unique=True, max_size=4)
    )
    exponents.sort(reverse=True)
    terms = [(e, draw(st.integers(min_value=1, max_value=50))) for e in exponents]
    return Ordinal(terms)


class TestConstruction:
    def test_zero(self):
        assert ZERO.is_zero
        assert not ZERO
        assert ZERO.terms == ()
        assert str(ZERO) == "0"

    def test_rejects_nondecreasing_exponents(self):
        with pytest.raises(ValueError):
            Ordinal(((1, 1), (1, 2)))
        with pytest.raises(ValueError):
            Ordinal(((1, 1), (2, 1)))

    def test_rejects_bad_terms(self):
        with pytest.raises(ValueError):
            Ordinal(((2, 0),))
        with pytest.raises(ValueError):
            Ordinal(((-1, 1),))
        for terms in ([(1, True)], [(True, 1)], [(2, 1.0)]):
            with pytest.raises(ValueError, match="is not a pair of integers"):
                Ordinal(terms)

    @pytest.mark.parametrize(
        "terms, message",
        [
            (((1, 0),), "term (1, 0) needs exponent >= 0 and coefficient >= 1"),
            (((2, 0),), "term (2, 0) needs exponent >= 0 and coefficient >= 1"),
            (((0, -3),), "term (0, -3) needs exponent >= 0 and coefficient >= 1"),
            (((-1, 1),), "term (-1, 1) needs exponent >= 0 and coefficient >= 1"),
            (((3, 1), (0, 0)), "term (0, 0) needs exponent >= 0 and coefficient >= 1"),
            (((1, 1), (1, 2)), "exponents must be strictly decreasing"),
            (((1, 1), (2, 1)), "exponents must be strictly decreasing"),
            ([(1, True)], "term (1, True) is not a pair of integers"),
            ([(True, 1)], "term (True, 1) is not a pair of integers"),
            ([(2, 1.0)], "term (2, 1.0) is not a pair of integers"),
            ([("1", 1)], "term ('1', 1) is not a pair of integers"),
        ],
    )
    def test_rejection_messages(self, terms, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Ordinal(terms)

    def test_omega_term(self):
        assert omega_term(0, 3).terms == ((0, 3),)
        assert omega_term(2, 1).terms == ((2, 1),)
        assert omega_term(5, 0) is ZERO
        with pytest.raises(ValueError):
            omega_term(-1, 1)
        with pytest.raises(ValueError):
            omega_term(1, -1)
        with pytest.raises(ValueError, match="exponent must be a natural number"):
            omega_term(True, 2)
        with pytest.raises(ValueError, match="coefficient must be a natural number"):
            omega_term(2, True)


class TestFormat:
    @pytest.mark.parametrize(
        "terms, text",
        [
            ((), "0"),
            (((0, 7),), "7"),
            (((1, 1),), "w"),
            (((1, 4),), "w*4"),
            (((2, 1),), "w^2"),
            (((2, 5),), "w^2*5"),
            (((3, 2), (1, 1), (0, 9)), "w^3*2 + w + 9"),
        ],
    )
    def test_examples(self, terms, text):
        assert format_ordinal(Ordinal(terms)) == text
        assert parse_ordinal(text) == Ordinal(terms)

    @pytest.mark.parametrize(
        "text",
        ["", " ", "w^0", "w*0", "0 + 1", "1 + w", "w + w", "w^2 + w^2", "-1", "w^-1",
         "01", "w^01", "2w", "w ^ 2", "1+w", "w^1", "w*1", "w^1*1", "w^2*1",
         "w\n", "5\n", "w^2*3\n + 1\n"],
    )
    def test_parse_rejects(self, text):
        with pytest.raises(OrdinalParseError) as excinfo:
            parse_ordinal(text)
        if text in ("1 + w", "w + w", "w^2 + w^2"):
            assert str(excinfo.value) == (
                f"terms of {text!r} are not in strictly decreasing exponent order"
            )
        # A term regex anchored with $ would also match before a final newline.
        malformed = {"w\n": r"'w\n'", "5\n": r"'5\n'", "w^2*3\n + 1\n": r"'w^2*3\n'"}
        if text in malformed:
            assert str(excinfo.value) == f"malformed ordinal term {malformed[text]}"

    @pytest.mark.parametrize("text", ["1" * 5000, "w^" + "2" * 5000, "w*" + "3" * 5000])
    def test_parse_rejects_numbers_too_long_to_convert(self, text):
        with pytest.raises(OrdinalParseError, match=f"^ordinal term of {len(text)} characters: "):
            parse_ordinal(text)

    def test_parse_rejects_non_text(self):
        with pytest.raises(OrdinalParseError) as excinfo:
            parse_ordinal(3)
        assert str(excinfo.value) == "expected text, got int"

    @given(ordinals())
    def test_round_trip(self, a):
        assert parse_ordinal(format_ordinal(a)) == a


class TestArithmetic:
    def test_examples(self):
        w = omega_term(1, 1)
        assert omega_term(0, 3) + omega_term(0, 4) == omega_term(0, 7)
        assert omega_term(0, 3) + w == w
        assert w + omega_term(0, 3) == parse_ordinal("w + 3")
        assert w + w == omega_term(1, 2)
        assert parse_ordinal("w + 3") + parse_ordinal("w + 5") == parse_ordinal("w*2 + 5")
        assert omega_term(2, 1) + parse_ordinal("w*3 + 1") == parse_ordinal("w^2 + w*3 + 1")

    @given(ordinals(), ordinals())
    def test_add_closed_and_canonical(self, a, b):
        c = a + b
        exps = [e for e, _ in c.terms]
        assert exps == sorted(exps, reverse=True)
        assert len(set(exps)) == len(exps)
        assert all(coeff >= 1 for _, coeff in c.terms)

    @given(ordinals(), ordinals(), ordinals())
    def test_add_associative(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @given(ordinals(), ordinals())
    def test_left_absorption(self, a, b):
        if not b.is_zero and (a.is_zero or a.leading_exponent < b.leading_exponent):
            assert a + b == b

    @given(ordinals())
    def test_zero_identity(self, a):
        assert a + ZERO == a
        assert ZERO + a == a

    @given(ordinals(), ordinals())
    def test_add_weakly_increasing(self, a, b):
        assert a + b >= a
        assert a + b >= b

    def test_scale_examples(self):
        assert parse_ordinal("w + 3").scale(2) == parse_ordinal("w*2 + 3")
        assert omega_term(2, 3).scale(4) == omega_term(2, 12)
        assert omega_term(1, 1).scale(0) is ZERO
        with pytest.raises(ValueError):
            omega_term(1, 1).scale(-1)
        for k in (True, False):
            with pytest.raises(ValueError, match="scale factor must be a natural number"):
                omega_term(1, 1).scale(k)

    @given(ordinals(), st.integers(min_value=0, max_value=20),
           st.integers(min_value=0, max_value=20))
    def test_scale_distributes_over_natural_addition(self, a, m, n):
        assert a.scale(m + n) == a.scale(m) + a.scale(n)

    @given(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=30))
    def test_omega_term_is_repeated_addition(self, mu, n):
        total = ZERO
        for _ in range(n):
            total = total + omega_term(mu, 1)
        assert total == omega_term(mu, n)


def assert_canonical(result):
    """result is what the validating constructor makes of its own terms."""
    assert type(result) is Ordinal
    assert type(result.terms) is tuple
    for term in result.terms:
        assert type(term) is tuple and len(term) == 2
        assert all(type(value) is int for value in term)
    assert Ordinal(result.terms) == result


class TestBuiltResults:
    """Sums, scalings and w^mu*n terms are built without validation, so
    each must already be in Cantor normal form."""

    @given(ordinals(), ordinals())
    def test_sum_is_canonical(self, a, b):
        assert_canonical(a + b)

    @given(ordinals(), st.integers(min_value=0, max_value=20))
    def test_scale_is_canonical(self, a, k):
        assert_canonical(a.scale(k))

    @given(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=10**30))
    def test_omega_term_is_canonical(self, mu, n):
        assert_canonical(omega_term(mu, n))

    @given(st.lists(ordinals(), max_size=8))
    # a + w^e*4, a of one to three terms, e at, above and below the
    # exponent of a's last term: the one-term right summand of a status.
    @example([parse_ordinal("w^2*3"), omega_term(2, 4)])
    @example([parse_ordinal("w^2*3"), omega_term(3, 4)])
    @example([parse_ordinal("w^2*3"), omega_term(1, 4)])
    @example([parse_ordinal("w^3 + w^2*3"), omega_term(2, 4)])
    @example([parse_ordinal("w^3 + w^2*3"), omega_term(3, 4)])
    @example([parse_ordinal("w^3 + w^2*3"), omega_term(1, 4)])
    @example([parse_ordinal("w^4*2 + w^3 + w^2*3"), omega_term(2, 4)])
    @example([parse_ordinal("w^4*2 + w^3 + w^2*3"), omega_term(3, 4)])
    @example([parse_ordinal("w^4*2 + w^3 + w^2*3"), omega_term(1, 4)])
    # Two one-term ordinals at one exponent, which add in one step:
    # finite, at exponent 1, and with coefficients above 2**64; and 0
    # plus a one-term ordinal, and a one-term ordinal plus 0.
    @example([omega_term(0, 5), omega_term(0, 7)])
    @example([omega_term(1, 3), omega_term(1, 4)])
    @example([omega_term(2, 2**64 + 1), omega_term(2, 2**65 + 3)])
    @example([ZERO, omega_term(2, 4)])
    @example([omega_term(2, 4), ZERO])
    def test_sums_match_oracle(self, summands):
        total = sum(summands, ZERO)
        assert total.terms == oracle_ordinal_sum(a.terms for a in summands)

    @pytest.mark.parametrize(
        "texts, expected",
        [
            (["5", "w"], "w"),
            (["w*2 + 7", "w^2"], "w^2"),
            (["w^3 + w^2 + 4", "w^2*5 + w"], "w^3 + w^2*6 + w"),
            (["w^3 + w + 1", "w^2 + 3", "w^2*2"], "w^3 + w^2*3"),
            (["w^2 + w*3", "w*4 + 2", "w"], "w^2 + w*8"),
            (["w^4", "1", "w^4*2", "w^2"], "w^4*3 + w^2"),
        ],
    )
    def test_mixed_exponent_sums(self, texts, expected):
        summands = [parse_ordinal(text) for text in texts]
        total = sum(summands, ZERO)
        assert format_ordinal(total) == expected
        assert total.terms == oracle_ordinal_sum(a.terms for a in summands)

    @pytest.mark.parametrize("mu", [0, 1, 2, 5])
    def test_status_shaped_sum(self, mu):
        # mu_status's loop: 1,000 hop counts, a source at 0 among them.
        rng = random.Random(mu)
        hops = [0] + [rng.randint(0, 60) for _ in range(999)]
        total = sum((omega_term(mu, n) for n in hops), Ordinal())
        assert format_ordinal(total) == oracle_ordinal_text(mu, sum(hops))
        assert_canonical(total)


class TestOrder:
    def test_examples(self):
        chain = ["0", "1", "2", "w", "w + 1", "w*2", "w^2", "w^2 + w*5 + 3", "w^3"]
        parsed = [parse_ordinal(t) for t in chain]
        assert parsed == sorted(parsed)
        assert all(a < b for a, b in zip(parsed, parsed[1:]))

    def test_other_types_are_not_ordinals(self):
        a = parse_ordinal("w + 1")
        assert (a == 3) is False
        with pytest.raises(TypeError):
            a < 3
        with pytest.raises(TypeError):
            a + 3
        with pytest.raises(TypeError):
            3 + a

    @given(ordinals(), ordinals())
    def test_trichotomy(self, a, b):
        assert (a < b) + (a == b) + (a > b) == 1

    @given(ordinals(), ordinals(), ordinals())
    def test_left_addition_preserves_order(self, a, b, c):
        if a < b:
            assert c + a < c + b

    @given(ordinals(), ordinals())
    def test_hash_consistent(self, a, b):
        if a == b:
            assert hash(a) == hash(b)
