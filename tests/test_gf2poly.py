"""Unit tests for bit-packed GF(2)[x] arithmetic."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pentaperm.families import FamilySpec, build_H, build_N
from pentaperm.field import make_field, omega
from pentaperm.gf2poly import (
    BinPoly,
    Q,
    _gcd,
    poly_derivative,
    poly_divmod,
    poly_eval,
    poly_gcd,
    poly_mul,
    poly_reverse,
    q_multiplicity,
)

X = BinPoly(0b10)
ONE = BinPoly(1)


def P(text):
    return BinPoly.from_text(text)


def test_mul_char2_square():
    assert poly_mul(P("x+1"), P("x+1")) == P("x^2+1")


def test_mul_frobenius_of_q():
    assert poly_mul(Q, Q) == P("x^4+x^2+1")


def test_mul_factorization_of_cube():
    assert poly_mul(P("x^2+x+1"), P("x+1")) == P("x^3+1")


def test_mul_zero_and_one():
    assert poly_mul(BinPoly(0), Q) == BinPoly(0)
    assert poly_mul(ONE, Q) == Q


def test_mul_matches_schoolbook_on_random_pairs(rng):
    # exercises both the word-level product and the shift-xor fallback
    for _ in range(200):
        a = BinPoly(rng.getrandbits(rng.randrange(1, 130)))
        b = BinPoly(rng.getrandbits(rng.randrange(1, 130)))
        slow = 0
        for e in a.exponents():
            slow ^= b.bits << e
        assert poly_mul(a, b).bits == slow


def test_mul_at_word_boundaries(rng):
    # the nibble-split product hands off to schoolbook at 48 bits; check
    # operand widths straddling that edge, including one long operand
    for bits_a in (47, 48, 49, 200):
        for bits_b in (46, 47, 48, 49):
            a = rng.getrandbits(bits_a) | 1 << (bits_a - 1)
            b = rng.getrandbits(bits_b) | 1 << (bits_b - 1)
            slow = 0
            for e in BinPoly(a).exponents():
                slow ^= b << e
            assert poly_mul(BinPoly(a), BinPoly(b)).bits == slow


def test_gcd_q_divides_cube():
    assert poly_gcd(Q, P("x^3+1")) == Q


def test_gcd_coprime_family_pair():
    # gcd(H_A(1,1), N_A(1,1)) = 1, consistent with r_A = 0 for both odd
    spec = FamilySpec("A", 1, 1)
    assert poly_gcd(build_H(spec), build_N(spec)) == ONE


def test_gcd_q_power_family_pair():
    # gcd(N_B(2,4), H_B(2,4)) = Q^4, consistent with r_B = Q1 = 4
    spec = FamilySpec("B", 2, 4)
    assert poly_gcd(build_N(spec), build_H(spec)) == Q**4


def test_gcd_with_zero_and_rejects_both_zero():
    assert poly_gcd(Q, BinPoly(0)) == Q
    with pytest.raises(ValueError):
        poly_gcd(BinPoly(0), BinPoly(0))


def test_gcd_divides_both_inputs(rng):
    for _ in range(100):
        a = BinPoly(rng.getrandbits(60))
        b = BinPoly(rng.getrandbits(60))
        if not a.bits and not b.bits:
            continue
        g = poly_gcd(a, b)
        for v in (a, b):
            q, r = poly_divmod(v, g)
            assert r == BinPoly(0)
            assert poly_mul(q, g) == v


def test_derivative_basic():
    assert poly_derivative(P("x^3+x+1")) == P("x^2+1")
    assert poly_derivative(P("x^4")) == BinPoly(0)


def test_derivative_of_zero():
    assert poly_derivative(BinPoly(0)) == BinPoly(0)


def test_derivative_of_family_polynomial():
    assert poly_derivative(P("x^10+x^9+x^3+x+1")) == P("x^8+x^2+1")


def test_derivative_additive_and_product_rule(rng):
    for _ in range(100):
        a = BinPoly(rng.getrandbits(64))
        b = BinPoly(rng.getrandbits(64))
        assert poly_derivative(a + b) == poly_derivative(a) + poly_derivative(b)
        lhs = poly_derivative(poly_mul(a, b))
        rhs = poly_mul(poly_derivative(a), b) + poly_mul(a, poly_derivative(b))
        assert lhs == rhs


def test_reverse_self_reciprocal_q():
    assert poly_reverse(Q, 2) == Q


def test_reverse_monomial():
    assert poly_reverse(P("x^3"), 5) == P("x^2")


def test_reverse_family_numerator():
    # x^11 * H_A(3,1)(1/x) = x^11+x^10+x^8+x^2+x
    assert poly_reverse(P("x^10+x^9+x^3+x+1"), 11) == P("x^11+x^10+x^8+x^2+x")


def test_reverse_rejects_small_k():
    with pytest.raises(ValueError):
        poly_reverse(P("x^3"), 2)


def test_reverse_involution(rng):
    for _ in range(100):
        a = BinPoly(rng.getrandbits(50))
        k = (a.degree or 0) + rng.randrange(0, 5)
        assert poly_reverse(poly_reverse(a, k), k) == a


def test_q_multiplicity_constructed():
    assert q_multiplicity(poly_mul(Q**2, P("x+1"))) == 2
    assert q_multiplicity(P("x+1")) == 0


def test_q_multiplicity_of_family_gcd():
    spec = FamilySpec("B", 2, 4)
    assert q_multiplicity(poly_gcd(build_N(spec), build_H(spec))) == 4


def test_q_multiplicity_rejects_zero():
    with pytest.raises(ValueError):
        q_multiplicity(BinPoly(0))


def test_eval_q_at_zero_and_omega():
    ctx = make_field(4, 2)
    assert poly_eval(Q, ctx.zero()) == ctx.one()
    assert poly_eval(Q, omega(ctx)) == ctx.zero()


def test_eval_family_at_one():
    ctx = make_field(4, 2)
    h = build_H(FamilySpec("A", 3, 1))
    assert poly_eval(h, ctx.one()) == ctx.one()


def test_divmod_reconstructs(rng):
    for _ in range(100):
        a = BinPoly(rng.getrandbits(70))
        b = BinPoly(rng.getrandbits(30) | 1)
        q, r = poly_divmod(a, b)
        assert poly_mul(q, b) + r == a
        assert r.bits < 1 << (b.degree or 0)


# small masks and masks past the 48-bit word product (_WORD_BITS)
POLYS = st.builds(BinPoly, st.integers(0, 1 << 12) | st.integers(0, 1 << 130))


@given(a=POLYS, b=POLYS, c=POLYS)
def test_ring_laws(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(a=POLYS, b=POLYS.filter(bool))
def test_divmod_property(a, b):
    q, r = divmod(a, b)
    assert a == q * b + r
    assert r.degree is None or r.degree < b.degree
    assert poly_divmod(a, b) == (q, r)


def test_divmod_by_zero():
    with pytest.raises(ZeroDivisionError):
        poly_divmod(Q, BinPoly(0))


def test_text_roundtrip():
    for text in ("0", "1", "x", "x^2+x+1", "x^10+x^9+x^3+x+1"):
        assert BinPoly.from_text(text).to_text() == text


def test_hex_roundtrip():
    assert Q.to_hex() == "07"
    for bits in (0, 1, 0b111, 0x1F5, 1 << 90):
        p = BinPoly(bits)
        assert BinPoly.from_hex(p.to_hex()) == p


def test_degree_marker():
    assert BinPoly(0).degree is None
    assert ONE.degree == 0
    assert Q.degree == 2


def test_pow():
    assert Q**0 == ONE
    assert Q**4 == P("x^8+x^4+1")


def _gcd_by_divmod(a, b):
    """Euclid's algorithm through poly_divmod, quotient and all."""
    while b:
        a, b = b, poly_divmod(BinPoly(a), BinPoly(b))[1].bits
    return a


MASKS = st.one_of(st.just(0), st.integers(0, (1 << 64) - 1))


@given(a=MASKS, b=MASKS)
def test_remainder_only_gcd_equals_divmod_euclid(a, b):
    assert _gcd(a, b) == _gcd_by_divmod(a, b)
