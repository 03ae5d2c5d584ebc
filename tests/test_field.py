"""Unit tests for the deterministic field contexts."""

import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import horner, inv_array, mul_array, subfield_inverse, unit_circle
from pentaperm import field
from pentaperm.field import (
    CANONICAL_MODULUS,
    N_CAP,
    FieldCtx,
    LinearMap,
    make_field,
    omega,
)
from pentaperm.gf2poly import BinPoly, _divmod, _gcd, _mul, poly_divmod, poly_mul


def reference_mul(ctx, a, b):
    """Schoolbook product in GF(2)[x], reduced by the context's modulus."""
    product = poly_mul(BinPoly(a), BinPoly(b))
    return poly_divmod(product, BinPoly(ctx.modulus))[1].bits


def brute_force_least_irreducible(n):
    """Independent sieve: trial division by every lower-degree polynomial."""
    for cand in range(1 << n, 1 << (n + 1)):
        if not cand & 1:
            continue  # divisible by x
        composite = False
        for d in range(2, 1 << (n // 2 + 1)):
            if d.bit_length() < 2 or d.bit_length() > n // 2 + 1:
                continue
            a, dd = cand, d
            while a.bit_length() >= dd.bit_length():
                a ^= dd << (a.bit_length() - dd.bit_length())
            if a == 0:
                composite = True
                break
        if not composite:
            return cand
    raise AssertionError


@pytest.mark.parametrize("n,expected", [(2, 0b111), (3, 0b1011), (4, 0b10011)])
def test_canonical_modulus_small(n, expected):
    assert CANONICAL_MODULUS[n] == expected


def test_canonical_table_matches_independent_sieve():
    for n in range(2, 13):
        assert CANONICAL_MODULUS[n] == brute_force_least_irreducible(n)


def is_irreducible(bits: int) -> bool:
    """Irreducibility over GF(2): no factor of degree <= deg/2 shares a root."""
    if bits <= 1:
        return False
    b = 2
    for _ in range((bits.bit_length() - 1) // 2):
        b = _divmod(_mul(b, b), bits)[1]
        if _gcd(b ^ 2, bits) != 1:
            return False
    return True


def test_canonical_table_entries_are_irreducible():
    # every degree make_field accepts has an entry: the table is the only source
    assert sorted(CANONICAL_MODULUS) == list(range(1, N_CAP + 1))
    for n, bits in CANONICAL_MODULUS.items():
        assert bits.bit_length() == n + 1
        assert is_irreducible(bits)


def test_make_field_deterministic_and_cached():
    a = make_field(8, 4)
    b = make_field(8, 4)
    assert a is b
    assert a.modulus == CANONICAL_MODULUS[8]


@pytest.mark.parametrize("m", [2, 8, 9])
def test_subfield_context_shares_the_plain_tables(m):
    # one GF(2^(2m)), one context: tables are built once per degree, on
    # both sides of the table-backed threshold
    sub, plain = make_field(2 * m, m), make_field(2 * m)
    assert sub is plain
    assert sub.exp_array() is plain.exp_array()
    assert sub.generator() == plain.generator()
    assert sub.mul(3, 5) == plain.mul(3, 5)


@pytest.mark.parametrize("m", [2, 8, 9])
def test_one_context_per_degree(m):
    sub, plain = make_field(2 * m, m), make_field(2 * m)
    assert sub is plain and sub.subfield_m == m
    a, b = sub.elem(3), plain.elem(5)
    assert (a * b).bits == (b * a).bits == sub.mul(3, 5)
    assert a + b == plain.elem(6)
    assert make_field(2 * m + 1).subfield_m is None


def test_make_field_validation():
    with pytest.raises(ValueError):
        make_field(0)
    with pytest.raises(ValueError):
        make_field(41)
    with pytest.raises(ValueError):
        make_field(6, 2)


def test_lagrange_and_frobenius_power_laws():
    ctx = make_field(4)
    for bits in range(1, 16):
        x = ctx.elem(bits)
        assert x ** 15 == ctx.one()
        assert x ** 2 == x * x
    # squaring is additive
    for a in range(16):
        for b in range(16):
            lhs = ctx.elem(a ^ b) ** 2
            rhs = ctx.elem(ctx.sqr(a) ^ ctx.sqr(b))
            assert lhs == rhs


def test_pow_zero_conventions():
    ctx = make_field(4)
    assert ctx.zero() ** 0 == ctx.one()
    assert ctx.zero() ** 7 == ctx.zero()


def test_gf4_omega_inverse_pair():
    ctx = make_field(2, 1)
    w = omega(ctx)
    assert w * (w * w) == ctx.one()


def test_omega_defining_relation():
    for n, m in ((2, 1), (4, 2), (6, 3), (8, 4)):
        ctx = make_field(n, m)
        w = omega(ctx)
        assert w * w + w + ctx.one() == ctx.zero()
        assert w ** 3 == ctx.one()
        assert w + w * w == ctx.one()


def test_omega_determinism_gf4():
    # both residues x and x+1 satisfy the relation; the bit-smaller one wins
    ctx = make_field(2)
    assert omega(ctx).bits == 0b10


def test_omega_rejects_odd_degree():
    with pytest.raises(ValueError):
        omega(make_field(3))


def test_frobenius_is_involution_and_fixes_subfield():
    ctx = make_field(8, 4)
    fixed = 0
    for bits in range(256):
        assert ctx.frob_q(ctx.frob_q(bits)) == bits
        if ctx.frob_q(bits) == bits:
            fixed += 1
    assert fixed == 16


def test_frobenius_is_field_automorphism(rng):
    ctx = make_field(10, 5)
    for _ in range(200):
        x, y = rng.randrange(1 << 10), rng.randrange(1 << 10)
        assert ctx.frob_q(ctx.mul(x, y)) == ctx.mul(ctx.frob_q(x), ctx.frob_q(y))
        assert ctx.frob_q(x ^ y) == ctx.frob_q(x) ^ ctx.frob_q(y)


def test_frobenius_of_omega_odd_m():
    ctx = make_field(6, 3)
    w = omega(ctx)
    assert ctx.frob_q(w.bits) == (w * w).bits


def test_frobenius_requires_subfield():
    ctx = make_field(5)
    with pytest.raises(ValueError):
        ctx.frob_q(1)


def test_unit_circle_gf4():
    ctx = make_field(2, 1)
    assert [e.bits for e in unit_circle(ctx)] == [1, 2, 3]


@pytest.mark.parametrize("m", range(1, 7))
def test_unit_circle_cardinality_and_membership(m):
    ctx = make_field(2 * m, m)
    circle = unit_circle(ctx)
    q = 1 << m
    assert len(circle) == q + 1
    members = {e.bits for e in circle}
    assert len(members) == q + 1
    # x^(q+1) = 1 exactly on the circle
    for bits in range(1 << ctx.n):
        expected = bits in members
        assert (ctx.pow(bits, q + 1) == 1 and bits != 0) == expected


def test_unit_circle_group_structure():
    ctx = make_field(8, 4)
    circle = [e.bits for e in unit_circle(ctx)]
    members = set(circle)
    prod = 1
    for a in circle:
        assert ctx.inv(a) in members
        prod = ctx.mul(prod, a)
        for b in circle[:5]:
            assert ctx.mul(a, b) in members
    assert prod == 1


@pytest.mark.parametrize("m,expected", [(1, True), (2, False), (3, True), (4, False)])
def test_omega_on_unit_circle_iff_m_odd(m, expected):
    ctx = make_field(2 * m, m)
    w = omega(ctx)
    assert (w in unit_circle(ctx)) == expected


def test_in_base_field():
    for m in (2, 3):
        ctx = make_field(2 * m, m)
        # GF(q) is the fixed field of x -> x^q
        assert ctx.frob_q(0) == 0
        assert ctx.frob_q(1) == 1
        assert (ctx.frob_q(omega(ctx).bits) == omega(ctx).bits) == (m % 2 == 0)


def test_cross_context_operations_rejected():
    a = make_field(4).one()
    b = make_field(8).one()
    with pytest.raises(ValueError):
        a * b
    assert a * make_field(4, 2).one() == a


def test_inversion_of_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        make_field(4).zero().inverse()


def test_elem_hex_form():
    ctx = make_field(4)
    assert ctx.elem(9).hex() == "gf16:0x9"
    assert repr(ctx.elem(0)) == "gf16:0x0"


def test_large_field_mul_agrees_with_table_path(rng):
    # same modulus, table path (n<=16) vs carryless path, via tower-free check:
    # multiply in GF(2^18) and verify with the schoolbook reference
    ctx = make_field(18, 9)
    for _ in range(200):
        a = rng.randrange(1 << 18)
        b = rng.randrange(1 << 18)
        assert ctx.mul(a, b) == reference_mul(ctx, a, b)


def test_big_field_pow_and_inv():
    ctx = make_field(20, 10)
    for bits in (1, 2, 0x12345, (1 << 20) - 1):
        assert ctx.mul(bits, ctx.inv(bits)) == 1
        assert ctx.pow(bits, ctx.order) == 1


def test_table_multiplication_agrees_with_shift_reduce(rng):
    # the log/antilog path must match the definitional shift-and-reduce
    # product on every table-backed degree
    for n in range(2, 17):
        ctx = make_field(n)
        for _ in range(100):
            a, b = rng.randrange(1 << n), rng.randrange(1 << n)
            assert ctx.mul(a, b) == reference_mul(ctx, a, b)


def test_fold_reduction_agrees_with_shift_reduce(rng):
    # same for the carryless-product-plus-byte-fold path, up to the cap
    for n in (17, 21, 24, 33, 40):
        ctx = make_field(n)
        for _ in range(100):
            a, b = rng.randrange(1 << n), rng.randrange(1 << n)
            assert ctx.mul(a, b) == reference_mul(ctx, a, b)


# generator() values when the antilog construction was unified; elements
# are only canonical while these stay fixed
PINNED_GENERATORS = {
    2: 2, 3: 2, 4: 2, 5: 2, 6: 2, 7: 2, 8: 3, 9: 7, 10: 2, 11: 2, 12: 3,
    13: 2, 14: 7, 15: 2, 16: 3, 17: 2, 18: 10, 19: 2, 20: 2, 21: 2, 22: 2,
    23: 2, 24: 2, 25: 2, 26: 3, 27: 2, 28: 7, 29: 2, 30: 19, 31: 2, 32: 3,
}


def test_generator_pinned():
    assert {n: make_field(n).generator() for n in PINNED_GENERATORS} == PINNED_GENERATORS


@pytest.mark.parametrize("n", range(2, 21))
def test_exp_array_is_the_generator_walk(n, rng):
    import numpy as np

    ctx = make_field(n)
    g = ctx.generator()
    table = ctx.exp_array()
    assert table.dtype == np.int64 and len(table) == ctx.order
    for k in [0, 1, 2, ctx.order - 1] + [rng.randrange(ctx.order) for _ in range(50)]:
        assert int(table[k]) == ctx.pow(g, k)
    # a bijection onto the nonzero elements
    hits = np.zeros(1 << n, dtype=bool)
    hits[table] = True
    assert not hits[0] and int(hits.sum()) == ctx.order
    # up to n = 16 the log table inverts it; larger contexts keep none
    if n <= 16:
        log = ctx.log_array()
        assert log.dtype == np.uint16 and np.array_equal(log[table], np.arange(ctx.order))
    else:
        with pytest.raises(ValueError, match="no log table"):
            ctx.log_array()


@pytest.mark.parametrize("n", [1, 2, 5, 8, 16, 17, 24, 33, N_CAP])
def test_powers_of_arbitrary_base(n, rng):
    ctx = make_field(n)
    for base in (0, 1, rng.randrange(1, 1 << n)):
        for count in (0, 1, 2, 7, 300):
            got = ctx.powers(base, count).tolist()
            assert got == [ctx.pow(base, k) for k in range(count)]


@st.composite
def powers_with_head(draw):
    """A degree n <= 24, a base, a count and a head row of field elements."""
    n = draw(st.integers(1, 24))
    element = st.integers(0, (1 << n) - 1)
    return (n, draw(element), draw(st.integers(0, 300)),
            draw(st.lists(element, min_size=1, max_size=40)))


@given(case=powers_with_head())
def test_powers_from_a_head_row(case):
    # out[k] = head[k mod L] * base^(k // L), by scalar arithmetic
    n, base, count, head = case
    ctx = make_field(n)
    got = ctx.powers(base, count, np.array(head, dtype=np.int64)).tolist()
    assert got == [ctx.mul(head[k % len(head)], ctx.pow(base, k // len(head)))
                   for k in range(count)]


def test_exp_array_refuses_a_non_generator(monkeypatch):
    # a fresh context, so no antilog table is cached; g^3 has order
    # (2^18 - 1)/3, so its walk closes but revisits 1 twice
    ctx = FieldCtx(18, CANONICAL_MODULUS[18])
    not_generator = ctx.pow(make_field(18).generator(), 3)
    monkeypatch.setattr(FieldCtx, "generator", lambda self: not_generator)
    with pytest.raises(AssertionError, match="generator order mismatch"):
        ctx.exp_array()


def test_unit_circle_refuses_a_non_generator(monkeypatch):
    # q + 1 = 513 is divisible by 3, so (g^3)^(q-1) has order 171: its walk
    # of q + 1 steps closes but revisits 1
    ctx = FieldCtx(18, CANONICAL_MODULUS[18])
    not_generator = ctx.pow(make_field(18).generator(), 3)
    monkeypatch.setattr(FieldCtx, "generator", lambda self: not_generator)
    with pytest.raises(AssertionError, match="generator order mismatch"):
        ctx._subgroup((1 << 9) + 1)


# -- array multiply and inverse -------------------------------------------------

# The shift-and-add multiply and Itoh-Tsujii inverse in conftest are the
# references of oracle's ramification scan (which divides through the log
# tables) and of its circle kernel (polar form); these tests check them.

# n = 16/17 straddle the log-table threshold of the scalar reference
ARRAY_DEGREES = st.sampled_from([1, 16, 17, 40]) | st.integers(1, 40)


@given(n=ARRAY_DEGREES, data=st.data())
def test_field_axioms(n, data):
    # n <= 16 multiplies through the log tables, larger n through clmul + fold
    ctx = make_field(n)
    a, b, c = data.draw(st.tuples(*[st.integers(0, ctx.order)] * 3))
    e1, e2 = data.draw(st.tuples(st.integers(0, 1 << 42), st.integers(0, 1 << 42)))
    mul = ctx.mul
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, b) == mul(b, a)
    assert mul(a, b ^ c) == mul(a, b) ^ mul(a, c)
    assert mul(a, 1) == a
    if a:
        assert mul(a, ctx.inv(a)) == 1
    assert ctx.pow(a, e1 + e2) == mul(ctx.pow(a, e1), ctx.pow(a, e2))


@given(n=ARRAY_DEGREES, data=st.data())
def test_power_sum_is_horner(n, data):
    # log tables at n <= 16, clmul + fold above; degrees up to 2n + 1 pass the
    # group order, and x = 0 meets the constant term (0^0 = 1)
    ctx = make_field(n)
    polys = [0, 1, 0b11] + data.draw(st.lists(st.integers(0, (1 << 2 * n + 2) - 1), max_size=3))
    xs = [0, 1, ctx.order] + data.draw(st.lists(st.integers(0, ctx.order), max_size=3))
    for p in polys:
        for x in xs:
            assert ctx.power_sum(x, BinPoly(p).exponents()) == horner(ctx, p, x)


@given(n=ARRAY_DEGREES, data=st.data())
def test_mul_array_is_field_multiplication(n, data):
    ctx = make_field(n)
    element = st.integers(0, ctx.order)
    pairs = [(0, 0), (0, ctx.order), (ctx.order, 1)] + data.draw(
        st.lists(st.tuples(element, element), max_size=20))
    a, b = (np.array(col, dtype=np.int64) for col in zip(*pairs))
    assert mul_array(ctx, a, b).tolist() == [ctx.mul(x, y) for x, y in pairs]


@given(n=ARRAY_DEGREES, data=st.data())
def test_inv_array_is_field_inversion(n, data):
    ctx = make_field(n)
    xs = [0, 1, ctx.order] + data.draw(st.lists(st.integers(1, ctx.order), max_size=20))
    got = inv_array(ctx, np.array(xs, dtype=np.int64)).tolist()
    assert got == [0] + [ctx.inv(x) for x in xs[1:]]


@pytest.mark.parametrize("n", [3, 16, 17, 40])
def test_array_multiply_and_inverse_in_slices_of_5(n, rng, monkeypatch):
    # 23 entries make four full slices and a partial one; the subfield table
    # is built first at the usual slice size (GF(2^20)* in slices of 5 is slow)
    ctx = make_field(n)
    inv_array(ctx, np.ones(1, dtype=np.int64))
    monkeypatch.setattr(field, "_CHUNK", 5)
    xs = [0, 1, ctx.order] + [rng.randrange(1, 1 << n) for _ in range(20)]
    ys = [rng.randrange(1 << n) for _ in xs]
    a, b = np.array(xs, dtype=np.int64), np.array(ys, dtype=np.int64)
    assert mul_array(ctx, a, b).tolist() == [ctx.mul(x, y) for x, y in zip(xs, ys)]
    assert inv_array(ctx, a).tolist() == [0] + [ctx.inv(x) for x in xs[1:]]


@pytest.mark.parametrize("n", range(1, N_CAP + 1))
def test_inv_array_equals_scalar_inverse_at_every_degree(n, rng):
    # n = 2m inverts through the norm to GF(2^m), n = 9, 15, 21 walk k = 3
    # through their subfield, and prime n is the plain chain (d = 1)
    ctx = make_field(n)
    xs = list(range(1 << n)) if n <= 12 else (
        [0, 1, ctx.order] + [rng.randrange(1, 1 << n) for _ in range(300)])
    got = inv_array(ctx, np.array(xs, dtype=np.int64)).tolist()
    assert got == [0] + [ctx.inv(x) for x in xs[1:]]


def test_inv_array_refuses_a_norm_missing_from_the_subfield_table(monkeypatch):
    # GF(2^6)* inside GF(2^12) loses one element: without the norm check, its
    # lookup would return the next entry's log, a wrong inverse
    ctx = make_field(12)
    subgroup = FieldCtx._subgroup
    monkeypatch.setattr(FieldCtx, "_subgroup", lambda self, size: np.delete(
        subgroup(self, size), 5) if size == 63 else subgroup(self, size))
    subfield_inverse.cache_clear()
    try:
        with pytest.raises(AssertionError, match="norm missing from the subfield table"):
            inv_array(ctx, np.arange(1 << 12))
    finally:
        subfield_inverse.cache_clear()


def test_subfield_table_refuses_a_non_generator(monkeypatch):
    # (2^18 - 1)/(2^9 - 1) = 513, and (g^7)^513 has order 511/7 = 73: its
    # walk of 511 steps closes but revisits 1
    ctx = FieldCtx(18, CANONICAL_MODULUS[18])
    not_generator = ctx.pow(make_field(18).generator(), 7)
    subfield_inverse.cache_clear()
    monkeypatch.setattr(FieldCtx, "generator", lambda self: not_generator)
    with pytest.raises(AssertionError, match="generator order mismatch"):
        inv_array(ctx, np.arange(1, 8))


# -- the GF(2)-linear-map kernel -----------------------------------------------

@st.composite
def linear_maps(draw, max_n=24):
    """n <= max_n, the images of the n basis bits, and a few inputs."""
    n = draw(st.integers(1, max_n))
    images = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n))
    xs = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=20))
    return images, xs


def xor_of_images(images, x):
    out = 0
    for k, img in enumerate(images):
        if x >> k & 1:
            out ^= img
    return out


@given(case=linear_maps())
def test_linear_map_is_the_xor_of_basis_images(case):
    images, xs = case
    lin = LinearMap(images)
    want = [xor_of_images(images, x) for x in xs]
    assert [lin(x) for x in xs] == want
    got = lin.apply(np.array(xs, dtype=np.int64))
    assert got.dtype == np.int64 and got.tolist() == want


@given(case=linear_maps(max_n=48), extra=st.integers(1, 5))
def test_every_call_form_is_the_xor_of_basis_images(case, extra):
    # scalars and arrays, with or without caller buffers, read the same tables;
    # 48 bits covers the 2n-bit joint maps of the bivariate certificates
    images, xs = case
    lin = LinearMap(images)
    arr = np.array(xs, dtype=np.int64)
    want = [xor_of_images(images, x) for x in xs]
    assert [lin(x) for x in xs] == want
    buf, scratch = np.empty(len(arr), dtype=np.int64), np.empty(len(arr) + extra, dtype=np.int64)
    assert lin.apply(arr).tolist() == want
    assert lin.apply(arr, out=buf) is buf and buf.tolist() == want
    buf[:] = -1
    assert lin.apply(arr, out=buf, scratch=scratch) is buf and buf.tolist() == want
    # a pickled copy of a map whose scalar views exist rebuilds its tables
    assert [pickle.loads(pickle.dumps(lin))(x) for x in xs] == want


@given(case=linear_maps(max_n=12))
def test_rank_and_first_dependent_bit_match_enumeration(case):
    images, xs = case
    lin = LinearMap(images)
    # the first k with images[k] in the span of images[:k], by enumerating the span
    span, first = {0}, None
    for k, img in enumerate(images):
        if img in span:
            first = k if first is None else first
        else:
            span |= {s ^ img for s in span}
    assert lin.first_dependent_bit() == first
    assert 1 << lin.rank() == len(span)
    for y in images + xs + [lin(x) for x in xs]:
        x = lin.preimage(y)
        assert lin(x) == y if y in span else x is None


@given(n=st.integers(1, 24), data=st.data())
def test_times_is_field_multiplication(n, data):
    ctx = make_field(n)
    c = data.draw(st.integers(0, ctx.order))
    xs = data.draw(st.lists(st.integers(0, ctx.order), min_size=1, max_size=20))
    times = ctx._times(c)
    want = [ctx.mul(c, x) for x in xs]
    assert [times(x) for x in xs] == want
    assert times.apply(np.array(xs, dtype=np.int64)).tolist() == want


@given(m=st.integers(1, 12), data=st.data())
def test_frobenius_map_is_m_squarings(m, data):
    ctx = make_field(2 * m, m)
    xs = data.draw(st.lists(st.integers(0, ctx.order), min_size=1, max_size=20))
    for x in xs:
        want = x
        for _ in range(m):
            want = ctx.mul(want, want)
        assert ctx.frobenius()(x) == ctx.frob_q(x) == want


@given(m=st.integers(1, 12), data=st.data())
def test_linearized_map_inverse_and_rank(m, data):
    ctx = make_field(2 * m, m)
    q = 1 << m
    a, b = data.draw(st.tuples(st.integers(0, ctx.order), st.integers(0, ctx.order)))
    if data.draw(st.booleans()):
        # force a^(q+1) = b^(q+1): b = a times an element of the unit circle
        zeta = ctx.pow(ctx.generator(), q - 1)
        b = ctx.mul(a, ctx.pow(zeta, data.draw(st.integers(0, q))))
    lin = ctx.linearized(a, b)
    xs = data.draw(st.lists(st.integers(0, ctx.order), min_size=1, max_size=20))
    assert [lin(x) for x in xs] == [ctx.mul(a, x) ^ ctx.mul(b, ctx.frob_q(x)) for x in xs]
    singular = ctx.pow(a, q + 1) == ctx.pow(b, q + 1)
    assert (lin.rank() < ctx.n) == singular
    if not singular:
        assert [lin.preimage(lin(x)) for x in xs] == xs
        assert [lin(lin.preimage(x)) for x in xs] == xs
