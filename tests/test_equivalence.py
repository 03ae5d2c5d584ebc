"""Unit tests for linear-equivalence certificates and their searches."""

import dataclasses
import itertools
import math

import pytest
from conftest import all_specs, power_sum_table
from hypothesis import given
from hypothesis import strategies as st

from pentaperm import equivalence, oracle
from pentaperm.equivalence import (
    BivariateCert,
    CertificateError,
    MonomialCert,
    f4_pool,
    monomial_exponent,
    search_bivariate_cert,
    search_monomial_cert,
    verify_bivariate_cert,
    verify_monomial_cert,
)
from pentaperm.families import FamilySpec
from pentaperm.field import FieldCtx, make_field, omega
from pentaperm.oracle import _power_sum_array, brute_is_permutation
from pentaperm.theory import r_closed_form

FAMILY17 = FamilySpec("B", 5, 6)


def _thm_monomial_cert(m):
    # L1 = w^2 x^q + x and L2 = x^q + w x, around the monomial x^97
    ctx = make_field(2 * m, m)
    w = omega(ctx)
    return MonomialCert(a1=ctx.one(), b1=w * w, a2=w, b2=ctx.one(), e=97)


def _thm_bivariate_cert(m):
    # L2 = (w^2 x^q + w x, w x^q + w^2 x), L1(u, v) = w u + w^2 v
    ctx = make_field(2 * m, m)
    w = omega(ctx)
    w2 = w * w
    return BivariateCert(c1=w2, c2=w, c3=w, c4=w2, d1=w, d2=w2, e=97)


def test_monomial_exponent():
    assert monomial_exponent(FAMILY17, 2) == 97
    assert monomial_exponent(FAMILY17, 12) == 97
    assert monomial_exponent(FamilySpec("B", 2, 4), 4) == 21 + 4 * 15


def test_monomial_exponent_takes_r_from_g():
    # r = (t - deg g) / 2 read off the oracle's g equals the closed form
    for spec in all_specs(12):
        assert monomial_exponent(spec, 2) == spec.t + 3 * r_closed_form(spec), spec


def test_exponent_gcd_splits_by_crt():
    # gcd(e, q^2-1) = 1 iff gcd(t, q-1) = 1 and gcd(t-2r, q+1) = 1
    for m in range(2, 13):
        q = 1 << m
        for cls in "ABC":
            for i in range(1, 5):
                for j in range(1, 5):
                    spec = FamilySpec(cls, i, j)
                    r = r_closed_form(spec)
                    e = monomial_exponent(spec, m)
                    lhs = math.gcd(e, q * q - 1) == 1
                    rhs = (math.gcd(spec.t, q - 1) == 1
                           and math.gcd(spec.t - 2 * r, q + 1) == 1)
                    assert lhs == rhs


@pytest.mark.parametrize("m", [2, 4])
def test_theorem_monomial_certificate(m):
    assert verify_monomial_cert(_thm_monomial_cert(m), FAMILY17, m)


def test_identity_maps_do_not_certify():
    ctx = make_field(4, 2)
    cert = MonomialCert(ctx.one(), ctx.zero(), ctx.one(), ctx.zero(), 97)
    assert not verify_monomial_cert(cert, FAMILY17, 2)


def test_noninvertible_linearized_map_is_an_error():
    ctx = make_field(4, 2)
    cert = MonomialCert(ctx.one(), ctx.one(), ctx.one(), ctx.zero(), 97)
    with pytest.raises(CertificateError) as err:
        verify_monomial_cert(cert, FAMILY17, 2)
    assert err.value.reason == "not-invertible"


def test_monomial_search_family17():
    cert = search_monomial_cert(FAMILY17, 2)
    assert cert is not None
    assert cert.e == 97
    assert verify_monomial_cert(cert, FAMILY17, 2)


def test_monomial_search_nonzero_r():
    spec = FamilySpec("B", 2, 4)
    cert = search_monomial_cert(spec, 2)
    assert cert is not None
    assert cert.e == 21 + 4 * 3
    assert verify_monomial_cert(cert, spec, 2)


def test_monomial_search_when_f_is_not_a_permutation():
    # equivalence holds regardless of permutation status
    spec = FamilySpec("A", 3, 1)
    assert not brute_is_permutation(spec, 4) or True  # status irrelevant
    cert = search_monomial_cert(spec, 4)
    assert cert is not None
    assert verify_monomial_cert(cert, spec, 4)


def test_monomial_search_exhausted_pool_returns_none():
    ctx = make_field(4, 2)
    tiny = (ctx.zero(), ctx.one())
    assert search_monomial_cert(FAMILY17, 2, pool=tiny) is None


@pytest.mark.parametrize("m", [3, 5])
def test_theorem_bivariate_certificate(m):
    assert verify_bivariate_cert(_thm_bivariate_cert(m), FAMILY17, m)


def test_bivariate_swap_fails_pointwise():
    ctx = make_field(6, 3)
    w = omega(ctx)
    w2 = w * w
    swapped = BivariateCert(c1=w2, c2=w, c3=w, c4=w2, d1=w2, d2=w, e=97)
    assert not verify_bivariate_cert(swapped, FAMILY17, 3)


def test_bivariate_noninjective_is_an_error():
    ctx = make_field(6, 3)
    w = omega(ctx)
    one = ctx.one()
    cert = BivariateCert(c1=one, c2=one, c3=one, c4=one, d1=w, d2=w * w, e=97)
    with pytest.raises(CertificateError) as err:
        verify_bivariate_cert(cert, FAMILY17, 3)
    assert err.value.reason == "not-injective"


def test_bivariate_component_leaving_subfield_is_an_error():
    ctx = make_field(6, 3)
    w = omega(ctx)
    cert = BivariateCert(c1=ctx.one(), c2=ctx.zero(), c3=w, c4=w * w,
                         d1=w, d2=w * w, e=97)
    with pytest.raises(CertificateError) as err:
        verify_bivariate_cert(cert, FAMILY17, 3)
    assert err.value.reason == "component-leaves-subfield"


def test_bivariate_degenerate_combiner_is_an_error():
    ctx = make_field(6, 3)
    w = omega(ctx)
    w2 = w * w
    cert = BivariateCert(c1=w2, c2=w, c3=w, c4=w2,
                         d1=ctx.one(), d2=ctx.one(), e=97)
    with pytest.raises(CertificateError) as err:
        verify_bivariate_cert(cert, FAMILY17, 3)
    assert err.value.reason == "degenerate-combiner"


def test_bivariate_search_family17_and_row2():
    for spec in (FAMILY17, FamilySpec("A", 3, 1)):
        cert = search_bivariate_cert(spec, 3)
        assert cert is not None
        assert verify_bivariate_cert(cert, spec, 3)


def test_bivariate_search_replays_one_combiner_per_sound_l2(monkeypatch):
    # FAMILY17 at m = 3 meets four sound L2; the combiner is solved from f at
    # L2^-1(1, 0) and L2^-1(0, 1), so each L2 is replayed at most once, with
    # one combiner, whose two maps x -> d x are the only ones built
    ctx = make_field(6, 3)
    search_bivariate_cert(FAMILY17, 3)  # warm the per-degree caches
    pool = {p.bits for p in f4_pool(ctx)}
    built, replays = [], []
    times, mismatch = FieldCtx._times, equivalence._replay_mismatch
    monkeypatch.setattr(FieldCtx, "_times", lambda self, c: built.append(c) or times(self, c))
    monkeypatch.setattr(equivalence, "_replay_mismatch",
                        lambda *args: replays.append(args[3]) or mismatch(*args))
    assert search_bivariate_cert(FAMILY17, 3) is not None
    inners = {tuple(inner.images for _, inner in terms) for terms in replays}
    assert len(inners) == len(replays) <= 4
    assert len([c for c in built if c in pool]) <= 2 * 4


def test_bivariate_search_requires_r_zero():
    with pytest.raises(ValueError):
        search_bivariate_cert(FamilySpec("B", 2, 4), 3)


@pytest.mark.parametrize("cert_m, m", [(4, 2), (4, 6), (5, 3), (3, 5)])
def test_certificate_from_another_field_is_refused(cert_m, m):
    # coefficients of GF(2^(2 cert_m)) replayed at m used to raise IndexError,
    # return False, or fail as "component-leaves-subfield"
    if m % 2:
        verify, cert = verify_bivariate_cert, _thm_bivariate_cert(cert_m)
    else:
        verify, cert = verify_monomial_cert, _thm_monomial_cert(cert_m)
    with pytest.raises(ValueError, match="does not belong") as err:
        verify(cert, FAMILY17, m)
    assert type(err.value) is ValueError


@pytest.mark.parametrize("m", [2, 3])
def test_nonpositive_exponent_is_refused(m):
    # replay reads 0^e = 0, which fails for e = 0
    if m % 2:
        verify, cert = verify_bivariate_cert, _thm_bivariate_cert(m)
    else:
        verify, cert = verify_monomial_cert, _thm_monomial_cert(m)
    with pytest.raises(ValueError, match="exponent must be positive"):
        verify(dataclasses.replace(cert, e=0), FAMILY17, m)


def test_parity_guards():
    with pytest.raises(ValueError):
        verify_monomial_cert(_thm_monomial_cert(2), FAMILY17, 3)
    with pytest.raises(ValueError):
        search_bivariate_cert(FAMILY17, 2)


def test_found_certificates_predict_brute_status():
    # the exponent-gcd reading of each found certificate must agree with brute
    for spec, m in ((FamilySpec("A", 3, 1), 2), (FamilySpec("C", 4, 2), 2),
                    (FamilySpec("B", 3, 2), 2)):
        q = 1 << m
        cert = search_monomial_cert(spec, m)
        assert cert is not None
        predicted = math.gcd(cert.e, q * q - 1) == 1
        assert predicted == brute_is_permutation(spec, m)
    for spec, m in ((FamilySpec("A", 3, 1), 3), (FamilySpec("B", 3, 2), 3)):
        q = 1 << m
        cert = search_bivariate_cert(spec, m)
        assert cert is not None
        predicted = math.gcd(cert.e, q - 1) == 1
        assert predicted == brute_is_permutation(spec, m)


def test_f4_pool_is_deterministic():
    ctx = make_field(4, 2)
    pool = f4_pool(ctx)
    assert [p.bits for p in pool] == sorted(p.bits for p in pool)
    assert len(pool) == 4


def _starred_specs():
    from pentaperm.families import match_row, table1_registry

    return [match_row(row) for row in table1_registry() if row.starred]


def test_f4_pool_suffices_for_every_starred_row_at_m4():
    for spec in _starred_specs():
        cert = search_monomial_cert(spec, 4)
        assert cert is not None and verify_monomial_cert(cert, spec, 4)


def test_f4_pool_suffices_for_every_starred_row_at_m5():
    for spec in _starred_specs():
        cert = search_bivariate_cert(spec, 5)
        assert cert is not None and verify_bivariate_cert(cert, spec, 5)


# -- pointwise references for certificate replay ------------------------------

def _frob(ctx, x):
    # x^q by m squarings, independent of the linear-map kernel
    for _ in range(ctx.subfield_m):
        x = ctx.mul(x, x)
    return x


def monomial_matches_pointwise(ctx, fvals, a1, b1, a2, b2, e):
    """L1(L2(x)^e) = f(x) at every x, point by point in bit order."""
    for x in range(1 << ctx.n):
        u = ctx.mul(a2, x) ^ ctx.mul(b2, _frob(ctx, x))
        p = ctx.pow(u, e)
        if ctx.mul(a1, p) ^ ctx.mul(b1, _frob(ctx, p)) != fvals[x]:
            return False
    return True


def bivariate_status_pointwise(ctx, fvals, c1, c2, c3, c4, d1, d2, e):
    """(status, x) at the first failing x in bit order, or ("ok", None);
    at one x, leaving the subfield comes before a repeat, then a mismatch."""
    seen = set()
    for x in range(1 << ctx.n):
        fx = _frob(ctx, x)
        u = ctx.mul(c1, fx) ^ ctx.mul(c2, x)
        v = ctx.mul(c3, fx) ^ ctx.mul(c4, x)
        if _frob(ctx, u) != u or _frob(ctx, v) != v:
            return "leaves-subfield", x
        if (u, v) in seen:
            return "not-injective", x
        seen.add((u, v))
        if ctx.mul(d1, ctx.pow(u, e)) ^ ctx.mul(d2, ctx.pow(v, e)) != fvals[x]:
            return "mismatch", x
    return "ok", None


def bivariate_search_scan(spec, m, pool):
    """The bivariate search as a scan over combiners: the first sound L2 in
    pool order, then the first valid combiner (d1, d2 nonzero, d2/d1
    outside GF(q)) in pool order, that replays point by point."""
    ctx = make_field(2 * m, m)
    bits = [p.bits for p in pool]
    fvals = power_sum_table(ctx, spec.shape().exponents(m))
    zeros = [0] * (1 << ctx.n)  # with d1 = d2 = 0 only structure can fail
    ratios = {(d1, d2): ctx.mul(d2, ctx.inv(d1))
              for d1, d2 in itertools.product(bits, repeat=2) if d1 and d2}
    combiners = [d for d, ratio in ratios.items() if _frob(ctx, ratio) != ratio]
    for l2 in itertools.product(bits, repeat=4):
        if bivariate_status_pointwise(ctx, zeros, *l2, 0, 0, spec.t)[0] != "ok":
            continue
        for d1, d2 in combiners:
            if bivariate_status_pointwise(ctx, fvals, *l2, d1, d2, spec.t)[0] == "ok":
                return BivariateCert(*(ctx.elem(c) for c in (*l2, d1, d2)), spec.t)
    return None


# pools as bit masks, None for F_4: the whole of GF(4) at m = 1, and at m = 3
# a subset for which some sound L2 solve to a combiner outside the pool
@pytest.mark.parametrize("m, pool_bits", [(1, None), (3, None), (1, range(4)),
                                          (3, (13, 24, 28, 30, 41, 48, 50, 63))])
def test_solved_bivariate_search_equals_combiner_scan(m, pool_bits):
    ctx = make_field(2 * m, m)
    pool = f4_pool(ctx) if pool_bits is None else [ctx.elem(b) for b in pool_bits]
    specs = [spec for spec in all_specs(4) if r_closed_form(spec) == 0]
    assert specs
    for spec in specs:
        assert search_bivariate_cert(spec, m, pool) == bivariate_search_scan(spec, m, pool)


REPLAY_SPECS = [FAMILY17, FamilySpec("A", 3, 1), FamilySpec("C", 2, 2), FamilySpec("B", 2, 4)]


def _monomial_replay_matches(ctx, spec, ptab, a1, b1, a2, b2):
    terms = [(ctx.linearized(a1, b1), ctx.linearized(a2, b2))]
    return not equivalence._replay_mismatch(ctx, spec, ptab, terms, 1 << ctx.n)


@pytest.mark.parametrize("m", [2, 4])
def test_monomial_replay_equals_pointwise_on_f4_pool(m):
    # every tuple, singular maps included: replay reads x^e at L2(x)
    ctx = make_field(2 * m, m)
    pool = [p.bits for p in f4_pool(ctx)]
    for spec in REPLAY_SPECS:
        fvals = power_sum_table(ctx, spec.shape().exponents(m))
        for e in (monomial_exponent(spec, m), spec.t):
            ptab = _power_sum_array(ctx, [e])
            for tup in itertools.product(pool, repeat=4):
                got = _monomial_replay_matches(ctx, spec, ptab, *tup)
                assert got == monomial_matches_pointwise(ctx, fvals, *tup, e)


@given(data=st.data(), m=st.sampled_from([1, 2]), spec=st.sampled_from(REPLAY_SPECS))
def test_monomial_replay_equals_pointwise(data, m, spec):
    ctx = make_field(2 * m, m)
    tup = data.draw(st.tuples(*[st.integers(0, ctx.order)] * 4))
    e = data.draw(st.sampled_from([monomial_exponent(spec, m), spec.t]))
    fvals = power_sum_table(ctx, spec.shape().exponents(m))
    got = _monomial_replay_matches(ctx, spec, _power_sum_array(ctx, [e]), *tup)
    assert got == monomial_matches_pointwise(ctx, fvals, *tup, e)


@given(data=st.data(), m=st.sampled_from([1, 3]), spec=st.sampled_from(REPLAY_SPECS[:2]))
def test_bivariate_replay_equals_pointwise(data, m, spec):
    ctx = make_field(2 * m, m)
    c1, c2, c3, c4, d1, d2 = data.draw(st.tuples(*[st.integers(0, ctx.order)] * 6))
    # c x^q + c' x lands in GF(q) iff c = c'^q: take that half the time
    c1, c3 = (_frob(ctx, c_) if data.draw(st.booleans()) else c for c, c_ in ((c1, c2), (c3, c4)))
    tup = c1, c2, c3, c4, d1, d2
    fvals = power_sum_table(ctx, spec.shape().exponents(m))
    want, _ = bivariate_status_pointwise(ctx, fvals, *tup, spec.t)
    # _bivariate_status replays below the first structural failure
    ptab = _power_sum_array(ctx, [spec.t])
    assert equivalence._bivariate_status(ctx, spec, ptab, *tup) == want


@pytest.mark.parametrize("m", [1, 3])
def test_bivariate_replay_equals_pointwise_on_f4_pool(m):
    ctx = make_field(2 * m, m)
    pool = [p.bits for p in f4_pool(ctx)]
    statuses = set()
    for spec in REPLAY_SPECS[:2]:
        exps = spec.shape().exponents(m)
        fvals = power_sum_table(ctx, exps)
        ptab = _power_sum_array(ctx, [spec.t])
        for tup in itertools.product(pool, repeat=6):
            want, _ = bivariate_status_pointwise(ctx, fvals, *tup, spec.t)
            assert equivalence._bivariate_status(ctx, spec, ptab, *tup) == want
            statuses.add(want)
    assert statuses == {"ok", "leaves-subfield", "not-injective", "mismatch"}


def test_first_structural_failure_is_at_a_power_of_two():
    # hand-made L2 at m = 3: u = v = Tr(c x^q) repeats first where the kernel's
    # least leading bit is, and u = c x with c in GF(8)* leaves GF(8) first at
    # x = 2; both are past bit 0 for most c
    m = 3
    ctx = make_field(2 * m, m)
    w = omega(ctx).bits
    w2 = ctx.sqr(w)
    cases = [(c, _frob(ctx, c), c, _frob(ctx, c)) for c in range(1 << ctx.n)]
    cases += [(0, c, w2, w) for c in range(1 << ctx.n)]
    zeros = [0] * (1 << ctx.n)  # with d1 = d2 = 0 nothing mismatches
    fvals = power_sum_table(ctx, FAMILY17.shape().exponents(m))
    ptab = _power_sum_array(ctx, [97])
    late = set()
    for c1, c2, c3, c4 in cases:
        want, x = bivariate_status_pointwise(ctx, zeros, c1, c2, c3, c4, 0, 0, 97)
        b, got, _ = equivalence._first_structural_failure(
            ctx, ctx.linearized(c2, c1), ctx.linearized(c4, c3))
        assert got == want
        if want != "ok":
            assert x == 1 << b
            if b > 0:
                late.add(want)
        # with a real f and combiner a mismatch below 2^b comes first
        want, _ = bivariate_status_pointwise(ctx, fvals, c1, c2, c3, c4, w, w2, 97)
        assert equivalence._bivariate_status(ctx, FAMILY17, ptab, c1, c2, c3, c4, w, w2) == want
    assert late == {"not-injective", "leaves-subfield"}


# -- the streamed replay on multi-block fields ---------------------------------

def _thm_terms(m):
    """The theorem certificate's (outer, inner) replay terms at m."""
    ctx = make_field(2 * m, m)
    if m % 2 == 0:
        cert = _thm_monomial_cert(m)
        return [(ctx.linearized(cert.a1.bits, cert.b1.bits),
                 ctx.linearized(cert.a2.bits, cert.b2.bits))]
    cert = _thm_bivariate_cert(m)
    return [(ctx._times(cert.d1.bits), ctx.linearized(cert.c2.bits, cert.c1.bits)),
            (ctx._times(cert.d2.bits), ctx.linearized(cert.c4.bits, cert.c3.bits))]


@pytest.mark.parametrize("m", [9, 10])
def test_streamed_replay_reaches_the_last_point(m):
    # n = 18 and 20 sweep f in several blocks; x = g^-1 is the last point of
    # the last block, and for the monomial (m = 10) L2 is a bijection, so an
    # x^e entry tampered at L2(g^-1) is read there alone
    ctx = make_field(2 * m, m)
    assert ctx.order > oracle._BLOCK
    cert = _thm_bivariate_cert(m) if m % 2 else _thm_monomial_cert(m)
    verify = verify_bivariate_cert if m % 2 else verify_monomial_cert
    assert verify(cert, FAMILY17, m)
    terms, ptab = _thm_terms(m), _power_sum_array(ctx, [97])
    assert not equivalence._replay_mismatch(ctx, FAMILY17, ptab, terms, 1 << ctx.n)
    last = ctx.inv(ctx.generator())
    *_, (xs, _) = oracle._power_sum_blocks(ctx, (1,))
    assert int(xs[-1]) == last
    ptab[terms[0][1](last)] ^= 1
    assert equivalence._replay_mismatch(ctx, FAMILY17, ptab, terms, 1 << ctx.n)


def test_bivariate_mismatch_at_or_above_the_structural_failure_is_not_reported():
    # the theorem L2 with v(x) = x instead: v agrees with the theorem's at
    # x = 1 (w + w^2 = 1), leaves GF(q) at x = 2, and the replay mismatches
    # only from there on, so the status is the structural one
    m = 9
    ctx = make_field(2 * m, m)
    w = omega(ctx).bits
    w2 = ctx.sqr(w)
    u, v = ctx.linearized(w, w2), ctx.linearized(1, 0)
    assert equivalence._first_structural_failure(ctx, u, v)[:2] == (1, "leaves-subfield")
    ptab = _power_sum_array(ctx, [97])
    terms = [(ctx._times(w), u), (ctx._times(w2), v)]
    assert not equivalence._replay_mismatch(ctx, FAMILY17, ptab, terms, 2)
    assert equivalence._replay_mismatch(ctx, FAMILY17, ptab, terms, 1 << ctx.n)
    status = equivalence._bivariate_status(ctx, FAMILY17, ptab, w2, w, 0, 1, w, w2)
    assert status == "leaves-subfield"
