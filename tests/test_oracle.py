"""Unit tests for the brute-force oracles: sweeps, g on the circle,
ramification, and the degree-one-map classification procedures."""

import contextlib
import itertools
import math
import os
import random
import subprocess
import sys
import textwrap
from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_specs, inv_array, mul_array, power_sum_table
from pentaperm import field, oracle
from pentaperm.families import FamilySpec, eval_f, f_exponents
from pentaperm.field import FieldCtx, FieldElem, make_field, omega, unit_circle
from pentaperm.gf2poly import BinPoly
from pentaperm.oracle import (
    INFINITY,
    ProjPoint,
    RationalMap,
    branch_points,
    branch_points_of_map,
    brute_is_permutation,
    critical_point_residual,
    fiber_indices,
    g_eval,
    g_map,
    g_permutes_unit_circle,
    monomials_permute,
    ramification_index,
    ramification_profile,
    ramification_report,
)
from pentaperm.theory import theorem_verdict

# the default sweep block, and one small enough to split every field but GF(4)
BLOCKS = [oracle._BLOCK, 5]


@contextlib.contextmanager
def sweep_block(block, whole=oracle._WHOLE):
    """Sweep in blocks of the given size, one-block fields growing their sums
    from one period at `whole` nonzero points and above, with the verdict
    memo cleared on entry and exit, so that no verdict of another route answers."""
    oracle._sweep_permutes.cache_clear()
    try:
        with mock.patch.object(oracle, "_BLOCK", block), mock.patch.object(oracle, "_WHOLE", whole):
            yield
    finally:
        oracle._sweep_permutes.cache_clear()


def test_squaring_is_a_permutation():
    for n in (2, 4, 6):
        assert monomials_permute(n, [2])


def test_cube_on_gf4_is_not():
    assert not monomials_permute(2, [3])


def test_monomials_permute_validation():
    with pytest.raises(ValueError):
        monomials_permute(30, [2])
    with pytest.raises(ValueError):
        monomials_permute(4, [0])
    # degrees below 1 are refused by name before any field or array is built
    with mock.patch.object(oracle, "make_field", side_effect=AssertionError("built")):
        for n in (0, -1):
            with pytest.raises(ValueError, match=f"field degree {n} "):
                monomials_permute(n, [1])
        with pytest.raises(ValueError, match="field degree 0 "):
            brute_is_permutation(FamilySpec("A", 3, 1), 0)


@pytest.mark.parametrize("m", range(1, 5))
def test_power_sum_table_equals_eval_f(m):
    ctx = make_field(2 * m, m)
    for spec in all_specs(3):
        table = power_sum_table(ctx, f_exponents(spec, m))
        assert table == [eval_f(spec, ctx, x).bits for x in ctx.elements()]


@pytest.mark.parametrize("m", range(1, 5))
def test_power_sum_table_equals_eval_f_in_blocks_of_5(m):
    with sweep_block(5):
        test_power_sum_table_equals_eval_f(m)


@st.composite
def field_and_exponents(draw):
    """A degree n <= 8 and positive exponents, with multiples of 2^n - 1 and repeats."""
    n = draw(st.integers(1, 8))
    order = (1 << n) - 1
    # up to six distinct residues first, as in the search's five-term shapes
    # (a size drawn apart, since short lists dominate otherwise); then repeats
    size = min(draw(st.integers(0, 6)), order)
    exps = draw(st.lists(st.one_of(st.integers(1, 4 * order),
                                   st.integers(1, 4).map(lambda k: k * order)),
                         min_size=size, max_size=size, unique_by=lambda e: e % order))
    if exps:
        exps += draw(st.lists(st.sampled_from(exps), max_size=3))
    return n, draw(st.permutations(exps))


def permutes_by_enumeration(n, exps):
    ctx = make_field(n)
    images = set()
    for x in range(1 << n):
        y = 0
        for e in exps:
            y ^= ctx.pow(x, e)
        images.add(y)
    return len(images) == 1 << n


def assert_verdict_is_enumeration(n, exps, **bounds):
    want = permutes_by_enumeration(n, exps)
    with sweep_block(**bounds):
        assert monomials_permute(n, exps) == want
        assert oracle._sweep_permutes.cache_info().misses == 1  # swept, not recalled
        # the same verdict read off the bit-order table (equiv's route)
        assert oracle.table_permutes(oracle._power_sum_array(make_field(n), exps)) == want


@pytest.mark.parametrize("block", BLOCKS)
@settings(deadline=None)
@given(case=field_and_exponents())
def test_monomials_permute_equals_enumeration(block, case):
    assert_verdict_is_enumeration(*case, block=block)


@settings(deadline=None)
@given(case=field_and_exponents())
def test_monomials_permute_equals_enumeration_when_grown(case):
    # every one-block field sums columns over one period and grows the sum from it
    assert_verdict_is_enumeration(*case, block=oracle._BLOCK, whole=1)


@settings(deadline=None, max_examples=50)
@given(n=st.integers(1, 8), data=st.data())
def test_lists_with_one_memo_key_share_one_verdict(n, data):
    # a list of distinct residues, permuted, shifted by multiples of 2^n - 1
    # or padded with a cancelling pair, keeps its key, its verdict and its truth
    order = (1 << n) - 1
    exps = data.draw(st.lists(st.integers(1, 4 * order), min_size=1, max_size=6,
                              unique_by=lambda e: e % order))
    pair = data.draw(st.integers(1, 4 * order))
    variants = [
        exps,
        data.draw(st.permutations(exps)),
        [e + order * data.draw(st.integers(0, 3)) for e in exps],
        exps + [pair, pair + order],
    ]
    assert len({oracle._reduced_exponents(order, v) for v in variants}) == 1
    oracle._sweep_permutes.cache_clear()
    verdicts = [monomials_permute(n, v) for v in variants]
    assert oracle._sweep_permutes.cache_info().misses == 1
    assert verdicts == [permutes_by_enumeration(n, v) for v in variants]


def test_verdict_memo_is_bounded():
    assert oracle._sweep_permutes.cache_info().maxsize == oracle._MEMO_SIZE is not None


def test_verdict_memo_is_per_degree():
    # more distinct n = 6 keys than one memo holds do not evict an n = 4 verdict
    oracle._sweep_permutes.cache_clear()
    monomials_permute(4, [1])
    pairs = itertools.islice(itertools.combinations(range(1, 63), 2), oracle._MEMO_SIZE + 1)
    for pair in pairs:
        monomials_permute(6, pair)
    misses = oracle._sweep_permutes.cache_info().misses
    assert misses == oracle._MEMO_SIZE + 2
    monomials_permute(4, [1])
    assert oracle._sweep_permutes.cache_info().misses == misses


@pytest.mark.parametrize("verdict", [
    lambda: monomials_permute(4, [2]),
    lambda: monomials_permute(4, [3]),
    lambda: monomials_permute(18, [2]),
    lambda: monomials_permute(18, [3]),
    lambda: brute_is_permutation(FamilySpec("A", 3, 1), 2),
], ids=["one-block", "one-block-false", "multi-block", "multi-block-false", "brute"])
def test_verdicts_are_plain_bool(verdict):
    # a numpy bool breaks json.dumps of the answers downstream
    assert type(verdict()) is bool


def test_sweep_memory_is_the_antilog_table_plus_one_block():
    # the bound is the 32 MiB int64 antilog table of n = 22 plus as much
    # again; the sweep builds no such table, so it holds the 2^n-entry
    # bitmap and a few blocks (ru_maxrss is in KiB on Linux)
    code = textwrap.dedent("""
        import resource
        import numpy
        from pentaperm.families import FamilySpec, f_exponents
        from pentaperm.oracle import monomials_permute
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        verdict = monomials_permute(22, f_exponents(FamilySpec("B", 5, 6), 11))
        after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print(verdict, (after - before) * 1024)
    """)
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(oracle.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    verdict, grown = out.stdout.split()
    assert verdict == str(theorem_verdict(FamilySpec("B", 5, 6), 11).predicted)
    assert int(grown) <= 2 * 8 * ((1 << 22) - 1)


def test_sweep_memory_at_n24_is_the_bitmap_plus_a_few_blocks():
    # the 2^24-entry bool bitmap is 16 MiB; a 128 MiB antilog table, or any
    # other field-sized int64 array, breaks the bound
    code = textwrap.dedent("""
        import resource
        import numpy
        from pentaperm.families import FamilySpec, f_exponents
        from pentaperm.oracle import monomials_permute
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        verdict = monomials_permute(24, f_exponents(FamilySpec("B", 5, 6), 12))
        after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print(verdict, (after - before) * 1024)
    """)
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(oracle.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    verdict, grown = out.stdout.split()
    assert verdict == str(theorem_verdict(FamilySpec("B", 5, 6), 12).predicted)
    assert int(grown) <= 2 * (1 << 24)


def test_multi_block_points_cover_the_field_once():
    ctx = make_field(18)
    # a yielded block is valid until the next is requested: keep copies
    xs = np.concatenate([xs.copy() for xs, _ in oracle._power_sum_blocks(ctx, [3])])
    assert len(xs) == ctx.order
    assert np.array_equal(np.sort(xs), np.arange(1, 1 << 18))


def test_multi_block_power_sum_table_at_seeded_points(rng):
    ctx = make_field(18, 9)
    exps = [*f_exponents(FamilySpec("B", 5, 6), 9), ctx.order + 7, 1 << 20]
    table = power_sum_table(ctx, exps)
    for x in [0, 1] + [rng.randrange(1 << 18) for _ in range(998)]:
        want = 0
        for e in exps:
            want ^= ctx.pow(x, e)
        assert table[x] == want


def test_multi_block_sweep_refuses_a_non_generator(monkeypatch):
    ctx = make_field(18)
    not_generator = ctx.pow(ctx.generator(), 3)
    monkeypatch.setattr(FieldCtx, "generator", lambda self: not_generator)
    with pytest.raises(AssertionError, match="generator order mismatch"):
        list(oracle._power_sum_blocks(ctx, [1, 5]))


def test_multi_block_grouped_sweep_refuses_a_non_generator(monkeypatch):
    # a pentanomial's exponents share one step constant: the points column
    # keeps its own, and with it the generator-order check
    ctx = make_field(18, 9)
    not_generator = ctx.pow(ctx.generator(), 3)
    monkeypatch.setattr(FieldCtx, "generator", lambda self: not_generator)
    exps = oracle._reduced_exponents(ctx.order, f_exponents(FamilySpec("B", 5, 6), 9))
    with pytest.raises(AssertionError, match="generator order mismatch"):
        list(oracle._power_sum_blocks(ctx, exps))


@st.composite
def wide_field_exponents(draw, degrees):
    """A degree n = 2m and positive exponents: t + r_i (2^m - 1), which share
    a period dividing 2^m + 1, a family member's, or free ones."""
    n = draw(st.sampled_from(degrees))
    m, order = n // 2, (1 << n) - 1
    kind = draw(st.sampled_from(["shared period", "family", "free"]))
    if kind == "shared period":
        t = draw(st.integers(1, order))
        rs = draw(st.lists(st.integers(0, 1 << (m + 1)), min_size=1, max_size=6))
        return n, [t + r * ((1 << m) - 1) for r in rs]
    if kind == "family":
        spec = FamilySpec(draw(st.sampled_from("ABC")), draw(st.integers(1, 12)),
                          draw(st.integers(1, 12)))
        return n, list(f_exponents(spec, m))
    return n, draw(st.lists(st.integers(1, 4 * order), max_size=6))


def assert_power_sum_at_seeded_points(n, exps, count=200):
    ctx = make_field(n)
    table = oracle._power_sum_array(ctx, exps)
    rng = random.Random(0x5EED)
    for x in [0, 1] + [rng.randrange(1 << n) for _ in range(count)]:
        want = 0
        for e in exps:
            want ^= ctx.pow(x, e)
        assert int(table[x]) == want


# a block of 5 takes some 50,000 blocks at n = 18, seconds per sweep, so that
# size draws fewer examples and only n = 18
@pytest.mark.parametrize("block, degrees, examples", [
    (oracle._BLOCK, [18, 20], 30), (5, [18], 2)], ids=[str(b) for b in BLOCKS])
def test_multi_block_power_sum_equals_pointwise_sums(block, degrees, examples):
    @settings(deadline=None, max_examples=examples)
    @given(case=wide_field_exponents(degrees))
    def check(case):
        assert_power_sum_at_seeded_points(*case)

    with sweep_block(block):
        check()


def count_applies(monkeypatch):
    """Count constant multiplies on arrays (LinearMap.apply calls)."""
    calls = []
    apply = field.LinearMap.apply
    monkeypatch.setattr(field.LinearMap, "apply",
                        lambda self, src, **kw: calls.append(len(src)) or apply(self, src, **kw))
    return calls


@pytest.mark.parametrize("exps", [
    [7], [7, 7 + (1 << 18) - 1, 7 + 2 * ((1 << 18) - 1)], [5, 5 + (1 << 18) - 1], []],
    ids=["one exponent", "congruent", "cancelling", "empty"])
def test_multi_block_sweep_of_period_one(exps, monkeypatch):
    # P = 1: each block of _BLOCK logs steps the points and one sum (zero
    # when every term cancels)
    blocks = -(-((1 << 18) - 1) // oracle._BLOCK)
    calls = count_applies(monkeypatch)
    assert_power_sum_at_seeded_points(18, exps)
    assert calls.count(oracle._BLOCK) == 2 * (blocks - 1)


def test_pentanomial_sweep_steps_the_points_and_one_sum(monkeypatch):
    # B(5, 6) at m = 9 has period q + 1 = 513: blocks of 513 * 127 logs, and
    # two constant multiplies per block; [1, 5] (period 2^18 - 1) takes three
    order = (1 << 18) - 1
    calls = count_applies(monkeypatch)
    for exps, block, per_block in [(f_exponents(FamilySpec("B", 5, 6), 9), 513 * 127, 2),
                                   ([1, 5], oracle._BLOCK, 3)]:
        calls.clear()
        sizes = [len(xs) for xs, _ in oracle._power_sum_blocks(
            make_field(18), oracle._reduced_exponents(order, exps))]
        assert sizes == [block] * (order // block) + [order % block] * (order % block > 0)
        assert calls.count(block) == per_block * (len(sizes) - 1)


def test_verdict_sweep_steps_one_sum(monkeypatch):
    # the verdict path steps no points: one constant multiply per block of
    # 513 * 127 logs after the first, which grows from one period of 513
    exps = f_exponents(FamilySpec("B", 5, 6), 9)
    blocks = -(-((1 << 18) - 1) // (513 * 127))
    calls = count_applies(monkeypatch)
    with sweep_block(oracle._BLOCK):
        assert monomials_permute(18, exps) == theorem_verdict(FamilySpec("B", 5, 6), 9).predicted
    assert calls.count(513 * 127) == blocks - 1 and max(calls) == 513 * 127
    assert all(xs is None for xs, _ in oracle._power_sum_blocks(
        make_field(18), oracle._reduced_exponents((1 << 18) - 1, exps), points=False))


def test_verdict_sweep_refuses_a_non_generator(monkeypatch):
    ctx = make_field(18)
    not_generator = ctx.pow(ctx.generator(), 3)
    monkeypatch.setattr(FieldCtx, "generator", lambda self: not_generator)
    with sweep_block(oracle._BLOCK), pytest.raises(AssertionError, match="generator order mismatch"):
        monomials_permute(18, f_exponents(FamilySpec("B", 5, 6), 9))


def test_verdict_sweep_refuses_a_wrong_sum_step(monkeypatch):
    # the sum's step constant g^(B e_0), replaced by g^(B e_0 + 1): the
    # blocks still mark a bitmap, but the last sum is no longer f(g^-1)
    ctx = make_field(18)
    g, order = ctx.generator(), ctx.order
    exps = oracle._reduced_exponents(order, f_exponents(FamilySpec("B", 5, 6), 9))
    step = ctx.pow(g, 513 * 127 * exps[0])
    times = FieldCtx._times
    monkeypatch.setattr(FieldCtx, "_times", lambda self, c: times(
        self, self.mul(c, g) if self is ctx and c == step else c))
    with sweep_block(oracle._BLOCK), pytest.raises(AssertionError, match="sweep closure mismatch"):
        monomials_permute(18, exps)


def grown_cases(n, rng):
    """Exponent lists at n: seeded ones whose differences are multiples of
    order / p, p the least prime factor of order = 2^n - 1, so that their
    period P divides p (P < order unless order is prime, as at n = 13), the
    first two terms of it (zero at every x = g^(jP)), one exponent (P = 1;
    order - 1 takes the largest products k e), x + x^2 (P = order, zero at
    x = 1), the empty list, and at even n a family member (P = q + 1)."""
    order = (1 << n) - 1
    p = min(p for p in range(2, order + 1) if order % p == 0)
    t = rng.randrange(1, order)
    shared = [t + rng.randrange(1, 100) * (order // p) for _ in range(4)]
    cases = [shared, shared[:2], [t], [order - 1], [1, 2], []]
    if n % 2 == 0:
        cases.append(list(f_exponents(FamilySpec("B", 5, 6), n // 2)))
    return cases


@pytest.mark.parametrize("n", range(11, 17))
def test_one_block_sum_at_seeded_logs(n, rng):
    ctx = make_field(n)
    g, order = ctx.generator(), ctx.order
    for exps in grown_cases(n, rng):
        exps = oracle._reduced_exponents(order, exps)
        values = oracle._one_block_sum(ctx, exps)
        assert values.dtype == np.int64 and len(values) == order
        period = order // math.gcd(order, *(e - exps[0] for e in exps)) if exps else 1
        for k in [0, 1, period, order - 1] + [rng.randrange(order) for _ in range(200)]:
            want = 0
            for e in exps:
                want ^= ctx.pow(ctx.pow(g, k), e)
            assert int(values[k % order]) == want


def test_one_block_sweep_refuses_a_wrong_growth_step(monkeypatch):
    # the growth constant g^(P e_0), P = q + 1 = 257, replaced by g^(P e_0 + 1):
    # every row after the first is off, and so is the last sum
    ctx = make_field(16)
    g = ctx.generator()
    exps = oracle._reduced_exponents(ctx.order, f_exponents(FamilySpec("B", 5, 6), 8))
    power = FieldCtx.pow
    monkeypatch.setattr(FieldCtx, "pow", lambda self, a, e: power(
        self, a, e + (self is ctx and a == g and e == 257 * exps[0])))
    with sweep_block(oracle._BLOCK), pytest.raises(AssertionError, match="sweep closure mismatch"):
        monomials_permute(16, exps)


def test_brute_equals_theorem_on_every_cli_spec():
    # the 432 (class, i, j <= 12) specs the CLI accepts at m = 1..8: whole-group
    # columns up to n = 10, sums grown from one period at n = 12..16
    with sweep_block(oracle._BLOCK):
        cells = [(spec, m) for m in range(1, 9) for spec in all_specs(12)]
        mismatches = [(spec, m) for spec, m in cells
                      if brute_is_permutation(spec, m) != theorem_verdict(spec, m).predicted]
    assert len(cells) == 3456 and not mismatches, mismatches[:10]


def test_multi_block_sweep_with_a_block_the_period_divides():
    # a patched _BLOCK of 3 periods: every block is exactly _BLOCK logs
    exps = f_exponents(FamilySpec("B", 5, 6), 9)
    with sweep_block(3 * 513):
        sizes = [len(xs) for xs, _ in oracle._power_sum_blocks(
            make_field(18), oracle._reduced_exponents((1 << 18) - 1, exps))]
        assert set(sizes[:-1]) == {3 * 513} and sizes[-1] <= 3 * 513
        assert_power_sum_at_seeded_points(18, exps)
        assert monomials_permute(18, exps) == theorem_verdict(FamilySpec("B", 5, 6), 9).predicted


def test_circle_table_is_shared_read_only_and_checked(monkeypatch):
    ctx = make_field(18, 9)
    ztab = oracle._unit_circle_table(ctx)
    assert oracle._unit_circle_table(ctx) is ztab
    assert not ztab.flags.writeable
    # q + 1 = 513 is divisible by 3, so (g^3)^(q-1) has order 171: a rebuilt
    # circle must fail the generator-order check, not be served from the cache
    not_generator = ctx.pow(ctx.generator(), 3)
    oracle._unit_circle_table.cache_clear()
    monkeypatch.setattr(FieldCtx, "generator", lambda self: not_generator)
    with pytest.raises(AssertionError, match="generator order mismatch"):
        oracle.g_permutes_unit_circle(FamilySpec("B", 5, 6), 9)


def test_brute_row2_at_m2():
    assert brute_is_permutation(FamilySpec("A", 3, 1), 2)


def test_brute_cap():
    with pytest.raises(ValueError):
        brute_is_permutation(FamilySpec("A", 1, 1), 13)


def test_brute_agrees_with_verdict_spot():
    for m in (1, 2, 3, 4):
        for spec in all_specs(3):
            assert brute_is_permutation(spec, m) == theorem_verdict(spec, m).predicted


def test_brute_above_table_threshold():
    # n = 18 exercises the tableless sweep path, and its canonical field is
    # one where the residue class of x is not primitive
    from pentaperm.field import make_field

    assert make_field(18).generator() != 2
    spec = FamilySpec("B", 5, 6)
    assert brute_is_permutation(spec, 9) == theorem_verdict(spec, 9).predicted


def test_brute_equals_three_part_criterion():
    # permutation iff gcd(t, q-1) = 1, H root-free on the circle, and g
    # a bijection of the circle
    import math

    from pentaperm.theory import h_unit_roots_exist

    for m in range(1, 6):
        q = 1 << m
        for spec in all_specs(3):
            parts = (math.gcd(spec.t, q - 1) == 1
                     and not h_unit_roots_exist(spec, m)
                     and g_permutes_unit_circle(spec, m))
            assert brute_is_permutation(spec, m) == parts


def test_g_fixes_one():
    for m in (2, 3):
        ctx = make_field(2 * m, m)
        for spec in all_specs(3):
            assert g_eval(spec, ctx, ctx.one()) == ctx.one()


def test_g_maps_circle_into_circle_row2():
    ctx = make_field(4, 2)
    spec = FamilySpec("A", 3, 1)
    circle = set(unit_circle(ctx))
    for x in unit_circle(ctx):
        assert g_eval(spec, ctx, x) in circle


def test_reduced_denominator_nonvanishing_on_circle():
    ctx = make_field(8, 4)
    spec = FamilySpec("B", 2, 4)
    for x in unit_circle(ctx):
        assert g_eval(spec, ctx, x) is not INFINITY


def test_g_permutes_circle_examples():
    assert g_permutes_unit_circle(FamilySpec("A", 3, 1), 2)
    assert g_permutes_unit_circle(FamilySpec("A", 3, 1), 5)


@pytest.mark.parametrize("m", range(1, 9))
def test_g_permutes_circle_equals_pointwise_g_eval(m):
    # the scalar reference: g bijects the circle iff no point goes to
    # infinity and the q+1 images are the circle; odd m with r > 0 holds
    # cells where g hits infinity and cells where N and H share a root
    ctx = make_field(2 * m, m)
    circle = unit_circle(ctx)
    for spec in all_specs(5):
        images = {g_eval(spec, ctx, z) for z in circle}
        assert g_permutes_unit_circle(spec, m) == (images == set(circle)), spec


@pytest.mark.parametrize("m", [2, 4, 8])
def test_g_permutes_circle_refuses_a_zero_on_the_circle(m, monkeypatch):
    # (x + 1)/(x^2 + x + 1) takes 1, on every circle, to 0, off it; at even
    # m the roots of x^2 + x + 1 lie off the circle, so g has no pole there
    gmap = RationalMap.make(BinPoly(0b11), BinPoly(0b111))
    monkeypatch.setattr(oracle, "g_map", lambda spec: gmap)
    ctx = make_field(2 * m, m)
    assert 0 in oracle._sparse_values(oracle._unit_circle_table(ctx), np.arange(1), [0, 1])
    assert oracle._polar(ctx, np.zeros(1, dtype=np.int64))[1][0] < 0
    assert not g_permutes_unit_circle(FamilySpec("A", 1, 1), m)


@pytest.mark.parametrize("num, den", [(0b10, 0b111), (0b111, 0b10101)])
def test_g_permutes_circle_refuses_a_pole_on_the_circle(num, den, monkeypatch):
    # no family cell above has a pole on the circle; x/(x^2+x+1) has one
    # at omega, and (x^2+x+1)/(x^2+x+1)^2 one after reduction
    gmap = RationalMap.make(BinPoly(num), BinPoly(den))
    monkeypatch.setattr(oracle, "g_map", lambda spec: gmap)
    ctx = make_field(2, 1)
    spec = FamilySpec("A", 1, 1)
    assert INFINITY in {g_eval(spec, ctx, z) for z in unit_circle(ctx)}
    assert not g_permutes_unit_circle(spec, 1)


def test_g_permutes_circle_large_even_m():
    # m = 12: the even-branch criterion is gcd(97, 2^12 + 1) = 1
    import math

    spec = FamilySpec("B", 5, 6)
    expected = math.gcd(97, (1 << 12) + 1) == 1
    assert g_permutes_unit_circle(spec, 12) == expected


def test_g_permutes_cap():
    with pytest.raises(ValueError):
        g_permutes_unit_circle(FamilySpec("A", 1, 1), 21)


# -- reference: g on the circle by array inverse and multiply -------------------

def g_permutes_unit_circle_by_inverse(spec, m):
    """g = N H^-1 at every circle point by one array inverse and one array
    multiply, roots of H by the reduced form, and bijectivity by one sorted
    comparison with the circle."""
    ctx = make_field(2 * m, m)
    gmap = oracle.g_map(spec)
    ztab = oracle._unit_circle_table(ctx)
    ks = np.arange(len(ztab), dtype=np.int64)
    hvals = oracle._sparse_values(ztab, ks, gmap.den.exponents())
    values = mul_array(ctx, oracle._sparse_values(ztab, ks, gmap.num.exponents()),
                       inv_array(ctx, hvals))
    for k in np.flatnonzero(hvals == 0).tolist():
        red = gmap.eval_bits(ctx, int(ztab[k]))
        if red is INFINITY:
            return False
        values[k] = red
    return bool(np.array_equal(np.sort(values), np.sort(ztab)))


@pytest.mark.parametrize("m", range(1, 17))
def test_g_permutes_circle_equals_inverse_reference(m):
    # every (class, i, j <= 5) up to m = 12, then one seeded spec per m
    specs = all_specs(5) if m <= 12 else [random.Random(m).choice(all_specs(12))]
    for spec in specs:
        assert g_permutes_unit_circle(spec, m) == g_permutes_unit_circle_by_inverse(spec, m), spec


def circle_generators(m):
    """(gamma, zeta): the generators of GF(q)* and mu_(q+1) that the polar tables use."""
    ctx = make_field(2 * m, m)
    return ctx.pow(ctx.generator(), (1 << m) + 1), int(oracle._unit_circle_table(ctx)[1])


@pytest.mark.parametrize("m", range(1, 21))
@settings(deadline=None, max_examples=5)
@given(data=st.data())
def test_polar_form_rebuilds_y(m, data):
    # y = lambda zeta^i by scalar arithmetic, for random y and for y built
    # from (i, log lambda); i = 0 is the point with b = 0 and i = 1 (zeta
    # itself) the one with a = 0
    ctx = make_field(2 * m, m)
    q = 1 << m
    gamma, zeta = circle_generators(m)
    pairs = [(0, 0), (1, 0), (0, q - 2), (1, q - 2)] + data.draw(
        st.lists(st.tuples(st.integers(0, q), st.integers(0, q - 2)), max_size=8))
    randoms = data.draw(st.lists(st.integers(1, ctx.order), max_size=8))
    ys = randoms + [ctx.mul(ctx.pow(gamma, lam), ctx.pow(zeta, i)) for i, lam in pairs]
    index, logs = oracle._polar(ctx, np.array(ys, dtype=np.int64))
    got = list(zip(index.tolist(), logs.tolist()))
    assert [ctx.mul(ctx.pow(gamma, lam), ctx.pow(zeta, i)) for i, lam in got] == ys
    assert all(0 <= i <= q and 0 <= lam < q - 1 for i, lam in got)
    assert got[len(randoms):] == pairs


@pytest.mark.parametrize("m", range(2, 17, 2))
def test_g_permutes_circle_checks_lambda(m, monkeypatch):
    # negative control: N = x^2 + x + 1 over H = 1 takes the circle to q + 1
    # distinct ratio classes, but not to one lambda, so g does not permute it
    gmap = RationalMap.make(BinPoly(0b111), BinPoly(1))
    monkeypatch.setattr(oracle, "g_map", lambda spec: gmap)
    spec, ctx = FamilySpec("A", 1, 1), make_field(2 * m, m)
    ztab = oracle._unit_circle_table(ctx)
    index, logs = oracle._polar(ctx, oracle._sparse_values(ztab, np.arange(len(ztab)), [0, 1, 2]))
    assert len(set(index.tolist())) == len(ztab) and len(set(logs.tolist())) > 1
    assert not g_permutes_unit_circle(spec, m)
    assert not g_permutes_unit_circle_by_inverse(spec, m)


def test_polar_tables_refuse_a_non_generator(monkeypatch):
    # 3 divides q - 1 = 255, so (g^3)^(q+1) has order 85: the subfield
    # table must fail the generator-order check, with the circle cached
    ctx = make_field(16, 8)
    oracle._unit_circle_table(ctx)
    oracle._polar_tables.cache_clear()
    not_generator = ctx.pow(ctx.generator(), 3)
    monkeypatch.setattr(FieldCtx, "generator", lambda self: not_generator)
    with pytest.raises(AssertionError, match="generator order mismatch"):
        g_permutes_unit_circle(FamilySpec("B", 5, 6), 8)


@pytest.mark.parametrize("patch, message", [
    (lambda ztab: np.concatenate([ztab[:1], ztab[:1], ztab[2:]]), "polar basis is not a basis"),
    (lambda ztab: np.concatenate([ztab[:2], ztab[1:2], ztab[3:]]), "circle points share a ratio"),
], ids=["zeta-in-subfield", "repeated-point"])
def test_polar_tables_refuse_a_bad_circle(patch, message, monkeypatch):
    # zeta = 1 spans nothing beyond GF(q); a repeated point repeats its ratio
    ztab = oracle._unit_circle_table(make_field(10, 5))
    monkeypatch.setattr(oracle, "_unit_circle_table", lambda ctx: patch(ztab))
    oracle._polar_tables.cache_clear()
    try:
        with pytest.raises(AssertionError, match=message):
            oracle._polar_tables(make_field(10, 5))
    finally:
        oracle._polar_tables.cache_clear()


def test_ramification_of_pure_cube_at_zero():
    ctx = make_field(4, 2)
    cube = RationalMap.make(BinPoly(0b1000), BinPoly(1))
    assert ramification_index(cube, ctx.zero(), ctx) == 3


def test_ramification_at_omega_row2():
    ctx = make_field(4, 2)
    g = g_map(FamilySpec("A", 3, 1))
    assert ramification_index(g, omega(ctx), ctx) == 11


def test_degree_one_maps_are_unramified():
    ctx = make_field(4, 2)
    w = omega(ctx)
    rho = RationalMap.make(BinPoly(0b10), BinPoly(0b11))  # x / (x + 1)
    for bits in range(16):
        assert ramification_index(rho, ctx.elem(bits), ctx) == 1
    assert ramification_index(rho, INFINITY, ctx) == 1
    one_map = DegreeOneMap(w, ctx.one(), ctx.zero(), ctx.one())
    assert one_map.eval(INFINITY) is INFINITY


def test_branch_set_row2():
    ctx = make_field(4, 2)
    w = omega(ctx)
    assert branch_points(FamilySpec("A", 3, 1), ctx) == {w, w * w}


def test_branch_set_of_degree_one_map_empty():
    ctx = make_field(4, 2)
    rho = RationalMap.make(BinPoly(0b10), BinPoly(0b11))
    assert branch_points_of_map(rho, ctx) == set()


def test_branch_set_of_squaring_is_everything():
    # x -> x^2 is inseparable: every point is critical, hence every point
    # (including infinity) is a branch point
    ctx = make_field(4, 2)
    sq = RationalMap.make(BinPoly(0b100), BinPoly(1))
    expected = {ctx.elem(b) for b in range(16)} | {INFINITY}
    assert branch_points_of_map(sq, ctx) == expected


def test_ramification_profile_row2():
    ctx = make_field(4, 2)
    w = omega(ctx)
    profile = ramification_profile(FamilySpec("A", 3, 1), ctx)
    assert profile == {w: [11], w * w: [11]}


def test_profile_fiber_sums_reach_degree_over_branch_points():
    # over each branch point the whole fiber sits in the concrete field,
    # so the indices must sum to deg g = t - 2r
    for m in (2, 3):
        ctx = make_field(2 * m, m)
        for spec in all_specs(3):
            g = g_map(spec)
            for beta, idxs in ramification_profile(spec, ctx).items():
                assert sum(idxs) == g.degree


# -- reference: ramification indices by synthetic division ---------------------

def _lift(poly: BinPoly) -> list[int]:
    bits = poly.bits
    return [bits >> k & 1 for k in range(max(1, bits.bit_length()))]


def _scale(ctx, coeffs: list[int], c: int) -> list[int]:
    return [ctx.mul(a, c) for a in coeffs]


def _root_multiplicity(ctx, coeffs: list[int], alpha: int) -> int:
    # repeated synthetic division by (x + alpha)
    mult = 0
    while len(coeffs) > 1 or (coeffs and coeffs[0]):
        acc = 0
        quot = [0] * (len(coeffs) - 1)
        for k in range(len(coeffs) - 1, 0, -1):
            acc = coeffs[k] ^ ctx.mul(acc, alpha)
            quot[k - 1] = acc
        rem = coeffs[0] ^ ctx.mul(acc, alpha)
        if rem:
            break
        mult += 1
        coeffs = quot or [0]
        if len(coeffs) == 1 and coeffs[0] == 0:
            break
    return mult


def _index_at(g, a: int, value, ctx) -> int:
    """Multiplicity of a as a root of N - value*D (of D when value is INFINITY)."""
    if value is INFINITY:
        coeffs = _lift(g.reduced_den)
    else:
        num = _lift(g.reduced_num)
        den = _scale(ctx, _lift(g.reduced_den), value)
        width = max(len(num), len(den))
        num += [0] * (width - len(num))
        den += [0] * (width - len(den))
        coeffs = [x ^ y for x, y in zip(num, den)]
    return _root_multiplicity(ctx, coeffs, a)


def _reference_rows(g, ctx):
    """(image, index) per field point in bit order, then at infinity (through
    x -> 1/x), with an image of 2^n standing for infinity."""
    rows = []
    for bits in range(1 << ctx.n):
        value = g.eval_bits(ctx, bits)
        rows.append((1 << ctx.n if value is INFINITY else value,
                     _index_at(g, bits, value, ctx)))
    flipped = g.flipped()
    at_inf = g.value_at_infinity(ctx)
    rows.append((1 << ctx.n if at_inf is INFINITY else at_inf.bits,
                 _index_at(flipped, 0, flipped.eval_bits(ctx, 0), ctx)))
    return rows


REFERENCE_MAPS = [
    RationalMap.make(BinPoly(0b100), BinPoly(1)),  # x^2: inseparable
    RationalMap.make(BinPoly(0b1000), BinPoly(1)),  # x^3
    RationalMap.make(BinPoly(0b10), BinPoly(0b11)),  # x / (x + 1): degree one
    RationalMap.make(BinPoly(0b10), BinPoly(0b1111)),  # x / (x + 1)^3: triple pole at 1
    # x (x^2 + x + 1)^2 / (x^4 + x + 1): N has double roots at omega and
    # omega^2 (g = 0 there, index 2), D its roots in GF(16)* \ F_4
    RationalMap.make(BinPoly(0b101010), BinPoly(0b10011)),
]


@pytest.mark.parametrize("m", range(1, 6))
def test_ramification_table_and_index_equal_synthetic_division(m):
    # every point's image and index, the infinity row included, and the
    # scalar ramification_index, against repeated synthetic division
    ctx = make_field(2 * m, m)
    points = [ctx.elem(b) for b in range(1 << ctx.n)] + [INFINITY]
    for g in [g_map(spec) for spec in all_specs(4)] + REFERENCE_MAPS:
        want = _reference_rows(g, ctx)
        images, indices, _ = oracle._ramification_table(g, ctx)
        assert list(zip(images.tolist(), indices.tolist())) == want
        assert [ramification_index(g, p, ctx) for p in points] == [e for _, e in want]


def ramification_table_by_inverse(g, ctx):
    """(images, indices, critical) as _ramification_table, with g = N D^-1
    by one array inverse and one array multiply, and each product
    g (D^k D) by one array multiply."""
    size, exp = 1 << ctx.n, ctx.exp_array()
    num, den = (np.array(p.exponents(), dtype=np.int64) for p in (g.reduced_num, g.reduced_den))
    todo = np.arange(len(exp))
    dvals = oracle._sparse_values(exp, todo, den)
    values = mul_array(ctx, oracle._sparse_values(exp, todo, num), inv_array(ctx, dvals))
    images = np.empty(size + 1, dtype=np.int64)
    images[exp] = np.where(dvals == 0, size, values)
    indices = np.zeros(size + 1, dtype=np.int64)
    for k in range(1, g.degree + 1):
        dk = oracle._sparse_values(exp, todo, oracle._hasse(den, k))
        nk = oracle._sparse_values(exp, todo, oracle._hasse(num, k))
        nk ^= mul_array(ctx, values[todo], dk)
        residual = np.where(dvals[todo] == 0, dk, nk)
        indices[exp[todo[residual != 0]]] = k
        todo = todo[residual == 0]
    for row, point in ((0, ctx.zero()), (size, INFINITY)):
        image = g.eval(ctx, point)
        images[row] = size if image is INFINITY else image.bits
        indices[row] = ramification_index(g, point, ctx)
    rows = np.flatnonzero(indices > 1).tolist()
    proj = [INFINITY if c == size else ctx.elem(c) for c in rows + images[rows].tolist()]
    critical = tuple(zip(proj[:len(rows)], proj[len(rows):], indices[rows].tolist()))
    return images, indices, critical


@pytest.mark.parametrize("m", range(6, 9))
def test_ramification_table_equals_inverse_reference(m):
    # the log-table scan against array inverse and multiply: every point's
    # image and index, and the critical rows in bit order
    ctx = make_field(2 * m, m)
    for g in [g_map(spec) for spec in all_specs(3)] + REFERENCE_MAPS:
        images, indices, critical = oracle._ramification_table(g, ctx)
        want_images, want_indices, want_critical = ramification_table_by_inverse(g, ctx)
        assert images.tolist() == want_images.tolist()
        assert indices.tolist() == want_indices.tolist()
        assert critical == want_critical


@pytest.mark.parametrize("m", [3, 8])
def test_ramification_table_refuses_a_tampered_log_table(m):
    # swap the logs of N(g^-1) and one other element on a fresh context:
    # the scan's last row, at x = g^-1, then differs from its scalar value
    g = REFERENCE_MAPS[-1]
    ctx = FieldCtx(2 * m, make_field(2 * m).modulus)
    last = int(ctx.exp_array()[-1])
    nv = ctx.eval_poly_bits(g.reduced_num.bits, last)
    other = next(b for b in range(2, 1 << ctx.n)
                 if b not in (nv, ctx.eval_poly_bits(g.reduced_den.bits, last)))
    log = ctx._log_np = ctx.log_array().copy()
    log[[nv, other]] = log[[other, nv]]
    oracle._ramification_table.cache_clear()
    try:
        with pytest.raises(AssertionError, match="ramification closure mismatch"):
            oracle._ramification_table(g, ctx)
    finally:
        oracle._ramification_table.cache_clear()


def _hex(point):
    return "inf" if point is INFINITY else point.hex()


def test_ramification_scans_match_pointwise_definitions():
    # report, branch set and profile come from one table per call; check
    # them, key order included, against ramification_index and g.eval
    for m in (2, 3):
        ctx = make_field(2 * m, m)
        points = [ctx.elem(b) for b in range(1 << ctx.n)] + [INFINITY]
        for spec in all_specs(2):
            g = g_map(spec)
            crit = [(p, ramification_index(g, p, ctx)) for p in points]
            crit = [(p, e) for p, e in crit if e > 1]
            assert ramification_report(spec, ctx) == [
                {"point": _hex(p), "index": e, "image": _hex(g.eval(ctx, p))}
                for p, e in crit]
            branch = {g.eval(ctx, p) for p, _ in crit}
            assert branch_points(spec, ctx) == branch
            profile = ramification_profile(spec, ctx)
            assert list(profile) == list(branch)
            for beta in branch:
                fiber = sorted(ramification_index(g, p, ctx) for p in points
                               if g.eval(ctx, p) == beta)
                assert profile[beta] == fiber == fiber_indices(g, beta, ctx)


def test_residual_vanishes_at_omega():
    ctx = make_field(4, 2)
    g = g_map(FamilySpec("A", 3, 1))
    w = omega(ctx)
    assert critical_point_residual(g, w, ctx) == ctx.zero()


def test_residual_nonzero_at_an_unramified_point():
    ctx = make_field(4, 2)
    g = g_map(FamilySpec("A", 3, 1))
    hit = False
    for bits in range(16):
        point = ctx.elem(bits)
        if ramification_index(g, point, ctx) == 1:
            if critical_point_residual(g, point, ctx) != ctx.zero():
                hit = True
                break
    assert hit


def test_residual_of_degree_one_map_is_determinant():
    # for x / (x + 1): N'D + ND' = (x + 1) + x = 1 = ad + bc everywhere
    ctx = make_field(4, 2)
    rho = RationalMap.make(BinPoly(0b10), BinPoly(0b11))
    for bits in range(16):
        assert critical_point_residual(rho, ctx.elem(bits), ctx) == ctx.one()


def test_residual_vanishes_wherever_ramified():
    for m in (2, 3):
        ctx = make_field(2 * m, m)
        for spec in all_specs(3):
            g = g_map(spec)
            for bits in range(1 << ctx.n):
                point = ctx.elem(bits)
                if ramification_index(g, point, ctx) > 1:
                    assert critical_point_residual(g, point, ctx) == ctx.zero()


# -- degree-one map classifications ---------------------------------------------------
# The classification of degree-one maps that permute the circle or map it
# onto the projective line, checked against enumeration below.

@dataclass(frozen=True)
class DegreeOneMap:
    """x -> (a x + b) / (c x + d) with ad + bc != 0 (characteristic 2)."""

    a: FieldElem
    b: FieldElem
    c: FieldElem
    d: FieldElem

    def __post_init__(self):
        ctx = self.a.ctx
        if any(coef.ctx != ctx for coef in (self.b, self.c, self.d)):
            raise ValueError("coefficients from different field contexts")
        det = ctx.mul(self.a.bits, self.d.bits) ^ ctx.mul(self.b.bits, self.c.bits)
        if det == 0:
            raise ValueError("degenerate degree-one map (ad + bc = 0)")

    def eval(self, point: ProjPoint) -> ProjPoint:
        ctx = self.a.ctx
        if point is INFINITY:
            if self.c.bits == 0:
                return INFINITY
            return ctx.elem(ctx.mul(self.a.bits, ctx.inv(self.c.bits)))
        x = point.bits
        den = ctx.mul(self.c.bits, x) ^ self.d.bits
        if den == 0:
            return INFINITY
        num = ctx.mul(self.a.bits, x) ^ self.b.bits
        return ctx.elem(ctx.mul(num, ctx.inv(den)))


def _in_mu(ctx: FieldCtx, bits: int) -> bool:
    return bits != 0 and ctx.mul(ctx.frob_q(bits), bits) == 1


def deg1_bijects_mu(rho: DegreeOneMap, ctx: FieldCtx) -> bool:
    """Unit-circle bijection test by the classification of such maps.

    A degree-one map permutes the circle exactly when it is beta*x or
    beta/x with beta on the circle, or (x + gamma^q beta)/(gamma x + beta)
    with beta on the circle and gamma off it.
    """
    if ctx.subfield_m is None:
        raise ValueError("needs a context with subfield structure")
    oracle._check_owner(ctx, rho.a)
    a, b, c, d = rho.a.bits, rho.b.bits, rho.c.bits, rho.d.bits
    if c == 0 and b == 0:
        return _in_mu(ctx, ctx.mul(a, ctx.inv(d)))
    if a == 0 and d == 0:
        return _in_mu(ctx, ctx.mul(b, ctx.inv(c)))
    if a != 0 and c != 0:
        inv_a = ctx.inv(a)
        gamma = ctx.mul(c, inv_a)
        beta = ctx.mul(d, inv_a)
        return (_in_mu(ctx, beta) and not _in_mu(ctx, gamma)
                and ctx.mul(b, inv_a) == ctx.mul(ctx.frob_q(gamma), beta))
    return False


def deg1_mu_to_p1(l: DegreeOneMap, ctx: FieldCtx) -> bool:
    """Circle-to-projective-line bijection test by classification.

    Such maps are exactly (delta x + beta delta^q)/(x + beta) with beta on
    the circle and delta outside the base field.
    """
    if ctx.subfield_m is None:
        raise ValueError("needs a context with subfield structure")
    oracle._check_owner(ctx, l.a)
    a, b, c, d = l.a.bits, l.b.bits, l.c.bits, l.d.bits
    if c == 0:
        return False
    inv_c = ctx.inv(c)
    delta = ctx.mul(a, inv_c)
    beta = ctx.mul(d, inv_c)
    return (_in_mu(ctx, beta) and ctx.frob_q(delta) != delta
            and ctx.mul(b, inv_c) == ctx.mul(beta, ctx.frob_q(delta)))



def deg1_bijects_mu_by_enumeration(rho, ctx):
    """Ground truth for deg1_bijects_mu: walk the circle and compare images."""
    oracle._check_owner(ctx, rho.a)
    mu = ctx._subgroup((1 << ctx.subfield_m) + 1).tolist()
    image = set()
    for bits in mu:
        out = rho.eval(ctx.elem(bits))
        if out is INFINITY:
            return False
        image.add(out.bits)
    return image == set(mu)


def deg1_mu_to_p1_by_enumeration(rho, ctx):
    """Ground truth for deg1_mu_to_p1: the image must be all of P1(F_q)."""
    oracle._check_owner(ctx, rho.a)
    mu = ctx._subgroup((1 << ctx.subfield_m) + 1).tolist()
    image = set()
    saw_infinity = False
    for bits in mu:
        out = rho.eval(ctx.elem(bits))
        if out is INFINITY:
            saw_infinity = True
        else:
            image.add(out.bits)
    base_field = {0, *ctx._subgroup((1 << ctx.subfield_m) - 1).tolist()}
    return saw_infinity and image == base_field


def _some_non_circle_element(ctx):
    circle = {e.bits for e in unit_circle(ctx)}
    for bits in range(2, 1 << ctx.n):
        if bits not in circle:
            return ctx.elem(bits)
    raise AssertionError


def _some_non_subfield_element(ctx):
    for bits in range(2, 1 << ctx.n):
        if ctx.frob_q(bits) != bits:
            return ctx.elem(bits)
    raise AssertionError


@pytest.mark.parametrize("m", [2, 3])
def test_deg1_circle_classification_examples(m):
    ctx = make_field(2 * m, m)
    beta = unit_circle(ctx)[1]
    gamma = _some_non_circle_element(ctx)
    from pentaperm.field import frobenius_q

    scaling = DegreeOneMap(beta, ctx.zero(), ctx.zero(), ctx.one())
    assert deg1_bijects_mu(scaling, ctx)
    off_circle = DegreeOneMap(gamma, ctx.zero(), ctx.zero(), ctx.one())
    assert not deg1_bijects_mu(off_circle, ctx)
    case2 = DegreeOneMap(ctx.one(), frobenius_q(gamma) * beta, gamma, beta)
    assert deg1_bijects_mu(case2, ctx)
    inversion = DegreeOneMap(ctx.zero(), beta, ctx.one(), ctx.zero())
    assert deg1_bijects_mu(inversion, ctx)


@pytest.mark.parametrize("m", [2, 3])
def test_deg1_projective_classification_examples(m):
    ctx = make_field(2 * m, m)
    from pentaperm.field import frobenius_q

    beta = unit_circle(ctx)[1]
    delta = _some_non_subfield_element(ctx)
    good = DegreeOneMap(delta, beta * frobenius_q(delta), ctx.one(), beta)
    assert deg1_mu_to_p1(good, ctx)
    assert deg1_mu_to_p1_by_enumeration(good, ctx)
    identity = DegreeOneMap(ctx.one(), ctx.zero(), ctx.zero(), ctx.one())
    assert not deg1_mu_to_p1(identity, ctx)
    # delta inside the base field collapses the determinant: the putative
    # map (delta x + beta delta^q)/(x + beta) is not even degree one
    in_subfield = next(ctx.elem(b) for b in range(2, 1 << ctx.n)
                       if ctx.frob_q(b) == b)
    with pytest.raises(ValueError):
        DegreeOneMap(in_subfield, beta * frobenius_q(in_subfield), ctx.one(), beta)
    # a nondegenerate near miss (wrong numerator constant) fails both ways
    wrong_b = beta * frobenius_q(delta) + ctx.one()
    near_miss = DegreeOneMap(delta, wrong_b, ctx.one(), beta)
    assert not deg1_mu_to_p1(near_miss, ctx)
    assert not deg1_mu_to_p1_by_enumeration(near_miss, ctx)


def test_deg1_procedures_agree_with_enumeration(rng):
    total = 0
    for m in (2, 3, 4):
        ctx = make_field(2 * m, m)
        size = 1 << ctx.n
        while True:
            a, b, c, d = (rng.randrange(size) for _ in range(4))
            if ctx.mul(a, d) ^ ctx.mul(b, c) == 0:
                continue
            rho = DegreeOneMap(*(ctx.elem(v) for v in (a, b, c, d)))
            assert deg1_bijects_mu(rho, ctx) == deg1_bijects_mu_by_enumeration(rho, ctx)
            assert deg1_mu_to_p1(rho, ctx) == deg1_mu_to_p1_by_enumeration(rho, ctx)
            total += 1
            if total % 334 == 0:
                break
    assert total >= 1000


FOREIGN = make_field(6, 3)  # points and maps over GF(64), queried with GF(16)
FOREIGN_MAP = DegreeOneMap(FOREIGN.elem(50), FOREIGN.one(), FOREIGN.zero(), FOREIGN.one())


@pytest.mark.parametrize("query", [
    lambda ctx: ramification_index(g_map(FamilySpec("B", 5, 6)), FOREIGN.elem(50), ctx),
    lambda ctx: ramification_index(g_map(FamilySpec("B", 5, 6)), FOREIGN.elem(5), ctx),
    lambda ctx: critical_point_residual(g_map(FamilySpec("B", 5, 6)), FOREIGN.elem(50), ctx),
    lambda ctx: deg1_bijects_mu(FOREIGN_MAP, ctx),
    lambda ctx: deg1_bijects_mu_by_enumeration(FOREIGN_MAP, ctx),
    lambda ctx: deg1_mu_to_p1(FOREIGN_MAP, ctx),
    lambda ctx: deg1_mu_to_p1_by_enumeration(FOREIGN_MAP, ctx),
], ids=["index", "index-in-range", "residual", "bijects", "bijects-enum", "to-p1", "to-p1-enum"])
def test_foreign_context_point_is_refused(query):
    # unchecked, these raise IndexError or answer in GF(16) for a GF(64) input
    with pytest.raises(ValueError, match="does not belong") as err:
        query(make_field(4, 2))
    assert type(err.value) is ValueError


def test_degenerate_deg1_map_rejected():
    ctx = make_field(4, 2)
    with pytest.raises(ValueError):
        DegreeOneMap(ctx.one(), ctx.one(), ctx.one(), ctx.one())
