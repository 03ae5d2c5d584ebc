"""Unit tests for the family constructors and the 17-row registry."""

import json
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import all_specs
from pentaperm.families import (
    FamilySpec,
    GeneralPentanomial,
    build_H,
    build_N,
    eval_f,
    f_exponent_pairs,
    f_exponents,
    family_shape,
    gcd_condition,
    match_row,
    registry_as_json,
    row_discrepancies,
    table1_registry,
)
from pentaperm.field import make_field
from pentaperm.gf2poly import BinPoly, poly_gcd, poly_reverse, q_multiplicity


def P(text):
    return BinPoly.from_text(text)


def test_build_H_row2_read_back():
    assert build_H(FamilySpec("A", 3, 1)) == P("x^10+x^9+x^3+x+1")


def test_build_H_cancellation_at_equal_exponents():
    # the two middle terms coincide and cancel when i = j
    assert build_H(FamilySpec("A", 1, 1)) == P("x^4+x+1")


def test_build_H_row17():
    assert build_H(FamilySpec("B", 5, 6)) == P("x^96+x^65+x^33+x^32+1")


def test_build_N_row2():
    assert build_N(FamilySpec("A", 3, 1)) == P("x^11+x^10+x^8+x^2+x")


def test_build_N_class_C_pattern():
    # N_C = 1 + x^(Q1+1) + x^(Q2+1) + x^(Q1+Q2) + x^(Q1+Q2+1), xor-accumulated
    for i, j in ((1, 1), (2, 2), (2, 4)):
        spec = FamilySpec("C", i, j)
        expect = BinPoly.from_exponents(
            (0, spec.q1 + 1, spec.q2 + 1, spec.q1 + spec.q2, spec.t))
        assert build_N(spec) == expect


def test_build_N_is_reversal_at_t():
    for spec in all_specs(8):
        assert build_N(spec) == poly_reverse(build_H(spec), spec.t)


def test_deg_N_equals_t_for_distinct_exponents():
    for spec in all_specs(6):
        if spec.i != spec.j:
            assert build_N(spec).degree == spec.t


@pytest.mark.parametrize("spec,pairs", [
    (FamilySpec("B", 5, 6), {(96, 1), (65, 32), (33, 64), (32, 65), (0, 97)}),
    (FamilySpec("A", 3, 1), {(10, 1), (9, 2), (3, 8), (1, 10), (0, 11)}),
    (FamilySpec("C", 4, 2), {(21, 0), (16, 5), (4, 17), (1, 20), (0, 21)}),
])
def test_f_exponent_pairs(spec, pairs):
    assert set(f_exponent_pairs(spec)) == pairs


def test_f_exponents_substitutes_q():
    spec = FamilySpec("A", 3, 1)
    assert f_exponents(spec, 2) == (41, 38, 20, 14, 11)


def test_eval_f_fixed_points():
    ctx = make_field(4, 2)
    for spec in (FamilySpec("A", 1, 2), FamilySpec("B", 2, 1), FamilySpec("C", 1, 1)):
        assert eval_f(spec, ctx, ctx.zero()) == ctx.zero()
        assert eval_f(spec, ctx, ctx.one()) == ctx.one()


def _h_route(spec, ctx, x):
    # x^t * H(x^(q-1)), with H evaluated through powers of x^(q-1)
    if not x.bits:
        return ctx.zero()
    q = 1 << ctx.subfield_m
    y = ctx.pow(x.bits, q - 1)
    h_val = 0
    for e in build_H(spec).exponents():
        h_val ^= ctx.pow(y, e)
    return ctx.elem(ctx.mul(ctx.pow(x.bits, spec.t), h_val))


def test_eval_f_dual_route_exhaustive():
    # monomial-sum route equals the x^t * H(x^(q-1)) route on every element
    for m in range(1, 7):
        ctx = make_field(2 * m, m)
        for spec in all_specs(6):
            for bits in range(1 << ctx.n):
                x = ctx.elem(bits)
                assert eval_f(spec, ctx, x) == _h_route(spec, ctx, x)


def test_eval_f_rejects_foreign_context():
    with pytest.raises(ValueError):
        eval_f(FamilySpec("A", 1, 1), make_field(4, 2), make_field(6, 3).one())


def test_gcd_condition_examples():
    assert gcd_condition(GeneralPentanomial(11, (1, 3, 9, 10)))
    assert gcd_condition(GeneralPentanomial(9, (2, 3, 5, 6)))
    assert gcd_condition(GeneralPentanomial(9, (3, 5, 7, 8)))


def test_family_tuple_of_B22_fails_the_sieve():
    # terms cancel, so no strict r-tuple exists; the underlying pair has gcd Q^4
    spec = FamilySpec("B", 2, 2)
    assert family_shape(spec) is None
    g = poly_gcd(build_H(spec), build_N(spec))
    assert g != BinPoly(1)
    assert q_multiplicity(g) == 4


def test_gcd_condition_matches_q_multiplicity_for_family_shapes():
    # the sieve passes exactly when gcd(N, H) has no Q factor
    for spec in all_specs(8):
        shape = family_shape(spec)
        if shape is None:
            continue
        r = q_multiplicity(poly_gcd(build_H(spec), build_N(spec)))
        assert gcd_condition(shape) == (r == 0)


def test_shape_masks_equal_their_definitions():
    # H = 1 + sum x^r and N = x^t + sum x^(t - r), for every shape up to t = 12
    for t in range(4, 13):
        for rs in combinations(range(1, t + 1), 4):
            shape = GeneralPentanomial(t, rs)
            assert shape.h_poly().bits == sum(1 << e for e in (0,) + rs)
            assert shape.n_poly().bits == sum(1 << (t - e) for e in (0,) + rs)


@st.composite
def shapes(draw):
    t = draw(st.integers(4, 40))
    rs = draw(st.lists(st.integers(1, t), min_size=4, max_size=4, unique=True))
    return GeneralPentanomial(t, tuple(sorted(rs)))


@given(shape=shapes(), m=st.integers(1, 20))
def test_shape_arithmetic_equals_its_definitions(shape, m):
    t, rs, q = shape.t, shape.rs, 1 << m
    h = BinPoly.from_exponents((0,) + rs)
    n = poly_reverse(h, t)
    assert shape.h_poly() == h
    assert shape.n_poly() == n
    assert shape.exponents(m) == (t,) + tuple(r * (q - 1) + t for r in rs)
    assert gcd_condition(shape) == (poly_gcd(h, n) == BinPoly(1))


@given(shape=shapes(), k=st.integers(1, 5))
def test_invalid_r_tuples_raise(shape, k):
    t, rs = shape.t, shape.rs
    for bad in (rs[:3], rs + (t + k,), (rs[1], rs[0]) + rs[2:], (rs[0],) * 2 + rs[2:]):
        with pytest.raises(ValueError, match="strictly increasing"):
            GeneralPentanomial(t, bad)
    for bad in ((1 - k,) + rs[1:], rs[:3] + (t + k,)):  # r1 < 1, r4 > t
        with pytest.raises(ValueError, match=r"lie in \[1, t\]"):
            GeneralPentanomial(t, bad)


def test_general_pentanomial_validation():
    with pytest.raises(ValueError):
        GeneralPentanomial(9, (3, 3, 5, 7))
    with pytest.raises(ValueError):
        GeneralPentanomial(9, (0, 3, 5, 7))
    with pytest.raises(ValueError):
        GeneralPentanomial(9, (3, 5, 7, 10))


def test_registry_shape():
    rows = table1_registry()
    assert len(rows) == 17
    assert sum(1 for r in rows if r.starred) == 14
    for row in rows:
        assert len(row.pairs) == 5
        t = row.t
        for a, b in row.pairs:
            assert a + b == t
        assert len({a * 8 + b for a, b in row.pairs}) == 5


@pytest.mark.parametrize("row_no,expected", [
    (1, None), (3, None), (7, None),
    (2, FamilySpec("A", 3, 1)),
    (4, FamilySpec("B", 3, 2)),
    (5, FamilySpec("B", 1, 4)),
    (6, FamilySpec("C", 4, 2)),
    (8, FamilySpec("B", 3, 4)),
    (9, FamilySpec("A", 5, 1)),
    (10, FamilySpec("B", 5, 2)),
    (11, FamilySpec("A", 5, 3)),
    (12, FamilySpec("B", 5, 4)),
    (13, FamilySpec("B", 1, 6)),
    (14, FamilySpec("C", 6, 2)),
    (15, FamilySpec("B", 3, 6)),
    (16, FamilySpec("C", 6, 4)),
    (17, FamilySpec("B", 5, 6)),
])
def test_match_row(row_no, expected):
    row = table1_registry()[row_no - 1]
    assert row.row_no == row_no
    assert match_row(row) == expected


def test_rows_10_and_17_flag_swapped_columns():
    rows = table1_registry()
    assert row_discrepancies(rows[9])
    assert row_discrepancies(rows[16])
    for k in (1, 3, 4, 5, 7, 8, 10, 11, 12, 13, 14, 15):
        assert row_discrepancies(rows[k]) == []


def test_row_exponents_match_resolved_spec_numerically():
    for row in table1_registry():
        spec = match_row(row)
        if spec is None:
            continue
        for m in range(2, 7):
            q = 1 << m
            row_exps = sorted(a * q + b for a, b in row.pairs)
            assert row_exps == sorted(f_exponents(spec, m))


def test_row_shape_extraction():
    rows = table1_registry()
    assert rows[0].shape() == GeneralPentanomial(9, (3, 5, 7, 8))
    assert rows[5].shape() == GeneralPentanomial(21, (1, 4, 16, 21))


def test_registry_json_parses():
    data = json.loads(registry_as_json())
    assert len(data) == 17
    row17 = data[16]
    assert row17["resolved"] == {"class": "B", "i": 5, "j": 6}
    assert row17["printed"] == {"class": "B", "i": 6, "j": 5}
    assert row17["flags"]


def test_family_spec_validation():
    with pytest.raises(ValueError):
        FamilySpec("D", 1, 1)
    with pytest.raises(ValueError):
        FamilySpec("A", 0, 1)
