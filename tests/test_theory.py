"""Unit tests for the r-tables, verdicts, m-conditions, and identities."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import all_specs, horner, unit_circle
from pentaperm.families import FamilySpec, match_row, table1_registry
from pentaperm.field import make_field
from pentaperm import theory
from pentaperm.theory import (
    MODULUS_CEILING,
    MCondition,
    R_DISPLAY_NOTES,
    h_unit_roots_exist,
    m_condition,
    ord2_mod,
    r_closed_form,
    r_oracle,
    theorem_verdict,
    verify_identity_Q,
    verify_identity_derivative,
)


def test_ord2_examples():
    assert ord2_mod(97) == 48
    assert ord2_mod(3) == 2
    assert ord2_mod(11) == 10


def test_ord2_rejects_even_and_unit():
    with pytest.raises(ValueError):
        ord2_mod(4)
    with pytest.raises(ValueError):
        ord2_mod(1)


@pytest.mark.parametrize("spec,expected", [
    (FamilySpec("A", 1, 1), 0),
    (FamilySpec("B", 2, 4), 4),
    (FamilySpec("C", 2, 2), 0),
    (FamilySpec("C", 1, 1), 1),
    (FamilySpec("A", 3, 1), 0),
    (FamilySpec("B", 5, 6), 0),
    (FamilySpec("A", 2, 2), 1),
    (FamilySpec("B", 4, 2), 5),   # both even, Q1 > Q2: Q2 + 1
    (FamilySpec("A", 1, 4), 3),   # i odd, j even, Q1 < Q2: Q1 + 1
    (FamilySpec("C", 3, 2), 5),   # i odd, j even, Q1 > Q2: Q2 + 1
])
def test_r_closed_form_cases(spec, expected):
    assert r_closed_form(spec) == expected


def test_r_closed_form_symmetry_for_symmetric_classes():
    # classes A and C build symmetric polynomials, so r must be symmetric too
    for cls in ("A", "C"):
        for i in range(1, 7):
            for j in range(1, 7):
                assert (r_closed_form(FamilySpec(cls, i, j))
                        == r_closed_form(FamilySpec(cls, j, i)))


def test_r_oracle_examples():
    assert r_oracle(FamilySpec("A", 3, 1)) == 0
    assert r_oracle(FamilySpec("B", 2, 4)) == 4
    assert r_oracle(FamilySpec("C", 1, 1)) == 1


def test_r_oracle_matches_closed_form_smallish():
    for spec in all_specs(5):
        assert r_oracle(spec) == r_closed_form(spec)


def test_t_minus_2r_positive():
    for spec in all_specs(8):
        assert spec.t - 2 * r_closed_form(spec) >= 1


def test_r_display_notes_are_flagged():
    assert len(R_DISPLAY_NOTES) == 2
    assert "r_A" in R_DISPLAY_NOTES[0]
    assert "r_C" in R_DISPLAY_NOTES[1]


def test_h_unit_roots_examples():
    assert not h_unit_roots_exist(FamilySpec("A", 3, 1), 5)
    assert h_unit_roots_exist(FamilySpec("B", 2, 4), 3)
    for spec in (FamilySpec("A", 2, 1), FamilySpec("B", 1, 1), FamilySpec("C", 1, 2)):
        assert not h_unit_roots_exist(spec, 4)


def test_h_unit_roots_against_brute_scan():
    for m in range(1, 7):
        ctx = make_field(2 * m, m)
        circle = unit_circle(ctx)
        for spec in all_specs(4):
            h = spec.shape().h_poly()
            has_root = any(horner(ctx, h.bits, x.bits) == 0 for x in circle)
            assert has_root == h_unit_roots_exist(spec, m)


def test_h_unit_roots_against_brute_scan_larger_m():
    # same check up to m = 10, evaluating the sparse H through the cyclic
    # structure of the circle (powers of a fixed generator zeta)
    for m in range(7, 11):
        ctx = make_field(2 * m, m)
        q = 1 << m
        zeta = ctx.pow(ctx.generator(), q - 1)
        zpow = [1]
        for _ in range(q):
            zpow.append(ctx.mul(zpow[-1], zeta))
        assert ctx.mul(zpow[-1], zeta) == 1  # zeta has order q + 1
        for spec in all_specs(6):
            exps = [e % (q + 1) for e in spec.shape().h_poly().exponents()]
            has_root = False
            for k in range(q + 1):
                acc = 0
                for e in exps:
                    acc ^= zpow[k * e % (q + 1)]
                if acc == 0:
                    has_root = True
                    break
            assert has_root == h_unit_roots_exist(spec, m)


def test_verdict_examples():
    assert not theorem_verdict(FamilySpec("B", 5, 6), 24).predicted
    assert not theorem_verdict(FamilySpec("A", 3, 1), 10).predicted
    assert theorem_verdict(FamilySpec("A", 3, 1), 2).predicted


def test_verdict_fields():
    v = theorem_verdict(FamilySpec("B", 2, 4), 3)
    assert v.branch == "m-odd case i"
    assert v.r == 4 and not v.parity_ok and not v.predicted
    assert v.gcd2 is None
    v = theorem_verdict(FamilySpec("B", 2, 4), 4)
    assert v.branch == "m-even case ii"
    assert v.gcd2 is not None


def test_verdict_json():
    import json

    v = theorem_verdict(FamilySpec("A", 3, 1), 2)
    data = json.loads(v.to_json())
    assert data["predicted"] is True and data["r"] == 0


@pytest.mark.parametrize("spec,text", [
    (FamilySpec("B", 5, 6), "m ≢ 0 (mod 24)"),
    (FamilySpec("B", 3, 2), "m ≢ 0 (mod 6)"),
    (FamilySpec("A", 5, 1), "m is odd and m ≢ 3 (mod 6)"),
    (FamilySpec("B", 3, 4), "m is odd"),
    (FamilySpec("C", 6, 4), "m is odd"),
])
def test_m_condition_rendering(spec, text):
    assert m_condition(spec).render() == text


def test_m_condition_sound_and_complete():
    specs = [match_row(r) for r in table1_registry() if match_row(r) is not None]
    specs += [FamilySpec("A", 2, 3), FamilySpec("C", 3, 3), FamilySpec("B", 2, 2),
              FamilySpec("A", 8, 8), FamilySpec("B", 7, 8), FamilySpec("C", 7, 6)]
    for spec in specs:
        cond = m_condition(spec)
        horizon = max(2 * cond.modulus, 4)
        for m in range(1, horizon + 1):
            assert cond.contains(m) == theorem_verdict(spec, m).predicted


def test_condition_moduli_of_accepted_specs_stay_under_the_ceiling():
    specs = [FamilySpec(cls, i, j) for cls in "ABC" for i in range(1, 11) for j in range(1, 11)]
    assert max(theory._condition_modulus(s) for s in specs) == 165_600 <= MODULUS_CEILING
    rows = [match_row(r) for r in table1_registry() if match_row(r) is not None]
    assert max(theory._condition_modulus(s) for s in rows) == 66


def test_m_condition_refuses_a_modulus_above_the_ceiling(monkeypatch):
    # A(12, 1) needs 2,794,836 residues; none may be enumerated
    def fail(*args):
        raise AssertionError("residues enumerated")

    monkeypatch.setattr(theory, "theorem_verdict", fail)
    with pytest.raises(ValueError, match="modulus 2794836 exceeds the ceiling 262144"):
        m_condition(FamilySpec("A", 12, 1))


def test_mcondition_reduction_and_equivalence():
    big = MCondition(48, frozenset(r for r in range(48) if r % 24 != 0))
    small = big.reduced()
    assert small.modulus == 24
    assert small.allowed == frozenset(range(1, 24))
    assert big.equivalent(small)
    assert not small.equivalent(MCondition(2, frozenset({1})))


@st.composite
def m_conditions(draw):
    """A condition lifted from a smaller modulus d, with up to two residues
    flipped so that the least modulus is not always d."""
    d = draw(st.integers(1, 12))
    base = draw(st.sets(st.integers(0, d - 1)))
    modulus = d * draw(st.integers(1, 6))
    flips = draw(st.sets(st.integers(0, modulus - 1), max_size=2))
    return MCondition(modulus, frozenset(
        {r for r in range(modulus) if r % d in base} ^ flips))


@given(cond=m_conditions())
def test_reduced_condition_keeps_membership(cond):
    small = cond.reduced()
    assert cond.modulus % small.modulus == 0
    assert all(small.contains(m) == cond.contains(m)
               for m in range(1, 2 * cond.modulus + 1))


def test_mcondition_render_edge_cases():
    assert MCondition(1, frozenset({0})).render() == "all m"
    assert MCondition(2, frozenset()).render() == "no m"
    assert MCondition(2, frozenset({0})).render() == "m is even"
    assert MCondition(5, frozenset({2})).render() == "m ≡ 2 (mod 5)"
    assert MCondition(6, frozenset({1, 2})).render() == "m mod 6 ∈ {1,2}"


@pytest.mark.parametrize("spec,power", [
    (FamilySpec("A", 3, 1), 10),
    (FamilySpec("B", 1, 2), 6),
    (FamilySpec("C", 2, 2), 8),
])
def test_identity_derivative_examples(spec, power):
    from pentaperm.gf2poly import Q, poly_derivative, poly_mul

    assert verify_identity_derivative(spec)
    n, h = spec.shape().n_poly(), spec.shape().h_poly()
    lhs = poly_mul(poly_derivative(n), h) + poly_mul(n, poly_derivative(h))
    assert lhs == Q**power


@pytest.mark.parametrize("spec,power", [
    (FamilySpec("A", 3, 1), 11),
    (FamilySpec("B", 5, 6), 97),
    (FamilySpec("C", 1, 1), 5),
])
def test_identity_Q_examples(spec, power):
    from pentaperm.gf2poly import Q, poly_mul

    assert verify_identity_Q(spec)
    n, h = spec.shape().n_poly(), spec.shape().h_poly()
    assert poly_mul(n, n) + poly_mul(n, h) + poly_mul(h, h) == Q**power


def test_identities_hold_smallish():
    for spec in all_specs(5):
        assert verify_identity_derivative(spec)
        assert verify_identity_Q(spec)
