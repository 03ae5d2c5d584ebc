"""Permutation pentanomials over GF(2^(2m)).

Construct the three pentanomial families, decide permutation status from
the closed-form theory, and cross-validate every structural claim against
independent brute-force oracles at desk scale.
"""

from .families import (
    FamilySpec,
    Shape,
    Table1Row,
    eval_f,
    gcd_condition,
    match_row,
    table1_registry,
)
from .field import (
    FieldCtx,
    FieldElem,
    make_field,
    omega,
)
from .gf2poly import (
    BinPoly,
    Q,
    poly_derivative,
    poly_gcd,
    poly_mul,
    poly_reverse,
    q_multiplicity,
)
from .theory import (
    MCondition,
    PropertyViolation,
    Verdict,
    h_unit_roots_exist,
    m_condition,
    ord2_mod,
    r_closed_form,
    r_oracle,
    theorem_verdict,
    verify_identity_derivative,
    verify_identity_Q,
)

__version__ = "0.1.0"
