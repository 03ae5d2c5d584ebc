"""Linear-equivalence certificates for the pentanomial families.

For even m a family member factors through a single monomial:
f = L1 o x^(t + r(q-1)) o L2 with linearized L(x) = a x + b x^q on
GF(2^(2m)).  For odd m (and r = 0) it factors through the coordinate
pair (u^t, v^t) on GF(2^m)^2.  A certificate is just the handful of
coefficients involved; verification replays the factorization over the
whole field, so a verified certificate is an exhaustively checked proof
of linear equivalence for that (family, m).

Certificates are searched over a coefficient pool, by default the four
elements of F_4, since every known explicit certificate uses them; pool
exhaustion is reported as None rather than treated as nonexistence.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

from .families import FamilySpec, f_exponents
from .field import FieldCtx, FieldElem, make_field, omega
from .oracle import power_sum_table
from .theory import r_closed_form

__all__ = [
    "CertificateError",
    "MonomialCert",
    "BivariateCert",
    "f4_pool",
    "monomial_exponent",
    "verify_monomial_cert",
    "search_monomial_cert",
    "verify_bivariate_cert",
    "search_bivariate_cert",
]


class CertificateError(ValueError):
    """A certificate is structurally unusable (as opposed to merely wrong)."""

    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        super().__init__(f"{reason}{': ' + detail if detail else ''}")


@dataclass(frozen=True)
class MonomialCert:
    """f = L1 o x^e o L2 with L1 = a1 x + b1 x^q and L2 = a2 x + b2 x^q."""

    a1: FieldElem
    b1: FieldElem
    a2: FieldElem
    b2: FieldElem
    e: int

    def to_json(self) -> str:
        return json.dumps({
            "kind": "monomial",
            "l1": [self.a1.hex(), self.b1.hex()],
            "l2": [self.a2.hex(), self.b2.hex()],
            "exponent": self.e,
        }, sort_keys=True)


@dataclass(frozen=True)
class BivariateCert:
    """f = L1 o (u^e, v^e) o L2 with L2 = (c1 x^q + c2 x, c3 x^q + c4 x)
    landing in GF(2^m)^2 and L1(u, v) = d1 u + d2 v."""

    c1: FieldElem
    c2: FieldElem
    c3: FieldElem
    c4: FieldElem
    d1: FieldElem
    d2: FieldElem
    e: int

    def to_json(self) -> str:
        return json.dumps({
            "kind": "bivariate",
            "l2": [c.hex() for c in (self.c1, self.c2, self.c3, self.c4)],
            "l1": [self.d1.hex(), self.d2.hex()],
            "exponent": self.e,
        }, sort_keys=True)


def monomial_exponent(spec: FamilySpec, m: int) -> int:
    """The canonical unreduced exponent t + r(2^m - 1)."""
    return spec.t + r_closed_form(spec) * ((1 << m) - 1)


def f4_pool(ctx: FieldCtx) -> tuple[FieldElem, ...]:
    """The four F_4 elements inside the field, in bit-ascending order."""
    w = omega(ctx)
    return tuple(ctx.elem(b) for b in sorted({0, 1, w.bits, ctx.sqr(w.bits)}))


def _linearized_invertible(ctx: FieldCtx, a: int, b: int) -> bool:
    # a x + b x^q is invertible iff a^(q+1) != b^(q+1)
    q = 1 << ctx.subfield_m
    return ctx.pow(a, q + 1) != ctx.pow(b, q + 1)


def _monomial_matches(ctx, fvals, a1, b1, a2, b2, e, xs) -> bool:
    # ctx.pow reduces e mod 2^n - 1 only for nonzero bases, which is exactly
    # the semantics of an unreduced positive exponent
    for x in xs:
        u = ctx.mul(a2, x) ^ ctx.mul(b2, ctx.frob_q(x))
        p = ctx.pow(u, e)
        y = ctx.mul(a1, p) ^ ctx.mul(b1, ctx.frob_q(p))
        if y != fvals[x]:
            return False
    return True


def verify_monomial_cert(cert: MonomialCert, spec: FamilySpec, m: int) -> bool:
    """Replay f = L1 o x^e o L2 over all of GF(2^(2m)).

    Raises CertificateError("not-invertible") when either linearized map
    is degenerate; returns False on an honest pointwise mismatch.
    """
    if m % 2:
        raise ValueError("monomial certificates apply to even m")
    ctx = make_field(2 * m, m)
    for name, (a, b) in (("L1", (cert.a1, cert.b1)), ("L2", (cert.a2, cert.b2))):
        if not _linearized_invertible(ctx, a.bits, b.bits):
            raise CertificateError("not-invertible", f"{name} is not a permutation")
    fvals = power_sum_table(ctx, f_exponents(spec, m))
    return _monomial_matches(
        ctx, fvals, cert.a1.bits, cert.b1.bits, cert.a2.bits, cert.b2.bits,
        cert.e, range(1 << ctx.n))


def search_monomial_cert(spec: FamilySpec, m: int, pool=None) -> MonomialCert | None:
    """First verifying certificate over the pool in deterministic scan order.

    The pool defaults to F_4; pass the full field for tiny m.  Absence is
    a value (None), not an error.
    """
    if m % 2:
        raise ValueError("monomial certificates apply to even m")
    ctx = make_field(2 * m, m)
    pool = f4_pool(ctx) if pool is None else tuple(pool)
    pool_bits = [p.bits for p in pool]
    e = monomial_exponent(spec, m)
    fvals = power_sum_table(ctx, f_exponents(spec, m))
    samples = [b for b in (1, 2, 3, 5) if b < (1 << ctx.n)]
    everything = range(1 << ctx.n)
    for a1, b1, a2, b2 in itertools.product(pool_bits, repeat=4):
        if not (_linearized_invertible(ctx, a1, b1)
                and _linearized_invertible(ctx, a2, b2)):
            continue
        if not _monomial_matches(ctx, fvals, a1, b1, a2, b2, e, samples):
            continue
        if _monomial_matches(ctx, fvals, a1, b1, a2, b2, e, everything):
            return MonomialCert(ctx.elem(a1), ctx.elem(b1),
                                ctx.elem(a2), ctx.elem(b2), e)
    return None


def _bivariate_status(ctx, fvals, c1, c2, c3, c4, d1, d2, e, full: bool):
    """'ok', 'leaves-subfield', 'not-injective', or 'mismatch'."""
    seen = set()
    for x in range(1 << ctx.n):
        fx = ctx.frob_q(x)
        u = ctx.mul(c1, fx) ^ ctx.mul(c2, x)
        v = ctx.mul(c3, fx) ^ ctx.mul(c4, x)
        if ctx.frob_q(u) != u or ctx.frob_q(v) != v:
            return "leaves-subfield"
        if full:
            if (u, v) in seen:
                return "not-injective"
            seen.add((u, v))
        y = ctx.mul(d1, ctx.pow(u, e)) ^ ctx.mul(d2, ctx.pow(v, e))
        if y != fvals[x]:
            return "mismatch"
    return "ok"


def verify_bivariate_cert(cert: BivariateCert, spec: FamilySpec, m: int) -> bool:
    """Replay f = L1 o (u^e, v^e) o L2 over all of GF(2^(2m)).

    Structural failures raise CertificateError with a distinct reason
    ("component-leaves-subfield", "not-injective", "degenerate-combiner");
    a pointwise mismatch returns False.
    """
    if m % 2 == 0:
        raise ValueError("bivariate certificates apply to odd m")
    ctx = make_field(2 * m, m)
    # L1(u, v) = d1 u + d2 v must be injective on GF(2^m)^2: d1, d2 nonzero
    # and their ratio outside the base field.
    d1, d2 = cert.d1.bits, cert.d2.bits
    if d1 == 0 or d2 == 0:
        raise CertificateError("degenerate-combiner", "a combiner coefficient is zero")
    ratio = ctx.mul(d2, ctx.inv(d1))
    if ctx.frob_q(ratio) == ratio:
        raise CertificateError("degenerate-combiner",
                               "combiner coefficients are base-field proportional")
    fvals = power_sum_table(ctx, f_exponents(spec, m))
    status = _bivariate_status(
        ctx, fvals, cert.c1.bits, cert.c2.bits, cert.c3.bits, cert.c4.bits,
        d1, d2, cert.e, full=True)
    if status == "leaves-subfield":
        raise CertificateError("component-leaves-subfield")
    if status == "not-injective":
        raise CertificateError("not-injective")
    return status == "ok"


def search_bivariate_cert(spec: FamilySpec, m: int, pool=None) -> BivariateCert | None:
    """First verifying bivariate certificate over the pool, or None.

    Requires r = 0: otherwise H has unit-circle roots for odd m and the
    factorization hypothesis fails outright.
    """
    if m % 2 == 0:
        raise ValueError("bivariate certificates apply to odd m")
    if r_closed_form(spec) != 0:
        raise ValueError("bivariate search requires r = 0 for this family")
    ctx = make_field(2 * m, m)
    pool = f4_pool(ctx) if pool is None else tuple(pool)
    pool_bits = [p.bits for p in pool]
    e = spec.t
    fvals = power_sum_table(ctx, f_exponents(spec, m))

    def components_land(c1, c2) -> bool:
        for x in (1, 2, 3):
            fx = ctx.frob_q(x)
            u = ctx.mul(c1, fx) ^ ctx.mul(c2, x)
            if ctx.frob_q(u) != u:
                return False
        return True

    for c1, c2 in itertools.product(pool_bits, repeat=2):
        if not components_land(c1, c2):
            continue
        for c3, c4 in itertools.product(pool_bits, repeat=2):
            if not components_land(c3, c4):
                continue
            for d1, d2 in itertools.product(pool_bits, repeat=2):
                if d1 == 0 or d2 == 0:
                    continue
                ratio = ctx.mul(d2, ctx.inv(d1))
                if ctx.frob_q(ratio) == ratio:
                    continue
                status = _bivariate_status(ctx, fvals, c1, c2, c3, c4,
                                           d1, d2, e, full=True)
                if status == "ok":
                    return BivariateCert(
                        ctx.elem(c1), ctx.elem(c2), ctx.elem(c3), ctx.elem(c4),
                        ctx.elem(d1), ctx.elem(d2), e)
    return None
