"""Linear-equivalence certificates for the pentanomial families.

For even m a family member factors through a single monomial:
f = L1 o x^(t + r(q-1)) o L2 with linearized L(x) = a x + b x^q on
GF(2^(2m)).  For odd m (and r = 0) it factors through the coordinate
pair (u^t, v^t) on GF(2^m)^2.  A certificate is just the handful of
coefficients involved; verification replays the factorization over the
whole field, so a verified certificate is an exhaustively checked proof
of linear equivalence for that (family, m).

Replay runs on numpy blocks of oracle's power-sum walk, and every
linearized map is a field.LinearMap.  Monomial replay walks u = L2(x) in
discrete-log order, where the walk also yields u^e, and compares L1(u^e)
with f at L2^-1(u).  Bivariate replay reports the first failing x in bit
order: "leaves-subfield", then "not-injective", then "mismatch".  The
two structural conditions are GF(2)-linear, so their first failure is a
power of two, 2^b, read off the basis images; mismatches are sought only
below 2^b.

Certificates are searched over a coefficient pool, by default the four
elements of F_4, since every known explicit certificate uses them; pool
exhaustion is reported as None rather than treated as nonexistence.  The
bivariate search solves for the combiner instead of scanning the pool: a
sound L2 maps GF(2^(2m)) bijectively onto GF(q)^2 and 0^e = 0, so only
d1 = f(L2^-1(1, 0)), d2 = f(L2^-1(0, 1)) can match, and the full pool at
m = 3 takes well under a second.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

from .families import FamilySpec, eval_f, f_exponents
from .field import FieldCtx, FieldElem, LinearMap, make_field, omega
from .oracle import _power_sum_array, _power_sum_blocks
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


def _monomial_matches(ctx, ftab, l1: LinearMap, l2_inverse: LinearMap, e: int) -> bool:
    """Whether L1(L2(x)^e) = f(x) at every x, with f in bit order in ftab.

    x = 0 is checked by scalar pow (0^e = 0 for e != 0); every other point
    is walked as u = L2(x) = g^k in discrete-log order, where the blocks of
    the power sum of x^e give u^e, and compared block by block with f at
    L2^-1(u).  Returns at the first block with a mismatch.
    """
    import numpy as np

    if l1(ctx.pow(0, e)) != ftab[0]:
        return False
    for us, powers in _power_sum_blocks(ctx, [e]):
        if np.any(l1.apply(powers) != ftab[l2_inverse.apply(us)]):
            return False
    return True


def _cert_field(cert, m: int) -> FieldCtx:
    """make_field(2m, m), refusing a certificate with a coefficient from
    another context before any replay."""
    ctx = make_field(2 * m, m)
    if any(c.ctx != ctx for c in vars(cert).values() if isinstance(c, FieldElem)):
        raise ValueError("certificate coefficient does not belong to the given context")
    return ctx


def verify_monomial_cert(cert: MonomialCert, spec: FamilySpec, m: int) -> bool:
    """Replay f = L1 o x^e o L2 over all of GF(2^(2m)).

    Raises CertificateError("not-invertible") when either linearized map
    is degenerate; returns False on an honest pointwise mismatch.
    """
    if m % 2:
        raise ValueError("monomial certificates apply to even m")
    ctx = _cert_field(cert, m)
    maps = {}
    for name, (a, b) in (("L1", (cert.a1, cert.b1)), ("L2", (cert.a2, cert.b2))):
        maps[name] = ctx.linearized(a.bits, b.bits)
        if maps[name].rank() < ctx.n:
            raise CertificateError("not-invertible", f"{name} is not a permutation")
    ftab = _power_sum_array(ctx, f_exponents(spec, m))
    return _monomial_matches(ctx, ftab, maps["L1"], maps["L2"].inverse(), cert.e)


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
    ftab = _power_sum_array(ctx, f_exponents(spec, m))
    samples = [b for b in (1, 2, 3, 5) if b < (1 << ctx.n)]
    # each linearized map and its inverse (None if singular), built once
    maps = {ab: ctx.linearized(*ab) for ab in itertools.product(pool_bits, repeat=2)}
    inverses = {ab: lin.inverse() for ab, lin in maps.items()}
    for a1, b1, a2, b2 in itertools.product(pool_bits, repeat=4):
        l1, l2, l2_inverse = maps[a1, b1], maps[a2, b2], inverses[a2, b2]
        if inverses[a1, b1] is None or l2_inverse is None:
            continue
        if any(l1(ctx.pow(l2(x), e)) != ftab[x] for x in samples):
            continue
        if _monomial_matches(ctx, ftab, l1, l2_inverse, e):
            return MonomialCert(ctx.elem(a1), ctx.elem(b1),
                                ctx.elem(a2), ctx.elem(b2), e)
    return None


def _first_structural_failure(ctx, u: LinearMap, v: LinearMap) -> tuple[int, str, LinearMap]:
    """(b, status, joint) with (b, status) at the first x in bit order where
    x -> (u(x), v(x)) leaves GF(q)^2 or repeats an earlier value, or
    (n, "ok") if it never does, and joint the map x -> u(x) 2^n + v(x).

    Both conditions are GF(2)-linear, so the first such x is a power of
    two, 2^b: the first basis bit whose image leaves the subfield, or whose
    joint image does not raise the rank.  At the same bit, leaving the
    subfield comes first.
    """
    frob = ctx.frobenius()
    leaves = next((k for k, (a, b) in enumerate(zip(u.images, v.images))
                   if frob(a) != a or frob(b) != b), ctx.n)
    joint = LinearMap(a << ctx.n | b for a, b in zip(u.images, v.images))
    dependent = joint.first_dependent_bit()
    if dependent is not None and dependent < leaves:
        return dependent, "not-injective", joint
    if leaves < ctx.n:
        return leaves, "leaves-subfield", joint
    return ctx.n, "ok", joint


def _subfield_power_table(ctx, e: int):
    """(elements, powers): GF(q) in sorted bit order and each element's e-th
    power, aligned, so x^e of subfield arrays is a searchsorted lookup."""
    import numpy as np

    sub = ctx._subgroup((1 << ctx.subfield_m) - 1)  # GF(q)* as h^k; (h^k)^e = h^(ke)
    elements = np.concatenate(([0], sub))
    logs = np.arange(len(sub)) * (e % len(sub)) % len(sub)
    powers = np.concatenate(([ctx.pow(0, e)], sub[logs]))
    order = np.argsort(elements)
    return elements[order], powers[order]


def _combiner_defect(ctx, d1: int, d2: int) -> str | None:
    """Why L1(u, v) = d1 u + d2 v is not injective on GF(q)^2, or None: d1
    and d2 must be nonzero with their ratio outside the base field."""
    if d1 == 0 or d2 == 0:
        return "a combiner coefficient is zero"
    ratio = ctx.mul(d2, ctx.inv(d1))
    if ctx.frob_q(ratio) == ratio:
        return "combiner coefficients are base-field proportional"
    return None


def _bivariate_mismatch(ctx, exponents, u, v, table, d1: int, d2: int, limit: int) -> bool:
    """Whether d1 u(x)^e + d2 v(x)^e differs from f(x) at some x < limit,
    with table from _subfield_power_table.

    u and v must land in GF(q) below limit.  x = 0 is checked by scalar
    pow (f(0) = 0); the other points are walked in the blocks of f's power
    sum, and the walk stops at the first block with a mismatch.
    """
    import numpy as np

    elements, powers = table
    t1, t2 = ctx._times(d1), ctx._times(d2)
    if t1(int(powers[0])) != t2(int(powers[0])):
        return True
    for xs, fx in _power_sum_blocks(ctx, exponents):
        if limit < 1 << ctx.n:
            below = xs < limit
            xs, fx = xs[below], fx[below]
        ue = powers[np.searchsorted(elements, u.apply(xs))]
        ve = powers[np.searchsorted(elements, v.apply(xs))]
        if np.any(t1.apply(ue) ^ t2.apply(ve) != fx):
            return True
    return False


def _bivariate_status(ctx, exponents, c1, c2, c3, c4, d1, d2, e) -> str:
    """'ok', 'leaves-subfield', 'not-injective', or 'mismatch': the status
    at the first failing x in bit order, so a mismatch counts only below
    the first structural failure."""
    u, v = ctx.linearized(c2, c1), ctx.linearized(c4, c3)
    b, status, _ = _first_structural_failure(ctx, u, v)
    if _bivariate_mismatch(ctx, exponents, u, v, _subfield_power_table(ctx, e), d1, d2, 1 << b):
        return "mismatch"
    return status


def verify_bivariate_cert(cert: BivariateCert, spec: FamilySpec, m: int) -> bool:
    """Replay f = L1 o (u^e, v^e) o L2 over all of GF(2^(2m)).

    Structural failures raise CertificateError with a distinct reason
    ("component-leaves-subfield", "not-injective", "degenerate-combiner");
    a pointwise mismatch returns False.
    """
    if m % 2 == 0:
        raise ValueError("bivariate certificates apply to odd m")
    ctx = _cert_field(cert, m)
    d1, d2 = cert.d1.bits, cert.d2.bits
    defect = _combiner_defect(ctx, d1, d2)
    if defect:
        raise CertificateError("degenerate-combiner", defect)
    status = _bivariate_status(
        ctx, f_exponents(spec, m), cert.c1.bits, cert.c2.bits, cert.c3.bits,
        cert.c4.bits, d1, d2, cert.e)
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
    exponents = f_exponents(spec, m)
    table = _subfield_power_table(ctx, e)
    # components c x^q + c' x that land in GF(q) at every x, in scan order
    components = {}
    for c1, c2 in itertools.product(pool_bits, repeat=2):
        lin = ctx.linearized(c2, c1)
        if all(ctx.frob_q(img) == img for img in lin.images):
            components[c1, c2] = lin
    # a sound L2 is a bijection onto GF(q)^2 and 0^e = 0, so a matching
    # combiner has d1 = f(L2^-1(1, 0)) and d2 = f(L2^-1(0, 1)): at most
    # one combiner per L2 is replayed
    for (c1, c2), u in components.items():
        for (c3, c4), v in components.items():
            _, status, joint = _first_structural_failure(ctx, u, v)
            if status != "ok":
                continue
            d1, d2 = (eval_f(spec, ctx, ctx.elem(joint.preimage(y))).bits
                      for y in (1 << ctx.n, 1))
            if (d1 in pool_bits and d2 in pool_bits and _combiner_defect(ctx, d1, d2) is None
                    and not _bivariate_mismatch(ctx, exponents, u, v, table, d1, d2, 1 << ctx.n)):
                return BivariateCert(
                    ctx.elem(c1), ctx.elem(c2), ctx.elem(c3), ctx.elem(c4),
                    ctx.elem(d1), ctx.elem(d2), e)
    return None
