"""Linear-equivalence certificates for the pentanomial families.

For even m a family member factors through a single monomial:
f = L1 o x^(t + r(q-1)) o L2 with linearized L(x) = a x + b x^q on
GF(2^(2m)).  For odd m (and r = 0) it factors through the coordinate
pair (u^t, v^t) on GF(2^m)^2.  A certificate is just the handful of
coefficients involved; verification replays the factorization over the
whole field, so a verified certificate is an exhaustively checked proof
of linear equivalence for that (family, m).

Both factorizations say that f is the xor of outer(inner(x)^e) over one
or two pairs of linear maps (field.LinearMap): (L1, L2) for the monomial,
and (x -> d1 x, u), (x -> d2 x, v) for the bivariate form with
L2 = (u, v).  One replay checks either, in slices of x in bit order,
against bit-order tables of f and of x^e from oracle's power sum; each
search or verify call builds them once (two 64 MB uint32 arrays at n = 24;
the last f is kept, f_table).  Replay never inverts L2.  Bivariate replay
reports the first failing x in bit order: "leaves-subfield", then
"not-injective", then "mismatch".  The two structural conditions are
GF(2)-linear, so their first failure is a power of two, 2^b, read off the
basis images; mismatches are sought only below 2^b, a prefix in bit order.

Certificates are searched over a coefficient pool, by default the four
elements of F_4, since every known explicit certificate uses them; pool
exhaustion is reported as None rather than treated as nonexistence.  The
bivariate search solves for the combiner instead of scanning the pool: a
sound L2 maps GF(2^(2m)) bijectively onto GF(q)^2 and 0^e = 0, so only
d1 = f(L2^-1(1, 0)), d2 = f(L2^-1(0, 1)) can match, and the full pool at
m = 3 takes well under a second.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass

from .families import FamilySpec, f_exponents
from .field import _CHUNK, FieldCtx, FieldElem, LinearMap, make_field, omega
from .oracle import _power_sum_array
from .theory import r_closed_form

__all__ = [
    "CertificateError",
    "MonomialCert",
    "BivariateCert",
    "f4_pool",
    "f_table",
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


def _replay_mismatch(ftab, ptab, terms, limit: int) -> bool:
    """Whether the xor of outer(ptab[inner(x)]) over the (outer, inner)
    pairs of linear maps in terms differs from ftab[x] at some x < limit.

    ftab is f and ptab is x^e, both in bit order.  x runs in slices of
    _CHUNK points and the replay stops at the first slice with a mismatch.
    x = 0 needs no care: linear maps fix 0, and f(0) = 0^e = 0.
    """
    import numpy as np

    for lo in range(0, limit, _CHUNK):
        xs = np.arange(lo, min(lo + _CHUNK, limit), dtype=np.int64)
        diff = ftab[xs].astype(np.int64)
        for outer, inner in terms:
            diff ^= outer.apply(ptab[inner.apply(xs)])
        if diff.any():
            return True
    return False


@functools.lru_cache(maxsize=1)
def f_table(spec: FamilySpec, m: int):
    """f over GF(2^(2m)) in bit order, read-only; the last one is kept, so a
    search, its replays and equiv's brute verdict (oracle.table_permutes) share it."""
    ftab = _power_sum_array(make_field(2 * m, m), f_exponents(spec, m))
    ftab.flags.writeable = False
    return ftab


def _tables(ctx, spec: FamilySpec, m: int, e: int):
    """(ftab, ptab): f and x^e over the whole field in bit order."""
    return f_table(spec, m), _power_sum_array(ctx, [e])


def _cert_field(cert, m: int) -> FieldCtx:
    """make_field(2m, m), refusing a certificate with a coefficient from a
    field of another degree, or an exponent below 1 (replay takes 0^e = 0),
    before any replay."""
    if cert.e < 1:
        raise ValueError("certificate exponent must be positive")
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
    maps = []
    for name, (a, b) in (("L1", (cert.a1, cert.b1)), ("L2", (cert.a2, cert.b2))):
        maps.append(ctx.linearized(a.bits, b.bits))
        if maps[-1].rank() < ctx.n:
            raise CertificateError("not-invertible", f"{name} is not a permutation")
    return not _replay_mismatch(*_tables(ctx, spec, m, cert.e), [maps], 1 << ctx.n)


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
    ftab, ptab = _tables(ctx, spec, m, e)
    samples = [(x, int(ftab[x])) for x in (1, 2, 3, 5) if x < (1 << ctx.n)]
    # each invertible linearized map, built once, in scan order
    maps = {ab: ctx.linearized(*ab) for ab in itertools.product(pool_bits, repeat=2)}
    maps = {ab: lin for ab, lin in maps.items() if lin.rank() == ctx.n}
    for (a1, b1), (a2, b2) in itertools.product(maps, repeat=2):
        l1, l2 = maps[a1, b1], maps[a2, b2]
        if any(l1(int(ptab[l2(x)])) != fx for x, fx in samples):
            continue
        if not _replay_mismatch(ftab, ptab, [(l1, l2)], 1 << ctx.n):
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


def _combiner_defect(ctx, d1: int, d2: int) -> str | None:
    """Why L1(u, v) = d1 u + d2 v is not injective on GF(q)^2, or None: d1
    and d2 must be nonzero with their ratio outside the base field."""
    if d1 == 0 or d2 == 0:
        return "a combiner coefficient is zero"
    ratio = ctx.mul(d2, ctx.inv(d1))
    if ctx.frob_q(ratio) == ratio:
        return "combiner coefficients are base-field proportional"
    return None


def _bivariate_status(ctx, ftab, ptab, c1, c2, c3, c4, d1, d2) -> str:
    """'ok', 'leaves-subfield', 'not-injective', or 'mismatch': the status
    at the first failing x in bit order, so a mismatch counts only below
    the first structural failure."""
    u, v = ctx.linearized(c2, c1), ctx.linearized(c4, c3)
    b, status, _ = _first_structural_failure(ctx, u, v)
    if _replay_mismatch(ftab, ptab, [(ctx._times(d1), u), (ctx._times(d2), v)], 1 << b):
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
        ctx, *_tables(ctx, spec, m, cert.e), cert.c1.bits, cert.c2.bits,
        cert.c3.bits, cert.c4.bits, d1, d2)
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
    ftab, ptab = _tables(ctx, spec, m, e)
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
            d1, d2 = (int(ftab[joint.preimage(y)]) for y in (1 << ctx.n, 1))
            if (d1 in pool_bits and d2 in pool_bits and _combiner_defect(ctx, d1, d2) is None
                    and not _replay_mismatch(
                        ftab, ptab, [(ctx._times(d1), u), (ctx._times(d2), v)], 1 << ctx.n)):
                return BivariateCert(
                    ctx.elem(c1), ctx.elem(c2), ctx.elem(c3), ctx.elem(c4),
                    ctx.elem(d1), ctx.elem(d2), e)
    return None
