"""Closed-form r-values, permutation verdicts, and residue-class m-conditions.

The heart of the theory: for each family, gcd(N, H) is a power Q^r of
x^2 + x + 1, and r has a closed form in the parities of (i, j).  A family
member permutes GF(2^(2m)) iff

  m odd:  r = 0 and gcd(t, 2^m - 1) = 1;
  m even: gcd(t, 2^m - 1) = 1 and gcd(t - 2r, 2^m + 1) = 1.

Both gcds reduce to order-of-2 conditions on the primes of t*(t - 2r),
which is how m_condition derives an exact residue-class description of
the admissible m.

The published displays of the r case tables carry two slips (first r_A
line lists the wrong parity pair; the r_C display omits the both-even
case).  The tables below follow the underlying multiplicity computation,
which the gcd oracle r_oracle confirms; R_DISPLAY_NOTES records both
corrections for reports.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .families import FamilySpec, build_H, build_N
from .gf2poly import Q, poly_derivative, poly_gcd, poly_mul, q_multiplicity
from .intarith import multiplicative_order, prime_factors

__all__ = [
    "PropertyViolation",
    "Verdict",
    "MCondition",
    "ord2_mod",
    "r_closed_form",
    "r_oracle",
    "R_DISPLAY_NOTES",
    "h_unit_roots_exist",
    "theorem_verdict",
    "MODULUS_CEILING",
    "m_condition",
    "verify_identity_derivative",
    "verify_identity_Q",
]


# Largest m-condition modulus whose residues m_condition enumerates: every
# (class, i, j <= 10) needs at most 165,600, every registry row at most 66.
MODULUS_CEILING = 1 << 18


class PropertyViolation(RuntimeError):
    """A structural fact the theory guarantees failed to hold."""


R_DISPLAY_NOTES = (
    "r_A display: the r=0 line is printed for (i odd, j even), which collides "
    "with its own Q1+1/Q2 lines; the multiplicity computation gives r_A=0 for "
    "i and j both odd, which is what this table implements.",
    "r_C display: the case i, j both even is missing; the multiplicity "
    "computation gives r_C=0 there, which is what this table implements.",
)


def ord2_mod(k: int) -> int:
    """Least e > 0 with 2^e = 1 (mod k); k must be odd and > 1."""
    if k <= 1 or k % 2 == 0:
        raise ValueError("ord2_mod needs an odd modulus greater than 1")
    return multiplicative_order(2, k)


def r_closed_form(spec: FamilySpec) -> int:
    """The Q-multiplicity of gcd(N, H) by parity case analysis."""
    q1, q2 = spec.q1, spec.q2
    i_odd, j_odd = spec.i & 1, spec.j & 1
    if spec.cls == "A":
        if i_odd and j_odd:
            return 0
        if not i_odd and not j_odd:
            return 1
        if not i_odd:  # i even, j odd
            return q1 if q1 <= q2 else q2 + 1
        return q1 + 1 if q1 < q2 else q2
    if spec.cls == "B":
        if i_odd and not j_odd:
            return 0
        if not i_odd and j_odd:
            return 1
        if not i_odd:  # both even
            return q1 if q1 <= q2 else q2 + 1
        return q1 + 1 if q1 < q2 else q2
    # class C
    if not i_odd and not j_odd:
        return 0
    if i_odd and j_odd:
        return 1
    if i_odd:  # i odd, j even
        return q1 if q1 <= q2 else q2 + 1
    return q1 + 1 if q1 < q2 else q2


def r_oracle(spec: FamilySpec) -> int:
    """Q-multiplicity of gcd(N, H) computed by the Euclidean algorithm.

    Raises PropertyViolation if the gcd is not exactly a power of Q; that
    would falsify the structure theory and must never pass silently.
    """
    g = poly_gcd(build_N(spec), build_H(spec))
    r = q_multiplicity(g)
    if Q**r != g:
        raise PropertyViolation(
            f"gcd(N, H) = {g!r} for {spec!r} is not a power of Q")
    return r


def h_unit_roots_exist(spec: FamilySpec, m: int) -> bool:
    """Whether H has roots on the unit circle: exactly when m is odd and r > 0."""
    return m % 2 == 1 and r_closed_form(spec) > 0


def _gcd_with_2m_minus_1(t: int, m: int) -> int:
    return math.gcd(t, (pow(2, m, t) - 1) % t)


def _gcd_with_2m_plus_1(t: int, m: int) -> int:
    if t == 1:
        return 1
    return math.gcd(t, (pow(2, m, t) + 1) % t)


@dataclass(frozen=True)
class Verdict:
    """Theorem-predicted permutation status with all intermediate quantities."""

    predicted: bool
    branch: str  # "m-odd case i" or "m-even case ii"
    r: int
    gcd1: int  # gcd(t, q - 1)
    gcd2: int | None  # gcd(t - 2r, q + 1); even branch only
    parity_ok: bool  # r == 0, the odd-branch parity requirement

    def to_json(self) -> str:
        return json.dumps({
            "predicted": self.predicted,
            "branch": self.branch,
            "r": self.r,
            "gcd_t_qm1": self.gcd1,
            "gcd_t2r_qp1": self.gcd2,
            "parity_ok": self.parity_ok,
        }, sort_keys=True)


def theorem_verdict(spec: FamilySpec, m: int) -> Verdict:
    """Permutation verdict for f over GF(2^(2m)) from the closed-form tables."""
    if m < 1:
        raise ValueError("m must be positive")
    t = spec.t
    r = r_closed_form(spec)
    gcd1 = _gcd_with_2m_minus_1(t, m)
    if m % 2 == 1:
        parity_ok = r == 0
        return Verdict(parity_ok and gcd1 == 1, "m-odd case i", r, gcd1, None, parity_ok)
    gcd2 = _gcd_with_2m_plus_1(t - 2 * r, m)
    return Verdict(gcd1 == 1 and gcd2 == 1, "m-even case ii", r, gcd1, gcd2, r == 0)


@dataclass(frozen=True)
class MCondition:
    """Residue-class description of the m with a positive verdict."""

    modulus: int
    allowed: frozenset[int]

    def contains(self, m: int) -> bool:
        return m % self.modulus in self.allowed

    def reduced(self) -> "MCondition":
        """Equivalent condition with the least modulus."""
        for d in range(1, self.modulus + 1):
            if self.modulus % d:
                continue
            classes: dict[int, bool] = {}
            ok = True
            for res in range(self.modulus):
                member = res in self.allowed
                prev = classes.setdefault(res % d, member)
                if prev != member:
                    ok = False
                    break
            if ok:
                return MCondition(d, frozenset(c for c, v in classes.items() if v))
        return self

    def equivalent(self, other: "MCondition") -> bool:
        lcm = math.lcm(self.modulus, other.modulus)
        return all(self.contains(m) == other.contains(m) for m in range(1, lcm + 1))

    def render(self) -> str:
        mod, allowed = self.modulus, self.allowed
        if len(allowed) == mod:
            return "all m"
        if not allowed:
            return "no m"
        if mod == 2:
            return "m is odd" if allowed == {1} else "m is even"
        blocked = set(range(mod)) - allowed
        if len(blocked) == 1:
            return f"m ≢ {next(iter(blocked))} (mod {mod})"
        if len(allowed) == 1:
            return f"m ≡ {next(iter(allowed))} (mod {mod})"
        odds = {res for res in range(mod) if res % 2}
        if mod % 2 == 0 and allowed <= odds:
            missing = odds - allowed
            if len(missing) == 1:
                return f"m is odd and m ≢ {next(iter(missing))} (mod {mod})"
        listed = ",".join(str(res) for res in sorted(allowed))
        return f"m mod {mod} ∈ {{{listed}}}"

    def to_json(self) -> str:
        return json.dumps({
            "modulus": self.modulus,
            "allowed": sorted(self.allowed),
            "text": self.render(),
        }, sort_keys=True)


def _condition_modulus(spec: FamilySpec) -> int:
    """lcm(2, ord_2(p)) over the primes p of t*(t - 2r)."""
    r = r_closed_form(spec)
    modulus = 2
    for p in set(prime_factors(spec.t)) | set(prime_factors(spec.t - 2 * r)):
        modulus = math.lcm(modulus, ord2_mod(p))
    return modulus


def m_condition(spec: FamilySpec) -> MCondition:
    """Exact residue-class condition on m, derived then minimized.

    The working modulus is lcm(2, ord_2(p)) over the primes p of
    t*(t - 2r): p divides 2^m - 1 iff ord_2(p) | m, and p divides
    2^m + 1 iff ord_2(p) is even and m = ord_2(p)/2 (mod ord_2(p)),
    so the verdict depends on m only through m mod that lcm.  Every
    residue is enumerated, so a modulus above MODULUS_CEILING raises
    ValueError before any is.
    """
    modulus = _condition_modulus(spec)
    if modulus > MODULUS_CEILING:
        raise ValueError(f"m-condition modulus {modulus} exceeds the ceiling "
                         f"{MODULUS_CEILING}")
    allowed = frozenset(
        res for res in range(modulus)
        if theorem_verdict(spec, res if res else modulus).predicted
    )
    return MCondition(modulus, allowed).reduced()


def verify_identity_derivative(spec: FamilySpec) -> bool:
    """Exact check of N'H + NH' = Q^(Q1+Q2) in GF(2)[x]."""
    n, h = build_N(spec), build_H(spec)
    lhs = poly_mul(poly_derivative(n), h) + poly_mul(n, poly_derivative(h))
    return lhs == Q ** (spec.t - 1)


def verify_identity_Q(spec: FamilySpec) -> bool:
    """Exact check of N^2 + NH + H^2 = Q^(Q1+Q2+1), i.e. Q(g)H^2 cleared."""
    n, h = build_N(spec), build_H(spec)
    lhs = poly_mul(n, n) + poly_mul(n, h) + poly_mul(h, h)
    return lhs == Q**spec.t
