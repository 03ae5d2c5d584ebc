"""The three pentanomial families over GF(2^(2m)) and the 17-row registry.

Every polynomial here is a Shape (t, H): f(x) = x^t * H(x^(q-1)) with
H = 1 + sum of x^r over strictly increasing r in [1, t], and
N(x) = x^t * H(1/x) its reversal.  On the unit circle z^(q+1) = 1,
N(z) = z^t H(z)^q, so every root of H there is a root of N, and a shape
with coprime H and N (gcd_condition) has none.  A family is fixed by a
class letter and two exponents (i, j); writing Q1 = 2^i, Q2 = 2^j and
t = Q1 + Q2 + 1, FamilySpec.shape() holds its class polynomial H, in
which equal exponents cancel when i = j.  The registry stores the published
17-row table as literal data (exponent pairs, condition column, class
columns) so that resolution back to a FamilySpec is computed, never
hard-coded, and transcription slips stay visible.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

from .field import FieldCtx, FieldElem
from .gf2poly import BinPoly, poly_gcd

__all__ = [
    "CLASSES",
    "FamilySpec",
    "Shape",
    "Table1Row",
    "eval_f",
    "gcd_condition",
    "table1_registry",
    "match_row",
    "registry_as_json",
]

CLASSES = ("A", "B", "C")


@dataclass(frozen=True)
class FamilySpec:
    """One member of a family: class letter plus the two power exponents.

    Any positive i, j is accepted; only the CLI bounds them (i, j <= 12)."""

    cls: str
    i: int
    j: int

    def __post_init__(self):
        if self.cls not in CLASSES:
            raise ValueError(f"class must be one of {CLASSES}, got {self.cls!r}")
        if self.i < 1 or self.j < 1:
            raise ValueError("i and j must be positive")

    @property
    def q1(self) -> int:
        return 1 << self.i

    @property
    def q2(self) -> int:
        return 1 << self.j

    @property
    def t(self) -> int:
        return self.q1 + self.q2 + 1

    def __repr__(self):
        return f"FamilySpec({self.cls}, i={self.i}, j={self.j})"

    def shape(self) -> Shape:
        """The class polynomial H as a shape, built once per spec; coinciding
        exponents cancel (characteristic 2), so i = j leaves two r."""
        return self._shape

    @functools.cached_property
    def _shape(self) -> Shape:
        q1, q2 = self.q1, self.q2
        if self.cls == "A":
            rs = (q1 + q2, q1 + 1, q2 + 1, 1)
        elif self.cls == "B":
            rs = (q1 + q2, q1 + 1, q1, q2 + 1)
        else:
            rs = (q1 + q2 + 1, q1, q2, 1)
        return Shape(self.t, BinPoly.from_exponents(rs).exponents())


def eval_f(spec: FamilySpec | Shape, ctx: FieldCtx, x: FieldElem) -> FieldElem:
    """Evaluate the pentanomial of spec's shape as a monomial sum; f(0) = 0.

    Exponents are reduced mod 2^n - 1 before powering, so large m is safe.
    """
    if ctx.subfield_m is None:
        raise ValueError("eval_f needs a context with subfield structure")
    if x.ctx != ctx:
        raise ValueError("element does not belong to the given context")
    return ctx.elem(ctx.power_sum(x.bits, spec.shape().exponents(ctx.subfield_m)))


@dataclass(frozen=True)
class Shape:
    """x^t * H(x^(q-1)) = x^t + sum of x^(r(q-1)+t), H = 1 + sum of x^r over
    the strictly increasing r-tuple rs in [1, t], of any length.

    Any t is accepted; only SearchConfig.validate bounds the search (t_max <= 40)."""

    t: int
    rs: tuple[int, ...]

    def __post_init__(self):
        last = 0  # one pass, as the search builds every shape it tests
        for r in self.rs:
            if r <= last:
                raise ValueError("r-tuple must be strictly increasing" if last
                                 else "r values must lie in [1, t]")
            last = r
        if last > self.t:
            raise ValueError("r values must lie in [1, t]")

    def shape(self) -> Shape:
        """The shape itself, as FamilySpec.shape() and Table1Row.shape() give one."""
        return self

    def h_poly(self) -> BinPoly:
        """H(x) = 1 + sum of x^r (distinct bits: OR is XOR)."""
        bits = 1
        for r in self.rs:
            bits |= 1 << r
        return BinPoly(bits)

    def n_poly(self) -> BinPoly:
        """N(x) = x^t * H(1/x)."""
        t = self.t
        bits = 1 << t
        for r in self.rs:
            bits |= 1 << t - r
        return BinPoly(bits)

    def exponents(self, m: int) -> tuple[int, ...]:
        """Field exponents at q = 2^m: t and r(q-1)+t, ascending."""
        t, q1 = self.t, (1 << m) - 1
        out = [t]
        for r in self.rs:
            out.append(r * q1 + t)
        return tuple(out)


def gcd_condition(p: Shape) -> bool:
    """The coprimality sieve: gcd(H, N) = 1 for the shape's pair."""
    return poly_gcd(p.h_poly(), p.n_poly()).bits == 1


@dataclass(frozen=True)
class Table1Row:
    """One published table row: exponent pairs plus the printed columns."""

    row_no: int
    pairs: tuple[tuple[int, int], ...]
    condition_text: str
    condition_modulus: int
    condition_allowed: frozenset[int]
    starred: bool
    printed_class: str | None
    printed_i: int | None
    printed_j: int | None

    def condition_holds(self, m: int) -> bool:
        """Membership of m in the printed condition's residue set."""
        return m % self.condition_modulus in self.condition_allowed

    @property
    def t(self) -> int:
        return next(b for a, b in self.pairs if a == 0)

    def shape(self) -> Shape:
        """The (t, r-tuple) form; each pair (a, b) has a + b = t, r = a."""
        t = self.t
        return Shape(t, tuple(sorted(a for a, b in self.pairs if (a, b) != (0, t))))


def _not0(mod):
    return frozenset(range(1, mod))


_ODD = frozenset({1})

# Verbatim table data: (row, pairs, condition text, modulus, allowed residues,
# starred, printed class, printed i, printed j).  The condition column is kept
# both as text and as the residue set it denotes; resolution to a FamilySpec
# is computed by match_row, never stored here.
_TABLE1 = (
    (1, ((8, 1), (7, 2), (5, 4), (3, 6), (0, 9)),
     "m is odd", 2, _ODD, False, None, None, None),
    (2, ((10, 1), (9, 2), (3, 8), (1, 10), (0, 11)),
     "m ≢ 0 (mod 10)", 10, _not0(10), True, "A", 3, 1),
    (3, ((10, 1), (8, 3), (6, 5), (4, 7), (0, 11)),
     "gcd(m,5)=1", 5, _not0(5), False, None, None, None),
    (4, ((12, 1), (9, 4), (8, 5), (5, 8), (0, 13)),
     "m ≢ 0 (mod 6)", 6, _not0(6), True, "B", 3, 2),
    (5, ((18, 1), (17, 2), (3, 16), (2, 17), (0, 19)),
     "m ≢ 0 (mod 18)", 18, _not0(18), True, "B", 1, 4),
    (6, ((21, 0), (16, 5), (4, 17), (1, 20), (0, 21)),
     "m ≢ 3 (mod 6)", 6, frozenset({0, 1, 2, 4, 5}), True, "C", 4, 2),
    (7, ((22, 1), (18, 5), (8, 15), (4, 19), (0, 23)),
     "gcd(m,11)=1", 11, _not0(11), False, None, None, None),
    (8, ((24, 1), (17, 8), (9, 16), (8, 17), (0, 25)),
     "m is odd", 2, _ODD, True, "B", 3, 4),
    (9, ((34, 1), (33, 2), (3, 32), (1, 34), (0, 35)),
     "m is odd and m ≢ 3 (mod 6)", 6, frozenset({1, 5}), True, "A", 5, 1),
    (10, ((36, 1), (33, 4), (32, 5), (5, 32), (0, 37)),
     "m ≢ 0 (mod 18)", 18, _not0(18), True, "B", 2, 5),
    (11, ((40, 1), (33, 8), (9, 32), (1, 40), (0, 41)),
     "m ≢ 0 (mod 10)", 10, _not0(10), True, "A", 5, 3),
    (12, ((48, 1), (33, 16), (32, 17), (17, 32), (0, 49)),
     "gcd(m,3)=1", 3, _not0(3), True, "B", 5, 4),
    (13, ((66, 1), (65, 2), (3, 64), (2, 65), (0, 67)),
     "m ≢ 0 (mod 66)", 66, _not0(66), True, "B", 1, 6),
    (14, ((69, 0), (64, 5), (4, 65), (1, 68), (0, 69)),
     "m ≢ 11 (mod 22)", 22, frozenset(set(range(22)) - {11}), True, "C", 6, 2),
    (15, ((72, 1), (65, 8), (9, 64), (8, 65), (0, 73)),
     "m ≢ 0 (mod 9)", 9, _not0(9), True, "B", 3, 6),
    (16, ((81, 0), (64, 17), (16, 65), (1, 80), (0, 81)),
     "m is odd", 2, _ODD, True, "C", 6, 4),
    (17, ((96, 1), (65, 32), (33, 64), (32, 65), (0, 97)),
     "m ≢ 0 (mod 24)", 24, _not0(24), True, "B", 6, 5),
)

_REGISTRY: list[Table1Row] | None = None


def table1_registry() -> list[Table1Row]:
    """All 17 rows, as data."""
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = [Table1Row(*row) for row in _TABLE1]
    return list(_REGISTRY)


_MATCH_RANGE = 8


def _all_matches(row: Table1Row) -> list[FamilySpec]:
    target, span = row.shape(), range(1, _MATCH_RANGE + 1)
    specs = (FamilySpec(cls, i, j) for cls in CLASSES for i in span for j in span)
    return [spec for spec in specs if spec.shape() == target]


def match_row(row: Table1Row) -> FamilySpec | None:
    """Resolve a row to a FamilySpec by equality of shapes.

    Classes A and C are symmetric in (i, j), so a row can match twice; the
    printed (class, i, j) columns break the tie when they are themselves a
    match.  Rows 10 and 17 print their Q1/Q2 columns in the order opposite
    to the matching spec, so resolution there ignores the printed columns
    (see row_discrepancies).
    """
    matches = _all_matches(row)
    if not matches:
        return None
    if row.printed_class is not None:
        printed = FamilySpec(row.printed_class, row.printed_i, row.printed_j)
        if printed in matches:
            return printed
    return min(matches, key=lambda s: (s.cls, s.i, s.j))


def row_discrepancies(row: Table1Row, resolved: FamilySpec | None) -> list[str]:
    """Human-readable flags where the printed columns disagree with the
    row's resolution, match_row(row) (column-order swaps)."""
    out = []
    if resolved is None:
        if row.printed_class is not None:
            out.append(f"row {row.row_no}: printed class does not match any spec")
        return out
    if row.printed_class is None:
        return out
    printed = (row.printed_class, row.printed_i, row.printed_j)
    if printed != (resolved.cls, resolved.i, resolved.j):
        out.append(
            f"row {row.row_no}: printed Q1/Q2 columns give "
            f"({row.printed_class}, i={row.printed_i}, j={row.printed_j}) but the "
            f"exponent multiset matches ({resolved.cls}, i={resolved.i}, j={resolved.j})"
        )
    return out


def registry_as_json() -> str:
    """Registry dump: pairs, condition, printed columns, computed resolution."""
    rows = []
    for row in table1_registry():
        resolved = match_row(row)
        rows.append({
            "row_no": row.row_no,
            "exponent_pairs": [list(p) for p in row.pairs],
            "condition": row.condition_text,
            "condition_modulus": row.condition_modulus,
            "condition_allowed": sorted(row.condition_allowed),
            "starred": row.starred,
            "printed": None if row.printed_class is None else {
                "class": row.printed_class, "i": row.printed_i, "j": row.printed_j},
            "resolved": None if resolved is None else {
                "class": resolved.cls, "i": resolved.i, "j": resolved.j},
            "flags": row_discrepancies(row, resolved),
        })
    return json.dumps(rows, indent=2, sort_keys=True)
