"""Independent brute-force ground truth over concrete fields.

Nothing here consults the closed-form theory: permutation status comes
from exhaustive sweeps with a hit bitmap, the map z^t H(z)^(q-1), which is
g = N/H on the unit circle, is checked on the whole circle in polar
coordinates (H as an array, each value written as lambda zeta^i by integer
gathers, with no field multiply or inverse; the reduced g only at roots of
H), and critical points come from the zeros of the
Wronskian over all of GF(2^(2m)), with their indices from Hasse
derivatives.  That independence is what makes agreement with the theorem
engine a meaningful check.

Every whole-field sweep is one power sum, xor of x^e over the exponents,
taken in discrete-log order x = g^k in blocks of at most _BLOCK logs.
Exponents are first reduced mod 2^n - 1, and residues that occur an even
number of times are dropped, since equal terms cancel in characteristic
2.  A field with n <= 16 is one block.  Below 2^10 nonzero points it xors
cached whole-group columns (g^k)^e, so repeated small sweeps cost a few
xors; above, it xors columns over one period P | 2^n - 1 of the exponents
and grows the sum to every log through the log and antilog tables.  A
larger field reads no antilog table: columns sharing a step constant
g^(B e) advance as one sum, one multiply per block of B logs; a
pentanomial's first block grows from one period.  A verdict sweep steps
the sums alone in a few buffers, and checks g's order by the primes of
2^n - 1.  At every n a verdict marks the values block by block in one hit
bitmap.  Every grown sum is checked at g^-1 against scalar powers
(FieldCtx.power_sum).  Blocks are yielded as read-only views: a large
field reuses their buffers for the next block.

monomials_permute remembers its verdicts in bounded LRU memos of
_MEMO_SIZE entries, one per field degree (_verdict_memo(n)), keyed by the
reduced exponent tuple.  The key is exact: on nonzero x, x^e depends only
on e mod 2^n - 1, equal terms cancel in pairs, and every exponent is at
least 1, so 0 maps to 0.  The search's shapes share many keys at small n
(45 distinct among 35,744 calls at n = 4, 1,037 at n = 6), none at
n = 10, whose 35,744 distinct keys now evict only each other: a run makes
36,826 misses, one per distinct key.  A test that patches _BLOCK or
_WHOLE must clear the memos (_verdict_memo.cache_clear()), or its sweep
may be answered from them.

Branch points are reported as images of critical points found among the
field points plus infinity.  A ramification scan (n <= RAMIFICATION_CAP)
evaluates the reduced N and D and the Wronskian W = N'D + ND', built here
from N and D, at every nonzero point as arrays, and checks them at g^-1
against scalar evaluation.  The critical points are 0, infinity and the
nonzero zeros of W with index above 1; ramification_index, by Hasse
derivatives at one point, is the only index computation, and every
nonzero zero of W has an index above 1.  A fiber over beta counts the x
with N(x) = beta D(x), with index 1 off the critical points.  The last
scan is kept, so the branch points, fibers, profile and report of one map
share it.  The underlying definitions live over the algebraic closure;
for the maps in scope every critical point lies in F_4, a subfield of
every GF(2^(2m)), so the scan sees them all.  Inseparable maps such as
x -> x^2 (where every point is critical) are reported as such.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .families import FamilySpec, Shape, Table1Row
from .field import _CHUNK, FieldCtx, FieldElem, LinearMap, make_field
from .gf2poly import BinPoly, poly_derivative, poly_divmod, poly_gcd, poly_mul, poly_reverse
from .intarith import prime_factors

__all__ = [
    "INFINITY",
    "ProjPoint",
    "RationalMap",
    "BRUTE_CAP",
    "MU_CAP",
    "RAMIFICATION_CAP",
    "monomials_permute",
    "brute_is_permutation",
    "g_map",
    "g_permutes_unit_circle",
    "ramification_index",
    "fiber_indices",
    "ramification_profile",
    "branch_points_of_map",
    "ramification_report",
]

BRUTE_CAP = 24  # largest field degree 2m swept exhaustively by default
MU_CAP = 20  # largest m whose unit circle is enumerated
RAMIFICATION_CAP = 16  # largest field degree 2m scanned for critical points
# What the oracles read a Shape from: a family member, a table row or a shape.
Shaped = FamilySpec | Table1Row | Shape


class _Infinity:
    """The point at infinity on the projective line."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITY"

    def __reduce__(self):
        return (_Infinity, ())


INFINITY = _Infinity()

# A projective point is a FieldElem or INFINITY.
ProjPoint = FieldElem | _Infinity


def _check_owner(ctx: FieldCtx, point: ProjPoint) -> None:
    """Refuse a point of another context before any work with it."""
    if point is not INFINITY and point.ctx != ctx:
        raise ValueError("element does not belong to the given context")


# ---------------------------------------------------------------------------
# permutation sweeps
# ---------------------------------------------------------------------------

# Discrete logs per sweep block: every field with n <= 16 is one block.
_BLOCK = _CHUNK
# One-block fields with fewer nonzero points sum whole-group columns (no
# growth); the columns of at most this many entries are cached.
_WHOLE = 1 << 10
# Distinct reduced exponent tuples monomials_permute remembers per field degree.
_MEMO_SIZE = 1024
# Points per slice of a circle or ramification scan: temporaries stay in cache.
_SLICE = _CHUNK // 4


def _reduced_exponents(order: int, exponents) -> tuple[int, ...]:
    """Residues mod the group order that occur an odd number of times, sorted.

    On nonzero x, x^e depends only on e mod the order, and equal terms
    cancel in characteristic 2.  Every exponent must be positive.
    """
    odd: set[int] = set()
    for e in exponents:
        if e < 1:
            raise ValueError("exponents must be positive")
        r = e % order
        if r in odd:
            odd.remove(r)
        else:
            odd.add(r)
    return tuple(sorted(odd))


def _fold(idx, s: int):
    """A residue of idx mod s in [-(s + 1), 2s), which a wrapping take
    finishes reducing: with idx = hi 2^w + lo, lo + hi for s = 2^w - 1 and
    lo - hi for s = 2^w + 1.  idx is a nonnegative intp array below s^2,
    and is overwritten."""
    plus = s & s + 1 != 0  # s = 2^w + 1, else s = 2^w - 1
    w = s.bit_length() - plus
    low = idx & (1 << w) - 1
    idx >>= w
    if plus:
        low -= idx
    else:
        low += idx
    return low


@functools.lru_cache(maxsize=64)
def _column(n: int, e: int, span: int):
    """(g^k)^e for k < span as a read-only int64 array (one-block fields)."""
    import numpy as np

    order = (1 << n) - 1
    col = make_field(n).exp_array().take(_fold(np.arange(span) * e, order), mode="wrap")
    col.flags.writeable = False
    return col


def _one_block_sum(ctx: FieldCtx, exps):
    """The xor of (g^k)^e over the reduced exponents at k = 0 .. order - 1
    (order <= _BLOCK) as an int64 array; callers must not write to it.

    Below _WHOLE nonzero points the columns span the whole group.
    Otherwise they span one period P = order / gcd(order, e_i - e_0), and
    the sum is grown by f(g^(k+P)) = g^(P e_0) f(g^k) through the log and
    antilog tables, zeros staying zero; the last sum, at g^-1, must equal
    its scalar value.
    """
    import numpy as np

    order = ctx.order
    if not exps:
        return np.zeros(order, dtype=np.int64)
    span = order if order < _WHOLE else order // math.gcd(order, *(e - exps[0] for e in exps))
    column = _column if span <= _WHOLE else _column.__wrapped__  # cache short columns only
    head = column(ctx.n, exps[0], span)
    for e in exps[1:]:
        head = head ^ column(ctx.n, e, span)
    if span == order:
        return head
    g, log = ctx.generator(), ctx.log_array()
    # row j is the head times c^j, c = g^(P e_0) the growth constant: its
    # logs lie below 4 orders, which the wrapping take reduces
    step = int(log[ctx.pow(g, span * exps[0])])
    logs = np.add.outer(_fold(np.arange(order // span) * step, order), log[head])
    values = ctx.exp_array().take(logs.reshape(-1), mode="wrap")
    if not head.all():
        values.reshape(-1, span)[:, head == 0] = 0
    if int(values[-1]) != ctx.power_sum(ctx.inv(g), exps):
        raise AssertionError("sweep closure mismatch")
    return values


def _read_only(*arrays):
    """Read-only views of the arrays (None stays None)."""
    views = tuple(None if a is None else a.view() for a in arrays)
    for view in views:
        if view is not None:
            view.flags.writeable = False
    return views


def _power_sum_blocks(ctx: FieldCtx, exps, *, points: bool = True):
    """Yield (xs, values) per block of discrete logs k: the points x = g^k
    (None if not points) and the xor of x^e over the reduced exponents
    (_reduced_exponents) at each, as read-only views.  A pair is valid only
    until the next block is requested: a larger field reuses buffers
    allocated once per sweep.

    A one-block field is _one_block_sum beside the antilog table.  A larger
    field sums the columns (g^k)^e per step constant g^(B e) and advances
    each sum (and the points) by one multiply per block of B logs.  B is the
    largest multiple of P = order / gcd(order, e_i - e_0) up to _BLOCK (else
    _BLOCK), so a sum is built at its first min(P, B) logs and grown by
    f(g^(k+P)) = g^(P e) f(g^k).  g must pass the prime-factor order test,
    and the last sum, at g^-1, must equal its scalar value.
    """
    import numpy as np

    order = ctx.order
    if order <= _BLOCK:
        yield _read_only(ctx.exp_array() if points else None, _one_block_sum(ctx, exps))
        return
    g, groups = ctx.generator(), {}
    if any(ctx.pow(g, order // p) == 1 for p in prime_factors(order)):
        raise AssertionError("generator order mismatch")
    span = min(order // math.gcd(order, *(e - exps[0] for e in exps)), _BLOCK)  # P, capped
    block = _BLOCK // span * span
    for e in exps:  # columns with one step constant g^(span e) advance as one
        key = span * e % order
        groups[key] = groups.get(key, 0) ^ ctx.powers(ctx.pow(g, e), span)
    groups = groups or {0: np.zeros(span, dtype=np.int64)}  # the empty sum
    # (constant per head row, head row): the points column, head [1], goes last
    heads = [(ctx.pow(g, key), head) for key, head in groups.items()] + [(g, [1])] * points
    cols = [ctx.powers(c, block, head) for c, head in heads]
    steps = [ctx._times(ctx.pow(c, block // len(head))) for c, head in heads]
    # each column advances into its spare, then swaps with it
    scratch, acc, *spares = np.empty((2 + len(cols), block), dtype=np.int64)
    for lo in range(0, order, block):
        if lo:
            for c, times in enumerate(steps):
                cols[c], spares[c] = times.apply(cols[c], out=spares[c], scratch=scratch), cols[c]
        size = min(block, order - lo)
        xs = cols[-1][:size] if points else None
        values = cols[0][:size]  # a view of a column: never xored in place
        for col in cols[1:len(groups)]:
            values = np.bitwise_xor(values, col[:size], out=acc[:size])
        yield _read_only(xs, values)
    # the last log is order - 1: a wrong step constant shows at x = g^-1
    if (int(values[-1]) != ctx.power_sum(ctx.inv(g), exps)
            or (points and ctx.mul(int(xs[-1]), g) != 1)):
        raise AssertionError("sweep closure mismatch")


def _power_sum_array(ctx: FieldCtx, exponents):
    """xor of x^e over the positive exponents at every x, indexed by x's bit
    mask, as a numpy array (uint32 up to n = 32)."""
    import numpy as np

    out = np.zeros(1 << ctx.n, dtype=np.uint32 if ctx.n <= 32 else np.int64)
    for xs, values in _power_sum_blocks(ctx, _reduced_exponents(ctx.order, exponents)):
        out[xs] = values
    return out


def monomials_permute(n: int, exponents, cap: int = BRUTE_CAP) -> bool:
    """Whether x -> xor of x^e over the exponent list permutes GF(2^n).

    All exponents must be positive, so 0 maps to 0; the verdict depends
    only on n and the reduced exponents, and is memoized on them.
    """
    if not 1 <= n <= cap:
        raise ValueError(f"field degree {n} outside 1 .. {cap} (the brute cap)")
    return _verdict_memo(n)(_reduced_exponents((1 << n) - 1, exponents))


@functools.cache
def _verdict_memo(n: int):
    """The bounded LRU of _MEMO_SIZE verdicts of field degree n: one per
    degree, so the keys of one degree never evict another's."""
    return functools.lru_cache(_MEMO_SIZE)(functools.partial(_sweep, n))


def _sweep(n: int, exps: tuple[int, ...]) -> bool:
    """The sweep behind monomials_permute: marks the values block by block
    in discrete-log order in a bitmap of size 2^n.  As 0 maps to 0, f
    permutes iff no nonzero point hits 0 and they hit 2^n - 1 values."""
    import numpy as np

    ctx = make_field(n)
    bitmap = np.zeros(1 << n, dtype=bool)
    for _, values in _power_sum_blocks(ctx, exps, points=False):
        bitmap[values] = True
    return bool(not bitmap[0] and np.count_nonzero(bitmap) == ctx.order)


def brute_is_permutation(x: Shaped, m: int, cap: int = BRUTE_CAP) -> bool:
    """Exhaustive permutation test of x's shape over GF(2^(2m))."""
    if 2 * m > cap:
        raise ValueError(f"2m = {2 * m} exceeds the brute cap {cap}")
    return monomials_permute(2 * m, x.shape().exponents(m), cap=cap)


# ---------------------------------------------------------------------------
# the fractional map g = N/H
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RationalMap:
    """Quotient of GF(2)[x] polynomials, held in reduced form."""

    reduced_num: BinPoly
    reduced_den: BinPoly

    @classmethod
    def make(cls, num: BinPoly, den: BinPoly) -> "RationalMap":
        if not den:
            raise ValueError("denominator must be nonzero")
        g = poly_gcd(num, den)
        return cls(poly_divmod(num, g)[0], poly_divmod(den, g)[0])

    @property
    def degree(self) -> int:
        dn = self.reduced_num.degree
        dd = self.reduced_den.degree
        return max(-1 if dn is None else dn, dd)

    def value_at_infinity(self, ctx: FieldCtx) -> ProjPoint:
        dn, dd = self.reduced_num.degree, self.reduced_den.degree
        dn = -1 if dn is None else dn
        if dn > dd:
            return INFINITY
        if dn < dd:
            return ctx.zero()
        return ctx.one()  # both monic over GF(2)

    def eval_bits(self, ctx: FieldCtx, x: int):
        """Reduced-form value as a bit mask, or INFINITY."""
        den = ctx.power_sum(x, self.reduced_den.exponents())
        if den == 0:
            return INFINITY
        num = ctx.power_sum(x, self.reduced_num.exponents())
        return ctx.mul(num, ctx.inv(den))

    def eval(self, ctx: FieldCtx, point: ProjPoint) -> ProjPoint:
        if point is INFINITY:
            return self.value_at_infinity(ctx)
        v = self.eval_bits(ctx, point.bits)
        return v if v is INFINITY else ctx.elem(v)

    def flipped(self) -> "RationalMap":
        """The map x -> self(1/x), reduced."""
        d = self.degree
        return RationalMap.make(
            poly_reverse(self.reduced_num, d), poly_reverse(self.reduced_den, d))


def g_map(x: Shaped) -> RationalMap:
    """g = N/H for x's shape, reduced by gcd(N, H) (Q^r for a family member)."""
    shape = x.shape()
    return RationalMap.make(shape.n_poly(), shape.h_poly())


def _sparse_values(table, ks, exps):
    """The polynomial with exponents exps at each h^k, where table = [h^0, ...,
    h^(s-1)] is cyclic: (h^k)^e = table[k e mod s].  Gathers hold <= _CHUNK entries."""
    import numpy as np

    acc = np.zeros(len(ks), dtype=np.int64)
    step = max(1, _CHUNK // max(1, len(ks)))
    for lo in range(0, len(exps), step):
        es = np.array(exps[lo:lo + step], dtype=np.int64) % len(table)
        for lo_k in range(0, len(ks), _SLICE):
            idx = _fold(np.multiply.outer(es, ks[lo_k:lo_k + _SLICE]), len(table))
            acc[lo_k:lo_k + _SLICE] ^= np.bitwise_xor.reduce(table.take(idx, mode="wrap"), axis=0)
    return acc


@functools.lru_cache(maxsize=1)
def _unit_circle_table(ctx: FieldCtx):
    """mu_(q+1) of ctx in cyclic order, read-only; one circle per process."""
    ztab = ctx._subgroup((1 << ctx.subfield_m) + 1)
    ztab.flags.writeable = False
    return ztab


def _ratio_keys(logs, coords, m: int):
    """The key of nonzero y = a + b zeta from coords = a | b << m, with
    logs[0] = -2^41: log a - log b mod q - 1 for the ratio [a : b], -1 when
    a = 0 and q - 1 when b = 0 (the difference is then below -2^40 or above
    2^40, and clipped)."""
    import numpy as np

    low = (1 << m) - 1
    key = logs[coords & low] - logs[coords >> m]
    key += low & (key >> 63)  # a negative difference gains q - 1
    return np.clip(key, -1, low, out=key)


@functools.lru_cache(maxsize=1)
def _polar_tables(ctx: FieldCtx):
    """(basis, logs, index) for y = lambda zeta^i in GF(q^2)*, one set per
    process.  As q is even, GF(q^2)* is GF(q)* x mu_(q+1), and the ratio
    [a : b] of y = a + b zeta (zeta = ztab[1]) names i, since the circle's
    q + 1 points have distinct ratios.  basis maps bits to coordinates
    a | b << m over gamma^j, gamma^j zeta (j < m, gamma generating GF(q)*);
    logs[a] = log_gamma a (size q); index[key] = i (size q + 1, keys of
    _ratio_keys)."""
    import numpy as np

    m, ztab = ctx.subfield_m, _unit_circle_table(ctx)
    sub = ctx._subgroup((1 << m) - 1)
    low = sub[:m].tolist()
    forward = LinearMap(low + [ctx.mul(s, int(ztab[1])) for s in low])
    if forward.rank() != 2 * m:
        raise AssertionError("polar basis is not a basis")
    basis = LinearMap([forward.preimage(1 << k) for k in range(2 * m)])
    logs = np.full(1 << m, -1 << 41, dtype=np.int64)
    for lo in range(0, len(sub), _SLICE):
        coords = basis.apply(sub[lo:lo + _SLICE])
        if int(coords.max()) >> m:
            raise AssertionError("subfield element off the first coordinate")
        logs[coords] = np.arange(lo, lo + len(coords))
    del sub  # before the circle-sized table: a lower peak at m = 20
    index = np.full(len(ztab), -1, dtype=np.int64)
    for lo in range(0, len(ztab), _SLICE):
        key = _ratio_keys(logs, basis.apply(ztab[lo:lo + _SLICE]), m)
        index[key] = np.arange(lo, lo + len(key))
    if int(np.count_nonzero(index < 0)):
        raise AssertionError("circle points share a ratio")
    return basis, logs, index


def _polar(ctx: FieldCtx, ys):
    """The array of i with y = lambda zeta^i, lambda in GF(q)*, for a numpy
    array of y (_polar_tables names zeta); y = 0 gets an index too, so a
    caller that may pass 0 checks the point it names."""
    basis, logs, index = _polar_tables(ctx)
    return index[_ratio_keys(logs, basis.apply(ys), ctx.subfield_m)]


def g_permutes_unit_circle(x: Shaped, m: int) -> bool:
    """Whether g(z) = z^t H(z)^(q-1), for x's shape (t, H), maps the unit
    circle bijectively onto itself; off the roots of H it is the reduced
    N/H, as N(z) = z^t H(z)^q on the circle.

    The circle is cyclic of order q + 1, so H restricts to lookups in a
    (q+1)-entry power table, taken in _SLICE slices.  With H(zeta^k) =
    lambda zeta^i (_polar), lambda in GF(q)* and lambda^(q-1) = 1, so
    g(zeta^k) = zeta^(t k - 2 i): g permutes the circle iff t k - 2 i
    mod q + 1 hits every residue.  Only roots of H on the circle read the
    reduced g, built at the first.  Such a root is a root of N of the same
    multiplicity (H(1/z) = H(z)^q), so the reduced g has no pole or zero
    there and lies on the circle; a value off it is an AssertionError.
    """
    import numpy as np

    if m > MU_CAP:
        raise ValueError(f"m = {m} exceeds the unit-circle cap {MU_CAP}")
    ctx = make_field(2 * m, m)
    shape, ztab, gmap = x.shape(), _unit_circle_table(ctx), None
    size, exps = len(ztab), shape.h_poly().exponents()
    hits = np.zeros(size, dtype=bool)
    for lo in range(0, size, _SLICE):
        ks = np.arange(lo, min(lo + _SLICE, size), dtype=np.int64)
        hvals = _sparse_values(ztab, ks, exps)
        powers = ks * (shape.t % size) - 2 * _polar(ctx, hvals)
        roots = np.flatnonzero(hvals == 0)  # their powers are replaced below
        if len(roots):
            gmap = gmap or g_map(shape)
            # a pole stands in as 0: neither lies on the circle
            values = np.array([0 if v is INFINITY else v for v in (
                gmap.eval_bits(ctx, z) for z in ztab[lo + roots].tolist())], dtype=np.int64)
            powers[roots] = i = _polar(ctx, values)
            if not np.array_equal(ztab[i], values):
                raise AssertionError("reduced g leaves the circle at a root of H")
        hits[powers % size] = True
    return bool(hits.all())


# ---------------------------------------------------------------------------
# ramification over the concrete field
# ---------------------------------------------------------------------------

def ramification_index(g: RationalMap, alpha: ProjPoint, ctx: FieldCtx) -> int:
    """Multiplicity of alpha as a root of P = N - g(alpha)D (D when
    g(alpha) = inf) for the reduced N and D, or 0 if P = 0: the least k >= 1
    with (D^k P)(alpha) != 0, where D^k x^e = C(e, k) x^(e-k) is the k-th
    Hasse derivative and C(e, k) is odd exactly when e & k == k (Lucas).

    At alpha = 0 that is the least k >= 1 where P has a term.  Elsewhere
    (D^k P)(alpha) is alpha^-k times the xor of p_e alpha^e over the e that
    contain k: one superset-sum transform of those terms over the bit masks
    below 2^(bit length of deg g) gives every k at once.  The index at
    infinity is computed through the substitution x -> 1/x."""
    _check_owner(ctx, alpha)
    if alpha is INFINITY:
        return ramification_index(g.flipped(), ctx.zero(), ctx)
    import numpy as np

    a, value, bits = alpha.bits, g.eval_bits(ctx, alpha.bits), g.degree.bit_length()
    terms = np.zeros(1 << bits, dtype=np.int64)
    parts = [(g.reduced_den, 1)]  # a pole: P = D
    if value is not INFINITY:
        parts = [(g.reduced_num, 1), (g.reduced_den, value)]
    for poly, c in parts:
        for e in poly.exponents():
            terms[e] ^= ctx.mul(c, ctx.pow(a, e)) if a else c
    for bit in range(bits if a else 0):  # terms[k] becomes alpha^k (D^k P)(alpha)
        pairs = terms.reshape(-1, 2, 1 << bit)
        pairs[:, 0] ^= pairs[:, 1]
    ks = np.flatnonzero(terms[1:])
    return int(ks[0]) + 1 if len(ks) else 0


@functools.lru_cache(maxsize=1)
def _ramification_table(g: RationalMap, ctx: FieldCtx) -> tuple:
    """(nvals, dvals, critical): the reduced N and D at every nonzero point
    x = g^k in discrete-log order as read-only int64 arrays, and
    (point, image, index) at each critical point, in bit order with
    infinity last.

    The candidates are 0, infinity and the nonzero zeros of the Wronskian
    W = N'D + ND', and each takes g.eval and ramification_index; index 1 is
    dropped.  W misses no critical point: off a pole W(a) / D(a) is the
    first Hasse residual N'(a) + g(a) D'(a), and at a pole N(a) != 0 (N and
    D are coprime), so W(a) = N(a) D'(a) vanishes iff the pole is multiple.
    At the last log, x = g^-1, N and D must equal their scalar values, and
    W must vanish iff the scalar index exceeds 1."""
    import numpy as np

    if ctx.n > RAMIFICATION_CAP:  # before the antilog table is built
        raise ValueError(f"field degree {ctx.n} exceeds the ramification cap {RAMIFICATION_CAP}")
    exp, num, den = ctx.exp_array(), g.reduced_num, g.reduced_den
    wronskian = poly_mul(poly_derivative(num), den) + poly_mul(num, poly_derivative(den))
    ks = np.arange(ctx.order)
    nvals, dvals, wvals = (_sparse_values(exp, ks, p.exponents()) for p in (num, den, wronskian))
    last = int(exp[-1])
    scalar = tuple(ctx.power_sum(last, p.exponents()) for p in (num, den))
    if ((int(nvals[-1]), int(dvals[-1])) != scalar
            or (wvals[-1] == 0) != (ramification_index(g, ctx.elem(last), ctx) > 1)):
        raise AssertionError("ramification closure mismatch")
    points = [ctx.zero(), *map(ctx.elem, sorted(exp[wvals == 0].tolist())), INFINITY]
    indexed = [(point, ramification_index(g, point, ctx)) for point in points]
    nvals.flags.writeable = dvals.flags.writeable = False
    return nvals, dvals, tuple((point, g.eval(ctx, point), e) for point, e in indexed if e > 1)


def branch_points_of_map(g: RationalMap, ctx: FieldCtx) -> set:
    """Images of the critical points found among field points and infinity."""
    return {image for _, image, _ in _ramification_table(g, ctx)[2]}


def fiber_indices(g: RationalMap, beta: ProjPoint, ctx: FieldCtx) -> list[int]:
    """Sorted ramification indices over beta's preimages in the field plus
    infinity (the concrete part of the fiber): those of the critical points
    over beta, and 1 at every other preimage."""
    nvals, dvals, critical = _ramification_table(g, ctx)
    if beta is not INFINITY and beta.ctx != ctx:
        return []
    # the nonzero x with N(x) = beta D(x), or D(x) = 0 over infinity
    hits = dvals == 0 if beta is INFINITY else nvals == ctx._times(beta.bits).apply(dvals)
    size = int(hits.sum()) + sum(g.eval(ctx, point) == beta for point in (ctx.zero(), INFINITY))
    ramified = [e for _, image, e in critical if image == beta]
    return sorted(ramified + [1] * (size - len(ramified)))


def ramification_profile(x: Shaped, ctx: FieldCtx) -> dict:
    """Map each branch point to the sorted indices over its concrete fiber."""
    g = g_map(x)
    # keys in the branch set's iteration order: gcheck's output follows it
    return {beta: fiber_indices(g, beta, ctx) for beta in branch_points_of_map(g, ctx)}


def ramification_report(x: Shaped, ctx: FieldCtx) -> list[dict]:
    """JSON-renderable critical-point report: point, index, image."""
    return [{"point": "inf" if point is INFINITY else point.hex(), "index": e,
             "image": "inf" if image is INFINITY else image.hex()}
            for point, image, e in _ramification_table(g_map(x), ctx)[2]]
