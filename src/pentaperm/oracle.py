"""Independent brute-force ground truth over concrete fields.

Nothing here consults the closed-form theory: permutation status comes
from exhaustive sweeps with a hit bitmap, the fractional map g = N/H is
checked on the whole unit circle in polar coordinates (N and H as arrays,
each value written as lambda zeta^i by integer gathers, with no field
multiply or inverse), and ramification indices come from Hasse
derivatives evaluated over all of GF(2^(2m)).  That
independence is what makes agreement with the theorem engine a
meaningful check.

Every whole-field sweep is one power sum, xor of x^e over the exponents,
taken in discrete-log order x = g^k in blocks of at most _BLOCK logs.
Exponents are first reduced mod 2^n - 1, and residues that occur an even
number of times are dropped, since equal terms cancel in characteristic
2.  A field with n <= 16 is one block.  Below 2^10 nonzero points it xors
cached whole-group columns (g^k)^e, so repeated small sweeps cost a few
xors; above, it xors columns over one period P | 2^n - 1 of the exponents
and grows the sum to every log through the log and antilog tables, and a
verdict counts the values.  A larger field reads no antilog table: columns
sharing a step constant g^(B e) advance as one sum, one multiply per block
of B logs; a pentanomial's first block grows from one period.  A verdict
sweep steps the sums alone in a few buffers beside the hit bitmap, and
checks g's order by the primes of 2^n - 1.  Every grown sum is checked at
g^-1 against scalar powers.  table_permutes reads a bit-order table instead.

monomials_permute remembers its verdicts in bounded LRU memos of
_MEMO_SIZE entries, one per field degree, keyed by the reduced exponent
tuple.  The key is exact: on nonzero x, x^e depends only on e mod 2^n - 1,
equal terms cancel in pairs, and every exponent is at least 1, so 0 maps
to 0.  The search's shapes share many keys at small n (45 distinct among
35,744 calls at n = 4, 1,037 at n = 6), none at n = 10, whose 35,744
distinct keys now evict only each other: a run makes 36,826 misses, one
per distinct key.  A test that patches _BLOCK or _WHOLE must clear the
memo (_sweep_permutes.cache_clear()), or its sweep may be answered from it.

Branch points are reported as images of critical points found among the
field points plus infinity.  A ramification scan evaluates N, D and
their Hasse derivatives at every nonzero point as arrays, divides and
multiplies them by adding logs (so it needs the log table, n <= 16),
checks its row at g^-1 against scalar evaluation, and keeps the last
table of images and indices; the branch points, fibers, profile and
report of one map are filters over it.  The underlying definitions live
over the algebraic closure; for the maps in scope every critical point
lies in F_4, a subfield of every GF(2^(2m)), so the scan sees them all.
Inseparable maps such as x -> x^2 (where every point is critical) are
reported as such.
"""

from __future__ import annotations

import collections
import functools
import math
from dataclasses import dataclass

from .families import FamilySpec, build_H, build_N, f_exponents
from .field import _CHUNK, FieldCtx, FieldElem, LinearMap, make_field
from .gf2poly import BinPoly, poly_divmod, poly_gcd, poly_reverse
from .intarith import prime_factors

__all__ = [
    "INFINITY",
    "ProjPoint",
    "RationalMap",
    "BRUTE_CAP",
    "MU_CAP",
    "monomials_permute",
    "brute_is_permutation",
    "table_permutes",
    "g_map",
    "g_eval",
    "g_permutes_unit_circle",
    "ramification_index",
    "fiber_indices",
    "ramification_profile",
    "branch_points",
    "branch_points_of_map",
    "critical_point_residual",
    "ramification_report",
]

BRUTE_CAP = 24  # largest field degree 2m swept exhaustively by default
MU_CAP = 20  # largest m whose unit circle is enumerated


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


def _log_multiples(n: int, count: int, step: int):
    """k step mod 2^n - 1 plus 0 to 2 orders for k < count (step < 2^n), as
    an intp array: k step < 2^(2n) is folded once, as 2^n = 1 mod 2^n - 1."""
    import numpy as np

    idx = np.arange(count, dtype=np.intp)
    idx *= step
    low = idx & (1 << n) - 1
    idx >>= n
    idx += low
    return idx


@functools.lru_cache(maxsize=64)
def _column(n: int, e: int, span: int):
    """(g^k)^e for k < span as a read-only int64 array (one-block fields)."""
    col = make_field(n).exp_array().take(_log_multiples(n, span, e), mode="wrap")
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
    logs = np.add.outer(_log_multiples(ctx.n, order // span, step), log[head])
    values = ctx.exp_array().take(logs.reshape(-1), mode="wrap")
    if not head.all():
        values.reshape(-1, span)[:, head == 0] = 0
    want = functools.reduce(int.__xor__, (ctx.pow(g, -e) for e in exps), 0)
    if int(values[-1]) != want:
        raise AssertionError("sweep closure mismatch")
    return values


def _power_sum_blocks(ctx: FieldCtx, exps, *, points: bool = True):
    """Yield (xs, values) per block of discrete logs k: the points x = g^k
    (None if not points) and the xor of x^e over the reduced exponents
    (_reduced_exponents) at each.  Callers must not write to either, and a
    pair is valid only until the next block is requested: a larger field
    reuses buffers allocated once per sweep.

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
        yield (ctx.exp_array() if points else None), _one_block_sum(ctx, exps)
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
        yield xs, values
    # the last log is order - 1: a wrong step constant shows at x = g^-1
    want = functools.reduce(int.__xor__, (ctx.pow(g, (order - 1) * e) for e in exps), 0)
    if int(values[-1]) != want or (points and ctx.mul(int(xs[-1]), g) != 1):
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
    return _sweep_permutes(n, _reduced_exponents((1 << n) - 1, exponents))


_MemoInfo = collections.namedtuple("_MemoInfo", "hits misses maxsize currsize")


class _VerdictMemo(dict):
    """One bounded LRU of _MEMO_SIZE verdicts per field degree n, so the keys
    of one degree never evict another's; cache_info sums over degrees."""

    def __missing__(self, n: int):
        memo = self[n] = functools.lru_cache(_MEMO_SIZE)(functools.partial(_sweep, n))
        return memo

    def __call__(self, n: int, exps: tuple[int, ...]) -> bool:
        return self[n](exps)

    cache_clear = dict.clear

    def cache_info(self):
        infos = [memo.cache_info() for memo in self.values()]
        hits, misses, _, size = (sum(column) for column in zip((0,) * 4, *infos))
        return _MemoInfo(hits, misses, _MEMO_SIZE, size)


def _sweep(n: int, exps: tuple[int, ...]) -> bool:
    """The sweep behind monomials_permute: a one-block field counts its
    values (np.bincount); a larger one marks hits block by block in
    discrete-log order in a bitmap of size 2^n."""
    import numpy as np

    ctx = make_field(n)
    if ctx.order <= _BLOCK:
        counts = np.bincount(_one_block_sum(ctx, exps), minlength=1 << n)
        return bool(counts[0] == 0 and counts.max() == 1)
    bitmap = np.zeros(1 << n, dtype=bool)
    for _, values in _power_sum_blocks(ctx, exps, points=False):
        bitmap[values] = True
    return bool(not bitmap[0] and np.count_nonzero(bitmap) == ctx.order)


_sweep_permutes = _VerdictMemo()


def table_permutes(table) -> bool:
    """Whether a bit-order table of a map on GF(2^n) (2^n entries below 2^n)
    is a bijection: every point marked in a bitmap, _CHUNK entries at a time."""
    import numpy as np

    bitmap = np.zeros(len(table), dtype=bool)
    for lo in range(0, len(table), _CHUNK):
        bitmap[table[lo:lo + _CHUNK]] = True
    return bool(bitmap.all())


def brute_is_permutation(spec: FamilySpec, m: int, cap: int = BRUTE_CAP) -> bool:
    """Exhaustive permutation test of the family member over GF(2^(2m))."""
    if 2 * m > cap:
        raise ValueError(f"2m = {2 * m} exceeds the brute cap {cap}")
    return monomials_permute(2 * m, f_exponents(spec, m), cap=cap)


# ---------------------------------------------------------------------------
# the fractional map g = N/H
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RationalMap:
    """Quotient of GF(2)[x] polynomials, with its reduced form cached."""

    num: BinPoly
    den: BinPoly
    reduced_num: BinPoly
    reduced_den: BinPoly

    @classmethod
    def make(cls, num: BinPoly, den: BinPoly) -> "RationalMap":
        if not den:
            raise ValueError("denominator must be nonzero")
        g = poly_gcd(num, den)
        return cls(num, den, poly_divmod(num, g)[0], poly_divmod(den, g)[0])

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
        den = ctx.eval_poly_bits(self.reduced_den.bits, x)
        if den == 0:
            return INFINITY
        num = ctx.eval_poly_bits(self.reduced_num.bits, x)
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


def g_map(spec: FamilySpec) -> RationalMap:
    """g = N/H for the family member, reduced by gcd(N, H) = Q^r."""
    return RationalMap.make(build_N(spec), build_H(spec))


def g_eval(spec: FamilySpec, ctx: FieldCtx, x: FieldElem) -> ProjPoint:
    """Value of the reduced g at x; INFINITY where the reduced denominator dies."""
    if ctx.subfield_m is None:
        raise ValueError("g_eval needs a context with subfield structure")
    _check_owner(ctx, x)
    return g_map(spec).eval(ctx, x)


def _sparse_values(table, ks, exps):
    """The polynomial with exponents exps at each h^k, where table = [h^0, ...,
    h^(s-1)] is cyclic: (h^k)^e = table[k e mod s].  Gathers hold <= _CHUNK entries."""
    import numpy as np

    acc = np.zeros(len(ks), dtype=np.int64)
    step = max(1, _CHUNK // max(1, len(ks)))
    for lo in range(0, len(exps), step):
        es = np.array(exps[lo:lo + step], dtype=np.int64) % len(table)
        for lo_k in range(0, len(ks), _SLICE):
            idx = np.multiply.outer(es, ks[lo_k:lo_k + _SLICE]) % len(table)
            acc[lo_k:lo_k + _SLICE] ^= np.bitwise_xor.reduce(table[idx], axis=0)
    return acc


@functools.lru_cache(maxsize=1)
def _unit_circle_table(ctx: FieldCtx):
    """mu_(q+1) of ctx in cyclic order, read-only; one circle per process."""
    ztab = ctx._subgroup((1 << ctx.subfield_m) + 1)
    ztab.flags.writeable = False
    return ztab


def _ratio_keys(logs, coords, m: int):
    """(key, lead) of nonzero y = a + b zeta from coords = a | b << m, with
    logs[0] = -2^41: key is log a - log b mod q - 1 for the ratio [a : b],
    -1 when a = 0 and q - 1 when b = 0 (the difference is then below -2^40
    or above 2^40, and clipped); lead is log b, or log a - 2^40 when b = 0."""
    import numpy as np

    low = (1 << m) - 1
    la, lb = logs[coords & low], logs[coords >> m]
    key = la - lb
    key += low & (key >> 63)  # a negative difference gains q - 1
    np.clip(key, -1, low, out=key)
    la -= 1 << 40
    return key, np.maximum(lb, la, out=lb)


@functools.lru_cache(maxsize=1)
def _polar_tables(ctx: FieldCtx):
    """(basis, logs, index, offset) for y = lambda zeta^i in GF(q^2)*, one
    set per process.  As q is even, GF(q^2)* is GF(q)* x mu_(q+1), and the
    ratio [a : b] of y = a + b zeta (zeta = ztab[1]) names i, since the
    circle's q + 1 points have distinct ratios.  basis maps bits to
    coordinates a | b << m over gamma^j, gamma^j zeta (j < m, gamma
    generating GF(q)*); logs[a] = log_gamma a (size q); index[key] = i and
    offset[key] = the lead log of zeta^i (size q + 1, keys of _ratio_keys)."""
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
    del sub  # before the two circle-sized tables: a lower peak at m = 20
    index, offset = np.full(len(ztab), -1, dtype=np.int64), np.empty(len(ztab), dtype=np.int64)
    for lo in range(0, len(ztab), _SLICE):
        key, offset_by_point = _ratio_keys(logs, basis.apply(ztab[lo:lo + _SLICE]), m)
        index[key], offset[key] = np.arange(lo, lo + len(key)), offset_by_point
    if int(np.count_nonzero(index < 0)):
        raise AssertionError("circle points share a ratio")
    return basis, logs, index, offset


def _polar(ctx: FieldCtx, ys):
    """(i, log_gamma lambda) arrays with y = lambda zeta^i, lambda in GF(q)*,
    for a numpy array of y (_polar_tables names zeta and gamma); y = 0 gets
    a log below 0, which matches no lambda."""
    basis, logs, index, offset = _polar_tables(ctx)
    key, lead = _ratio_keys(logs, basis.apply(ys), ctx.subfield_m)
    lead -= offset[key]
    lead += len(offset) - 2 & (lead >> 63)
    return index[key], lead


def g_permutes_unit_circle(spec: FamilySpec, m: int) -> bool:
    """Whether the reduced g maps the unit circle bijectively onto itself.

    The circle is cyclic of order q+1, so the five-term N and H restrict
    to lookups in a (q+1)-entry power table, taken in _SLICE slices.  In
    polar form y = lambda zeta^i (_polar), N/H lies on the circle iff
    lambda(N) = lambda(H), and is then zeta^(i(N) - i(H)): g permutes the
    circle iff every lambda matches and i(N) - i(H) mod q + 1 hits every
    residue.  Only the roots of H on the circle need the reduced
    polynomials directly; a pole there, or a zero of g, answers False.
    """
    import numpy as np

    if m > MU_CAP:
        raise ValueError(f"m = {m} exceeds the unit-circle cap {MU_CAP}")
    ctx = make_field(2 * m, m)
    gmap = g_map(spec)
    ztab = _unit_circle_table(ctx)
    exps = [p.exponents() for p in (gmap.num, gmap.den)]
    hits = np.zeros(len(ztab), dtype=bool)
    for lo in range(0, len(ztab), _SLICE):
        ks = np.arange(lo, min(lo + _SLICE, len(ztab)), dtype=np.int64)
        nvals, hvals = (_sparse_values(ztab, ks, e) for e in exps)
        # roots of H take the reduced form: at most two are roots of N too, and
        # at any other the reduced denominator vanishes, so g hits infinity
        for k in np.flatnonzero(hvals == 0).tolist():
            red = gmap.eval_bits(ctx, int(ztab[lo + k]))
            if red is INFINITY:
                return False
            nvals[k], hvals[k] = red, 1
        (i_num, lam_num), (i_den, lam_den) = _polar(ctx, nvals), _polar(ctx, hvals)
        if not np.array_equal(lam_num, lam_den):
            return False
        hits[i_num - i_den] = True  # a negative index wraps: the residue mod q + 1
    return bool(hits.all())


# ---------------------------------------------------------------------------
# ramification over the concrete field
# ---------------------------------------------------------------------------

def _hasse(exps, k: int):
    """The k-th Hasse derivative on an int64 exponent array: x^e -> C(e, k)
    x^(e-k), where C(e, k) is odd exactly when e & k == k (Lucas)."""
    return exps[(exps & k) == k] - k


def ramification_index(g: RationalMap, alpha: ProjPoint, ctx: FieldCtx) -> int:
    """Multiplicity of alpha as a root of N - g(alpha)D (D when g(alpha) = inf):
    the least k >= 1 with (D^k N)(alpha) + g(alpha) (D^k D)(alpha) != 0, or
    (D^k D)(alpha) != 0 at a pole, for the reduced N and D, each derivative
    summed term by term.  The index at infinity is computed through the
    substitution x -> 1/x."""
    _check_owner(ctx, alpha)
    if alpha is INFINITY:
        return ramification_index(g.flipped(), ctx.zero(), ctx)
    import numpy as np

    a, value = alpha.bits, g.eval_bits(ctx, alpha.bits)
    terms = [np.array(p.exponents(), dtype=np.int64) for p in (g.reduced_num, g.reduced_den)]
    for k in range(1, g.degree + 1):
        nk, dk = (functools.reduce(int.__xor__, (ctx.pow(a, e) for e in _hasse(ex, k).tolist()), 0)
                  for ex in terms)
        if (dk if value is INFINITY else nk ^ ctx.mul(value, dk)):
            return k
    return 0


def critical_point_residual(g: RationalMap, alpha: FieldElem, ctx: FieldCtx) -> FieldElem:
    """N'(a)D(a) + N(a)D'(a); zero is necessary at every ramification point."""
    from .gf2poly import poly_derivative

    _check_owner(ctx, alpha)
    a = alpha.bits
    n, d = g.reduced_num, g.reduced_den
    nv = ctx.eval_poly_bits(n.bits, a)
    dv = ctx.eval_poly_bits(d.bits, a)
    npv = ctx.eval_poly_bits(poly_derivative(n).bits, a)
    dpv = ctx.eval_poly_bits(poly_derivative(d).bits, a)
    return ctx.elem(ctx.mul(npv, dv) ^ ctx.mul(nv, dpv))


@functools.lru_cache(maxsize=1)
def _ramification_table(g: RationalMap, ctx: FieldCtx) -> tuple:
    """(images, indices, critical): int64 arrays over the field points in
    bit order plus row 2^n for infinity (an image of 2^n is infinity), and
    (point, image, index) at each critical row.  Hasse order k is evaluated
    in discrete-log order, only where every order below it vanished.

    Products and quotients go through the log tables (n <= 16): g = N/D is
    exp[log N - log D] and g (D^k D) is exp[log g + log D^k D], one wrapping
    take each.  As log 0 = 0 = log 1, a zero N gives g = 0 and a zero
    factor a zero product by mask; a zero D is a pole row.  The row at the
    last log, x = g^-1, must equal its scalar image and index."""
    import numpy as np

    size, log = 1 << ctx.n, ctx.log_array()  # refuses n > 16 before the antilog table
    exp = ctx.exp_array()
    num, den = (np.array(p.exponents(), dtype=np.int64) for p in (g.reduced_num, g.reduced_den))
    todo = np.arange(len(exp))
    nvals, dvals = _sparse_values(exp, todo, num), _sparse_values(exp, todo, den)
    logs = log[nvals].astype(np.int64)  # int64: uint16 differences would wrap
    logs -= log[dvals]
    values = exp.take(logs, mode="wrap")
    values[nvals == 0] = 0
    images = np.empty(size + 1, dtype=np.int64)
    images[exp] = np.where(dvals == 0, size, values)
    indices = np.zeros(size + 1, dtype=np.int64)
    for k in range(1, g.degree + 1):
        dk = _sparse_values(exp, todo, _hasse(den, k))
        product = exp.take(logs[todo] + log[dk], mode="wrap")
        product[(values[todo] == 0) | (dk == 0)] = 0
        nk = _sparse_values(exp, todo, _hasse(num, k)) ^ product
        residual = np.where(dvals[todo] == 0, dk, nk)
        indices[exp[todo[residual != 0]]] = k
        todo = todo[residual == 0]
    last = int(exp[-1])
    image = g.eval_bits(ctx, last)
    if (int(images[last]), int(indices[last])) != (
            size if image is INFINITY else image, ramification_index(g, ctx.elem(last), ctx)):
        raise AssertionError("ramification closure mismatch")
    for row, point in ((0, ctx.zero()), (size, INFINITY)):
        image = g.eval(ctx, point)
        images[row] = size if image is INFINITY else image.bits
        indices[row] = ramification_index(g, point, ctx)
    images.flags.writeable = indices.flags.writeable = False
    rows = np.flatnonzero(indices > 1).tolist()
    proj = [INFINITY if c == size else ctx.elem(c) for c in rows + images[rows].tolist()]
    critical = tuple(zip(proj[:len(rows)], proj[len(rows):], indices[rows].tolist()))
    return images, indices, critical


def branch_points_of_map(g: RationalMap, ctx: FieldCtx) -> set:
    """Images of the critical points found among field points and infinity."""
    return {image for _, image, _ in _ramification_table(g, ctx)[2]}


def branch_points(spec: FamilySpec, ctx: FieldCtx) -> set:
    """Branch points of the reduced g over the given field."""
    return branch_points_of_map(g_map(spec), ctx)


def fiber_indices(g: RationalMap, beta: ProjPoint, ctx: FieldCtx) -> list[int]:
    """Sorted ramification indices over beta's preimages in the field plus
    infinity (the concrete part of the fiber)."""
    images, indices, _ = _ramification_table(g, ctx)
    code = 1 << ctx.n if beta is INFINITY else beta.bits if beta.ctx == ctx else -1
    return sorted(indices[images == code].tolist())


def ramification_profile(spec: FamilySpec, ctx: FieldCtx) -> dict:
    """Map each branch point to the sorted indices over its concrete fiber."""
    g = g_map(spec)
    # keys in the branch set's iteration order: gcheck's output follows it
    return {beta: fiber_indices(g, beta, ctx) for beta in branch_points_of_map(g, ctx)}


def ramification_report(spec: FamilySpec, ctx: FieldCtx) -> list[dict]:
    """JSON-renderable critical-point report: point, index, image."""
    return [{"point": "inf" if point is INFINITY else point.hex(), "index": e,
             "image": "inf" if image is INFINITY else image.hex()}
            for point, image, e in _ramification_table(g_map(spec), ctx)[2]]
