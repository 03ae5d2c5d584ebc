"""Deterministic binary fields GF(2^n); at even n = 2m, with the subfield GF(2^m).

Every context uses the canonical modulus for its degree: the irreducible
polynomial whose coefficient bitstring, read as an integer, is least.  A
frozen table covers every degree make_field accepts, 1..N_CAP = 40, so two
processes always agree on element representations.  Elements are residue
classes stored as plain bit masks; the FieldElem wrapper carries a context
reference and refuses arithmetic with elements of another degree.  There is
one context per degree: make_field(2m, m) is make_field(2m).

Every GF(2)-linear map of the field is one kernel, LinearMap: the images
of the n basis bits, folded into lookup tables of up to _APPLY_BITS input
bits that scalars and numpy arrays both read, and XORed together.
Multiplication by a constant (FieldCtx._times), the fold that reduces a
carryless product, the Frobenius x -> x^q (FieldCtx.frobenius) and the
linearized binomials a x + b x^q (FieldCtx.linearized) are all instances.
Gaussian elimination on the image bit masks gives a map's rank, its first
dependent basis bit, and a preimage of any point in its image.

Every list of powers of one element comes from FieldCtx.powers, which
doubles a numpy array by multiplying its first half by a constant (the
same constant multiply advances oracle's sweep blocks).  The antilog
table, and oracle's unit circle and subfield multiplicative group, are
cyclic subgroups from FieldCtx._subgroup, which checks their generator's
order.  For n <= 16 a context also keeps the antilog table, and the log
table derived from it, as Python lists for scalar multiplication, and the
log table as a uint16 array (log_array) for oracle's one-block sweeps,
which multiply arrays of elements by a constant by adding logs; larger
fields multiply via carryless word products and the fold map.
"""

from __future__ import annotations

from .gf2poly import BinPoly, _clmul_word
from .intarith import prime_factors

__all__ = [
    "N_CAP",
    "LOG_TABLE_MAX_N",
    "FieldCtx",
    "FieldElem",
    "LinearMap",
    "make_field",
    "omega",
]

N_CAP = 40
LOG_TABLE_MAX_N = 16
# Entries per numpy temporary in whole-field loops: a slice of a doubling step
# in FieldCtx.powers, a sweep block in oracle.  A field with at most _CHUNK
# nonzero points is one oracle block and reads the log table, which only
# n <= LOG_TABLE_MAX_N keeps, so this is at most 1 << LOG_TABLE_MAX_N.
_CHUNK = 1 << 16
_APPLY_BITS = 12  # input bits per LinearMap table: 32 KB, about one L1d

# Least irreducible of each degree, as a coefficient bitmask (leading bit set).
# Regenerated and checked by the test suite; make_field refuses n > N_CAP = 40.
CANONICAL_MODULUS = {
    1: 0x2, 2: 0x7, 3: 0xB, 4: 0x13, 5: 0x25, 6: 0x43, 7: 0x83, 8: 0x11B,
    9: 0x203, 10: 0x409, 11: 0x805, 12: 0x1009, 13: 0x201B, 14: 0x4021,
    15: 0x8003, 16: 0x1002B, 17: 0x20009, 18: 0x40009, 19: 0x80027,
    20: 0x100009, 21: 0x200005, 22: 0x400003, 23: 0x800021, 24: 0x100001B,
    25: 0x2000009, 26: 0x400001B, 27: 0x8000027, 28: 0x10000003,
    29: 0x20000005, 30: 0x40000003, 31: 0x80000009, 32: 0x10000008D,
    33: 0x20000004B, 34: 0x40000001B, 35: 0x800000005, 36: 0x1000000035,
    37: 0x200000003F, 38: 0x4000000063, 39: 0x8000000011, 40: 0x10000000039,
}


def _reduce_by_pivots(pivots, y: int, src: int) -> tuple[int, int]:
    # xor pivots into y, and their sources into src, while y's leading bit has one
    while y and (pivot := pivots.get(y.bit_length() - 1)):
        y, src = y ^ pivot[0], src ^ pivot[1]
    return y, src


class LinearMap:
    """A GF(2)-linear map on bit masks, given by the images of the basis bits.

    x maps to the xor of images[k] over the set bits k of x.  The images are
    folded, on first use, into the fewest equal-width int64 tables of at most
    _APPLY_BITS input bits (two at n = 24), tab[b] being the image of b << lo;
    a scalar looks up one entry per table, through a memoryview of it, and
    a numpy array gathers from them.  Inputs must have fewer than
    len(images) bits, and calls need images below 2^63; rank, preimage and
    first_dependent_bit take any width.
    """

    __slots__ = ("images", "_tables", "_views", "_reduced")

    def __init__(self, images):
        self.images = tuple(images)
        self._tables = self._views = self._reduced = None

    def _gather_tables(self):
        if self._tables is None:
            import numpy as np

            n = len(self.images)
            width = -(-n // -(-n // _APPLY_BITS))
            self._tables = [(lo, np.zeros(1 << min(width, n - lo), dtype=np.int64))
                            for lo in range(0, n, width)]
            for lo, tab in self._tables:  # doubling: tab[b] is the image of b << lo
                for k, img in enumerate(self.images[lo:lo + width]):
                    np.bitwise_xor(tab[:1 << k], img, out=tab[1 << k:2 << k])
        return self._tables

    def __call__(self, x: int) -> int:
        if self._views is None:  # scalars read the same buffers as Python ints
            self._views = [(lo, len(tab) - 1, memoryview(tab)) for lo, tab in self._gather_tables()]
        out = 0
        for lo, mask, view in self._views:
            out ^= view[x >> lo & mask]
        return out

    def __reduce__(self):  # memoryviews do not pickle: a copy rebuilds its tables
        return LinearMap, (self.images,)

    def apply(self, src, out=None, scratch=None):
        """The map on a numpy integer array as int64, written into out (len(src) entries,
        apart from src) if given; scratch (int64, >= len(src) entries) takes the gathers."""
        import numpy as np

        out = np.empty(len(src), dtype=np.int64) if out is None else out
        idx = np.empty(len(src), dtype=np.int64) if scratch is None else scratch[:len(src)]
        # indices are masked to each table: mode="clip" never clips, but lets take write in place
        (_, first), *rest = self._gather_tables()
        np.take(first, np.bitwise_and(src, len(first) - 1, out=out), out=out, mode="clip")
        for lo, tab in rest:
            np.bitwise_and(np.right_shift(src, lo, out=idx), len(tab) - 1, out=idx)
            out ^= np.take(tab, idx, out=idx, mode="clip")
        return out

    def _echelon(self):
        # Gaussian elimination on the images in bit order, once per map:
        # pivots {leading bit: (image, source)} with self(source) = image,
        # and the first k whose image lies in the span of the images before it
        if self._reduced is None:
            pivots: dict[int, tuple[int, int]] = {}
            first_dependent = None
            for k, img in enumerate(self.images):
                img, src = _reduce_by_pivots(pivots, img, 1 << k)
                if img:
                    pivots[img.bit_length() - 1] = (img, src)
                elif first_dependent is None:
                    first_dependent = k
            self._reduced = pivots, first_dependent
        return self._reduced

    def rank(self) -> int:
        return len(self._echelon()[0])

    def first_dependent_bit(self) -> int | None:
        """Least k with images[k] in the span of images[:k], or None if the
        map is injective.  Then 2^k is the least x whose image is the image
        of some y < x (x ^ y is in the kernel, with leading bit k)."""
        return self._echelon()[1]

    def preimage(self, y: int) -> int | None:
        """An x with self(x) = y, or None when y is outside the image."""
        y, src = _reduce_by_pivots(self._echelon()[0], y, 0)
        return None if y else src


class FieldCtx:
    """Immutable description of GF(2^n), with subfield_m = n/2 at even n and
    None at odd n; build via :func:`make_field`."""

    __slots__ = (
        "n", "modulus", "order", "subfield_m",
        "_exp", "_log", "_gen", "_fold", "_exp_np", "_log_np", "_squarings_cache",
    )

    def __init__(self, n: int, modulus: int):
        self.n = n
        self.modulus = modulus
        self.order = (1 << n) - 1
        self.subfield_m = None if n % 2 else n // 2
        self._exp = self._log = self._gen = self._exp_np = self._log_np = None
        self._squarings_cache = {}
        # the high part h of a product stands for h * x^n = h * (x^n mod modulus)
        self._fold = self._times(modulus ^ (1 << n))
        if n <= LOG_TABLE_MAX_N:
            self._build_tables()

    # -- raw bit-mask arithmetic ------------------------------------------

    def mul(self, a: int, b: int) -> int:
        if self._exp is not None:
            if a == 0 or b == 0:
                return 0
            return self._exp[self._log[a] + self._log[b]]
        return self._reduce(_clmul_word(a, b))

    def sqr(self, a: int) -> int:
        return self.mul(a, a)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inversion of zero field element")
        if self._exp is not None:
            k = self._log[a]
            return self._exp[self.order - k] if k else 1
        return self.pow(a, self.order - 1)

    def pow(self, a: int, e: int) -> int:
        """a^e with e reduced mod 2^n - 1 for a != 0; 0^0 = 1, 0^e = 0."""
        if a == 0:
            return 1 if e == 0 else 0
        if self._exp is not None:
            return self._exp[self._log[a] * (e % self.order) % self.order]
        e %= self.order
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
        return r

    def frob_q(self, a: int) -> int:
        return self.frobenius()(a)

    def power_sum(self, x: int, exponents) -> int:
        """xor of x^e over the exponents (0^0 = 1): the value at x of the
        GF(2)[x] polynomial with those exponents, one pow per term."""
        acc = 0
        for e in exponents:
            acc ^= self.pow(x, e)
        return acc

    def generator(self) -> int:
        """Smallest bit mask generating the multiplicative group."""
        if self._gen is None:
            if self.order == 1:
                self._gen = 1
            else:
                ps = prime_factors(self.order)
                g = 2
                while any(self.pow(g, self.order // p) == 1 for p in ps):
                    g += 1
                self._gen = g
        return self._gen

    def powers(self, base: int, count: int, head=(1,)):
        """out[k] = head[k mod L] * base^(k // L) for k < count, L = len(head),
        as a numpy int64 array: [base^0, ..., base^(count-1)] by default.

        Built by doubling: out[D:2D] = out[:D] * base^(D/L), one constant
        multiply (_times) per step, written into out in slices of _CHUNK
        entries with one scratch array.
        """
        import numpy as np

        out = np.empty(count, dtype=np.int64)
        step, done = base, min(len(head), count)
        out[:done] = head[:done]
        scratch = np.empty(min(count, _CHUNK), dtype=np.int64)
        while done < count:
            size = min(done, count - done)
            times = self._times(step)
            for lo in range(0, size, _CHUNK):
                hi = min(lo + _CHUNK, size)
                times.apply(out[lo:hi], out=out[done + lo:done + hi], scratch=scratch)
            step = self.mul(step, step)
            done += size
        return out

    # -- GF(2)-linear maps ---------------------------------------------------

    def _times(self, c: int) -> "LinearMap":
        """Multiplication by c: the images of the basis bits are c x^k."""
        images = []
        for _ in range(self.n):
            images.append(c)
            c <<= 1
            if c >> self.n:
                c ^= self.modulus
        return LinearMap(images)

    def _squarings(self, k: int) -> "LinearMap":
        """x -> x^(2^k), cached per degree: x^j maps to (x^(2^k))^j."""
        if k not in self._squarings_cache:
            c = self.pow(2 & self.order, 1 << k)  # the element x is 0 in GF(2)
            self._squarings_cache[k] = LinearMap(self.powers(c, self.n).tolist())
        return self._squarings_cache[k]

    def frobenius(self) -> "LinearMap":
        """x -> x^q over the subfield GF(q), q = 2^m."""
        if self.subfield_m is None:
            raise ValueError("context has no subfield structure")
        return self._squarings(self.subfield_m)

    def linearized(self, a: int, b: int) -> "LinearMap":
        """The linearized binomial x -> a x + b x^q."""
        frob = self.frobenius().images
        return LinearMap(self.mul(a, 1 << k) ^ self.mul(b, frob[k]) for k in range(self.n))

    # -- element wrappers --------------------------------------------------

    def elem(self, bits: int) -> "FieldElem":
        if not 0 <= bits <= self.order:
            raise ValueError(f"bit mask {bits:#x} outside GF(2^{self.n})")
        return FieldElem(self, bits)

    def zero(self) -> "FieldElem":
        return FieldElem(self, 0)

    def one(self) -> "FieldElem":
        return FieldElem(self, 1)

    # -- internals ----------------------------------------------------------

    def _reduce(self, p: int) -> int:
        return p & self.order ^ self._fold(p >> self.n)

    def _build_tables(self):
        import numpy as np

        exp = self.exp_array()
        log = np.zeros(1 << self.n, dtype=np.uint16)
        log[exp] = np.arange(self.order)
        vals = exp.tolist()
        self._exp = vals * 2 + vals[:1]
        self._log, self._log_np = log.tolist(), log

    def exp_array(self):
        """Antilog table [g^0, ..., g^(order-1)] as a numpy int64 array."""
        if self._exp_np is None:
            self._exp_np = self._subgroup(self.order)
        return self._exp_np

    def log_array(self):
        """Log table of an n <= 16 context as a numpy uint16 array of 2^n
        entries: log[g^k] = k, and log[0] = 0."""
        if self._log_np is None:
            raise ValueError(f"no log table at n = {self.n} > {LOG_TABLE_MAX_N}")
        return self._log_np

    def _subgroup(self, size: int):
        """The multiplicative subgroup of the given order (a divisor of
        2^n - 1) in cyclic order [h^0, ..., h^(size-1)], h = g^(order/size),
        as a numpy int64 array."""
        import numpy as np

        h = self.pow(self.generator(), self.order // size)
        arr = self.powers(h, size)
        # h has order size: 1 only at k = 0 (closure alone holds for any h^size = 1)
        if int(np.count_nonzero(arr == 1)) != 1 or self.mul(int(arr[-1]), h) != 1:
            raise AssertionError("generator order mismatch")
        return arr

    def __eq__(self, other):
        if isinstance(other, FieldCtx):
            return (self.n, self.modulus) == (other.n, other.modulus)
        return NotImplemented

    def __hash__(self):
        return hash((self.n, self.modulus))

    def __repr__(self):
        return f"FieldCtx(n={self.n}, modulus={BinPoly(self.modulus)!r})"


class FieldElem:
    """Element of a FieldCtx: a residue-class bit mask plus its context."""

    __slots__ = ("ctx", "bits")

    def __init__(self, ctx: FieldCtx, bits: int):
        self.ctx = ctx
        self.bits = bits

    def _check(self, other) -> int:
        if not isinstance(other, FieldElem):
            raise TypeError(f"expected FieldElem, got {type(other).__name__}")
        if other.ctx is not self.ctx and other.ctx != self.ctx:
            raise ValueError("field context mismatch")
        return other.bits

    def __add__(self, other):
        return FieldElem(self.ctx, self.bits ^ self._check(other))

    __sub__ = __add__

    def __mul__(self, other):
        return FieldElem(self.ctx, self.ctx.mul(self.bits, self._check(other)))

    def __truediv__(self, other):
        return FieldElem(self.ctx, self.ctx.mul(self.bits, self.ctx.inv(self._check(other))))

    def __pow__(self, e: int):
        return FieldElem(self.ctx, self.ctx.pow(self.bits, e))

    def inverse(self) -> "FieldElem":
        return FieldElem(self.ctx, self.ctx.inv(self.bits))

    def __eq__(self, other):
        if isinstance(other, FieldElem):
            return self.bits == other.bits and self.ctx == other.ctx
        return NotImplemented

    def __hash__(self):
        return hash((self.ctx.n, self.ctx.modulus, self.bits))

    def __bool__(self):
        return bool(self.bits)

    def hex(self) -> str:
        """Text form: field size prefix plus the representative's hex mask."""
        return f"gf{1 << self.ctx.n}:{self.bits:#x}"

    def __repr__(self):
        return self.hex()


_CTX_CACHE: dict[int, FieldCtx] = {}


def make_field(n: int, subfield_m: int | None = None) -> FieldCtx:
    """The context of GF(2^n) with the canonical modulus of degree n (cached).

    There is one context per degree.  At even n it carries the subfield
    GF(2^(n/2)) and its Frobenius x -> x^(2^(n/2)), which odd-degree
    contexts refuse.  subfield_m, if given, must equal n/2.
    """
    if not 1 <= n <= N_CAP:
        raise ValueError(f"extension degree {n} outside [1, {N_CAP}]")
    if subfield_m is not None and n != 2 * subfield_m:
        raise ValueError(f"subfield_m={subfield_m} inconsistent with n={n}")
    ctx = _CTX_CACHE.get(n)
    if ctx is None:
        ctx = _CTX_CACHE[n] = FieldCtx(n, CANONICAL_MODULUS[n])
    return ctx


def omega(ctx: FieldCtx) -> FieldElem:
    """The order-3 root of x^2 + x + 1 whose bit mask is smaller.

    Requires n even (so that 3 divides 2^n - 1).
    """
    if ctx.n % 2:
        raise ValueError("omega needs an even extension degree")
    w = ctx.pow(ctx.generator(), ctx.order // 3)
    return ctx.elem(min(w, ctx.sqr(w)))
