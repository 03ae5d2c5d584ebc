"""Exact arithmetic for polynomials over GF(2).

A polynomial is a nonnegative integer whose bit k holds the coefficient
of x^k, wrapped in an immutable :class:`BinPoly`.  Addition is xor,
multiplication is carryless (a word-level nibble-split product for small
operands, schoolbook shift-xor beyond).  The quadratic x^2 + x + 1 is
exposed as the constant ``Q``; its multiplicity inside a polynomial
drives most of the structure theory implemented by the other modules.
"""

from __future__ import annotations

__all__ = [
    "BinPoly",
    "Q",
    "poly_mul",
    "poly_gcd",
    "poly_divmod",
    "poly_derivative",
    "poly_reverse",
    "q_multiplicity",
    "poly_eval",
]

# Nibble-split carryless multiply is valid while every 4-bit output column
# accumulates fewer than 16 partial bits, i.e. one operand <= 60 bits.
_WORD_BITS = 48

_S0 = int("1" * 64, 16)
_S1 = _S0 << 1
_S2 = _S0 << 2
_S3 = _S0 << 3


def _clmul_word(a: int, b: int) -> int:
    # requires b.bit_length() <= _WORD_BITS; a may be arbitrary
    width = a.bit_length() + b.bit_length()
    s0 = _S0
    while s0.bit_length() < width:
        s0 |= s0 << 64
    s1, s2, s3 = s0 << 1, s0 << 2, s0 << 3
    a0, a1, a2, a3 = a & s0, a & s1, a & s2, a & s3
    b0, b1, b2, b3 = b & s0, b & s1, b & s2, b & s3
    r0 = (a0 * b0 ^ a1 * b3 ^ a2 * b2 ^ a3 * b1) & s0
    r1 = (a0 * b1 ^ a1 * b0 ^ a2 * b3 ^ a3 * b2) & s1
    r2 = (a0 * b2 ^ a1 * b1 ^ a2 * b0 ^ a3 * b3) & s2
    r3 = (a0 * b3 ^ a1 * b2 ^ a2 * b1 ^ a3 * b0) & s3
    return r0 | r1 | r2 | r3


def _mul(a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    if a.bit_length() < b.bit_length():
        a, b = b, a
    if b.bit_length() <= _WORD_BITS:
        return _clmul_word(a, b)
    c = 0
    while b:
        if b & 1:
            c ^= a
        a <<= 1
        b >>= 1
    return c


def _divmod(a: int, b: int) -> tuple[int, int]:
    if b == 0:
        raise ZeroDivisionError("division by the zero polynomial")
    db = b.bit_length()
    q = 0
    while a.bit_length() >= db:
        shift = a.bit_length() - db
        a ^= b << shift
        q |= 1 << shift
    return q, a


def _gcd(a: int, b: int) -> int:
    # Euclid on remainders alone: no quotient is built
    while b:
        db = b.bit_length()
        while (da := a.bit_length()) >= db:
            a ^= b << (da - db)
        a, b = b, a
    return a


class BinPoly:
    """Immutable polynomial over GF(2) with bit-packed coefficients."""

    __slots__ = ("bits",)

    def __init__(self, bits: int = 0):
        if bits < 0:
            raise ValueError("coefficient mask must be nonnegative")
        object.__setattr__(self, "bits", bits)

    def __setattr__(self, name, value):
        raise AttributeError("BinPoly is immutable")

    @classmethod
    def from_exponents(cls, exponents) -> "BinPoly":
        """Build a polynomial by xor-accumulating x^e terms (duplicates cancel)."""
        bits = 0
        for e in exponents:
            if e < 0:
                raise ValueError("exponents must be nonnegative")
            bits ^= 1 << e
        return cls(bits)

    @classmethod
    def from_text(cls, text: str) -> "BinPoly":
        """Parse the sorted-exponent text form, e.g. ``"x^10+x^9+x^3+x+1"``."""
        text = "".join(text.split())
        if text == "0":
            return cls(0)
        bits = 0
        for term in text.split("+"):
            if term == "1":
                e = 0
            elif term == "x":
                e = 1
            elif term.startswith("x^"):
                e = int(term[2:])
            else:
                raise ValueError(f"malformed term {term!r}")
            if bits >> e & 1:
                raise ValueError(f"repeated term {term!r}")
            bits |= 1 << e
        return cls(bits)

    @classmethod
    def from_hex(cls, text: str) -> "BinPoly":
        """Parse the hex-packed little-endian coefficient string."""
        return cls(int.from_bytes(bytes.fromhex(text), "little"))

    @property
    def degree(self):
        """Degree as an int, or None for the zero polynomial."""
        return self.bits.bit_length() - 1 if self.bits else None

    def exponents(self) -> tuple[int, ...]:
        """Exponents with coefficient 1, ascending."""
        return tuple(k for k in range(self.bits.bit_length()) if self.bits >> k & 1)

    def to_text(self) -> str:
        if self.bits == 0:
            return "0"
        terms = []
        for e in range(self.bits.bit_length() - 1, -1, -1):
            if self.bits >> e & 1:
                terms.append("1" if e == 0 else "x" if e == 1 else f"x^{e}")
        return "+".join(terms)

    def to_hex(self) -> str:
        nbytes = max(1, (self.bits.bit_length() + 7) // 8)
        return self.bits.to_bytes(nbytes, "little").hex()

    def __add__(self, other):
        return BinPoly(self.bits ^ _coerce(other))

    __radd__ = __add__
    __sub__ = __add__
    __rsub__ = __add__

    def __mul__(self, other):
        return BinPoly(_mul(self.bits, _coerce(other)))

    __rmul__ = __mul__

    def __divmod__(self, other):
        q, r = _divmod(self.bits, _coerce(other))
        return BinPoly(q), BinPoly(r)

    def __floordiv__(self, other):
        return BinPoly(_divmod(self.bits, _coerce(other))[0])

    def __mod__(self, other):
        return BinPoly(_divmod(self.bits, _coerce(other))[1])

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative power of a polynomial")
        r, base = 1, self.bits
        while e:
            if e & 1:
                r = _mul(r, base)
            base = _mul(base, base)
            e >>= 1
        return BinPoly(r)

    def __lshift__(self, k: int):
        return BinPoly(self.bits << k)

    def __eq__(self, other):
        if isinstance(other, BinPoly):
            return self.bits == other.bits
        if isinstance(other, int):
            return self.bits == other
        return NotImplemented

    def __hash__(self):
        return hash((BinPoly, self.bits))

    def __bool__(self):
        return bool(self.bits)

    def __repr__(self):
        return self.to_text()


def _coerce(p) -> int:
    if isinstance(p, BinPoly):
        return p.bits
    if isinstance(p, int):
        if p < 0:
            raise ValueError("coefficient mask must be nonnegative")
        return p
    raise TypeError(f"expected BinPoly or int, got {type(p).__name__}")


Q = BinPoly(0b111)


def poly_mul(a: BinPoly, b: BinPoly) -> BinPoly:
    """Exact product in GF(2)[x]."""
    return BinPoly(_mul(_coerce(a), _coerce(b)))


def poly_divmod(a: BinPoly, b: BinPoly) -> tuple[BinPoly, BinPoly]:
    """Quotient and remainder; b must be nonzero."""
    q, r = _divmod(_coerce(a), _coerce(b))
    return BinPoly(q), BinPoly(r)


def poly_gcd(a: BinPoly, b: BinPoly) -> BinPoly:
    """Greatest common divisor (monic automatically over GF(2)).

    gcd(a, 0) == a; rejects the all-zero input pair.
    """
    av, bv = _coerce(a), _coerce(b)
    if av == 0 and bv == 0:
        raise ValueError("gcd(0, 0) is undefined")
    return BinPoly(_gcd(av, bv))


def poly_derivative(a: BinPoly) -> BinPoly:
    """Formal derivative in characteristic 2: x^(2k) -> 0, x^(2k+1) -> x^(2k)."""
    bits = _coerce(a)
    return BinPoly((bits >> 1) & int("5" * (bits.bit_length() // 4 + 1), 16))


def poly_reverse(a: BinPoly, k: int) -> BinPoly:
    """Return x^k * a(1/x); exponent e maps to k - e.  Requires k >= deg a."""
    bits = _coerce(a)
    if bits == 0:
        return BinPoly(0)
    if k < bits.bit_length() - 1:
        raise ValueError(f"k={k} is below deg a={bits.bit_length() - 1}")
    return BinPoly(int(f"{bits:0{k + 1}b}"[::-1], 2))


def q_multiplicity(a: BinPoly) -> int:
    """Largest r with Q(x)^r dividing a, by repeated exact division."""
    bits = _coerce(a)
    if bits == 0:
        raise ValueError("the zero polynomial has unbounded Q-multiplicity")
    r = 0
    while True:
        quot, rem = _divmod(bits, Q.bits)
        if rem:
            return r
        bits = quot
        r += 1


def poly_eval(a: BinPoly, x):
    """Horner evaluation of a at a field element, inside that element's field."""
    ctx = x.ctx
    return ctx.elem(ctx.eval_poly_bits(_coerce(a), x.bits))
