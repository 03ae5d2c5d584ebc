import functools
import random

import numpy as np
import pytest
from hypothesis import settings

from pentaperm import field, oracle
from pentaperm.families import CLASSES, FamilySpec
from pentaperm.intarith import prime_factors

# property tests draw the same examples on every run, with no time limit
settings.register_profile("derandomized", derandomize=True, deadline=None)
settings.load_profile("derandomized")


def all_specs(i_max, j_max=None):
    j_max = i_max if j_max is None else j_max
    return [
        FamilySpec(cls, i, j)
        for cls in CLASSES
        for i in range(1, i_max + 1)
        for j in range(1, j_max + 1)
    ]


@pytest.fixture
def rng():
    return random.Random(0x5EED)


def f_exponent_pairs(spec):
    """The paper's five (a, b) pairs of the family member, meaning x^(a*q+b),
    sorted descending: the reference for FamilySpec.shape().  Pairs repeat
    when i = j; repeated monomials cancel in the field."""
    q1, q2, t = spec.q1, spec.q2, spec.t
    if spec.cls == "A":
        pairs = [(q1 + q2, 1), (q1 + 1, q2), (q2 + 1, q1), (1, q1 + q2), (0, t)]
    elif spec.cls == "B":
        pairs = [(q1 + q2, 1), (q1 + 1, q2), (q1, q2 + 1), (q2 + 1, q1), (0, t)]
    else:
        pairs = [(t, 0), (q1, q2 + 1), (q2, q1 + 1), (1, q1 + q2), (0, t)]
    return tuple(sorted(pairs, reverse=True))


def power_sum_table(ctx, exponents):
    """xor of x^e over the positive exponents at every x, indexed by x's bit mask."""
    return oracle._power_sum_array(ctx, exponents).tolist()


def horner(ctx, poly_bits, x):
    """Horner evaluation of a GF(2)[x] polynomial, given as its bit mask, at the
    element x: one multiply per bit below the degree.  The reference for
    FieldCtx.power_sum."""
    acc = 0
    for k in range(poly_bits.bit_length() - 1, -1, -1):
        acc = ctx.mul(acc, x) ^ (poly_bits >> k & 1)
    return acc


def unit_circle(ctx):
    """All q + 1 solutions of x^(q+1) = 1 in GF(q^2), as elements in bit-ascending order."""
    return [ctx.elem(b) for b in sorted(ctx._subgroup((1 << ctx.subfield_m) + 1).tolist())]


# -- array multiply and inverse: references for the ramification and circle scans --

def mul_array(ctx, a, b):
    """Elementwise product of 1-d integer arrays, as int64, in field._CHUNK
    slices: a is doubled and reduced at each of the n bits of b, so it stays < 2^41."""
    chunk = field._CHUNK
    out = np.zeros(len(a), dtype=np.int64)
    for lo in range(0, len(a), chunk):
        x, y = a[lo:lo + chunk].astype(np.int64), b[lo:lo + chunk]
        acc = out[lo:lo + chunk]  # a view: the steps accumulate into out
        for k in range(ctx.n):
            acc ^= x & -(y >> k & 1)
            x <<= 1
            x ^= (x >> ctx.n) * ctx.modulus
    return out


def inv_array(ctx, a):
    """Elementwise inverse (0 -> 0) as int64, in field._CHUNK slices: for n = d k,
    a^-1 = a^(r-1) N^-1 with r = (2^n - 1)/(2^d - 1), the norm N = a^r inverted
    in GF(2^d)* (prime n: d = 1, N = 1), and a^(r-1) = beta_(k-1)^(2^d), where
    beta_j = a^((2^(dj) - 1)/(2^d - 1)) walks the bits of k - 1:
    beta_2j = beta_j^(2^(dj)) beta_j, beta_(j+1) = beta_j^(2^d) a."""
    chunk = field._CHUNK
    d = ctx.n // min(prime_factors(ctx.n), default=1)
    norm_inverse = subfield_inverse(ctx, d)  # before out: less heap churn
    out = np.empty(len(a), dtype=np.int64)
    for lo in range(0, len(a), chunk):
        x = a[lo:lo + chunk]
        beta, j = x, 1
        for bit in bin(ctx.n // d - 1)[3:]:
            beta = mul_array(ctx, ctx._squarings(d * j).apply(beta), beta)
            j *= 2
            if bit == "1":
                beta = mul_array(ctx, ctx._squarings(d).apply(beta), x)
                j += 1
        beta = ctx._squarings(d).apply(beta)
        out[lo:lo + chunk] = mul_array(ctx, beta, norm_inverse(mul_array(ctx, x, beta)))
    return out


@functools.lru_cache(maxsize=1)
def subfield_inverse(ctx, d):
    """x -> x^-1 on arrays of elements of GF(2^d)* inside ctx, by log lookup
    (one per process).  Its tables are the cyclic table [h^0, ..., h^(s-1)]
    and the keys value << d | log, sorted (< 2^60, as n <= 40)."""
    table = ctx._subgroup((1 << d) - 1)
    keys = table << d
    keys |= np.arange(len(table))
    keys.sort()

    def inverse(x):
        # every nonzero x must be found; 0 (the norm of a = 0) gets 1
        key = keys[np.minimum(np.searchsorted(keys, x << d), len(keys) - 1)]
        if not np.array_equal(key >> d == x, x != 0):
            raise AssertionError("norm missing from the subfield table")
        return table[-(key & len(table)) % len(table)]
    return inverse
