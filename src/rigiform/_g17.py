"""'%.17g' text of float64 arrays without a Python call per value.

`sim.write_csv` imports this module on its first write, so importing
rigiform does not compile it.

A finite nonzero x with decimal exponent k (10**k <= |x| < 10**(k+1))
prints the 17 digits D = round(|x| * 10**(16-k)), trailing zeros dropped,
either in fixed form (-4 <= k <= 16) or as d.ddd followed by e+kk.  D is
read off y = |x| * 10**(16-k) computed in WIDE (correctly rounded powers
of ten, one more rounding in the product), with k from floor(log10|x|);
integers decide its rounding where 10**(16-k) is exact (-11 <= k <= 13
for a 64-bit long double).  Python's '%.17g' prints the value where, at
other k, the error bound of y, from np.finfo(WIDE), cannot rule out that
y lies on the other side of a half-integer, where k came out one off or
D carries into the next exponent (D outside [1e16, 1e17)), and for inf
and nan; where long double is plain double, that is every value.

Each value's text is assembled in a 32-byte slot, and the nulls left in
the slots are deleted at the end:
    byte 0 sign | 1-5 "0.000" prefix | 6 d0 | 7 dot | 8-23 d1..d16 |
    24-28 exponent | 29 delimiter | 30-31 unused
Bytes 0-7 are a head by k (prefix, '0' and a dot, dropped when d1..d16
are all zero) plus d0 and the sign, 8-23 the quads d1..d4, ..., d13..d16
from a table of "%04d" texts, read with trailing zeros as nulls for the
last nonzero quad and the zero quads after it, and 24-31 a tail by k.  A
fixed form with k >= 1 puts d1..dk in front of its dot: bytes 7-23 of
those few slots are rewritten from the full quads.
"""

from __future__ import annotations

import functools

import numpy as np

WIDE = np.longdouble  # 64-bit significand on x86-64 Linux, plain double on some platforms
K_MIN, K_MAX = -324, 308  # decimal exponents of nonzero finite doubles
FIXED_MIN, FIXED_MAX = -4, 16
STRIPPED = 10000  # quads[STRIPPED + q] is quads[q] with its trailing zeros as nulls
SLOT = np.dtype([("head", "<u8"), ("digits", "V16"), ("tail", "<u8")])


@functools.cache
def tables():
    """The lookup tables of text, built on its first call.  Those by
    exponent have row p = K_MAX - k, the row of 10**(16-k) in powers."""
    wide = np.finfo(WIDE)
    p = np.arange(16 - K_MAX, 17 - K_MIN)  # 16 - k for every exponent k
    with np.errstate(over="ignore"):  # 1e340 is inf where long double is double
        powers = np.array([f"1e{i}" for i in p], dtype=WIDE)
    # relative error bound of y: one rounding where 10**p is exact, two
    # elsewhere, and 1% for the rounding of the bound itself
    u = float(wide.eps) / 2
    exact = (p >= 0) & (p * np.log2(5) < wide.nmant + 1)
    rel_error = np.where(exact, u, 2 * u + u * u) * 1.01
    # 5**p where _round settles D with integers (3 <= p <= 27, 10**p exact, WIDE of 58+ bits)
    settles = exact & (p >= 3) & (p <= 27) & (wide.nmant >= 57)
    fives = np.array([5 ** i if s else 0 for i, s in zip(p.tolist(), settles.tolist())], np.uint64)
    # heads 2p and 2p + 1 have digits after d0 and none; tails p are bytes 24-31
    heads = tails = b""
    for k in range(K_MAX, K_MIN - 1, -1):
        fixed = FIXED_MIN <= k <= FIXED_MAX
        prefix = b"0." + b"0" * (-k - 1) if fixed and k < 0 else b""
        heads += b"\0" + prefix.ljust(5, b"\0") + (b"0\0" if prefix else b"0.")
        heads += b"\0" + prefix.ljust(5, b"\0") + b"0\0"
        tails += (b"" if fixed else b"e%+03d" % k).ljust(5, b"\0") + b",\0\0"
    # "%04d" of 0..9999 as 4-byte words, then the same with trailing zeros as nulls
    digits = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    kept = np.cumsum(digits[:, ::-1], axis=1)[:, ::-1] > 0
    chars = (digits + ord("0")).astype(np.uint8)
    quads = np.concatenate([chars, chars * kept]).view("<u4").ravel()
    arrays = (powers, rel_error, fives, *(np.frombuffer(b, "<u8") for b in (heads, tails)), quads)
    for array in arrays:
        array.setflags(write=False)  # every write shares them
    return arrays


def _round(values, powers, rel_error, fives):
    """(p, D, slow) of each value: its row p = K_MAX - k, its 17 digits D,
    and whether Python prints it; D is 0 for zero and for those."""
    finite = np.isfinite(values)
    zero = values == 0
    ax = np.abs(values)
    ax[zero | ~finite] = 1.0
    p = (K_MAX - np.floor(np.log10(ax))).astype(np.intp)
    with np.errstate(invalid="ignore", over="ignore"):
        y = ax.astype(powers.dtype)
        y *= np.take(powers, p)
        whole = y.astype(np.int64)
    # Where 10**q, q = 16 - k, is exact, y is |x| 10**q rounded once, and WIDE
    # holds the half-integers around it: D is whole + 1 where |x| 10**q - whole
    # - 1/2 = (m 5**q - (2 whole + 1) 2**s) 2**(e+q), for |x| = m 2**e and
    # s = -1-e-q in [1, 61], is positive, or zero and whole odd.  Those terms
    # differ by less than 2**63, so their difference mod 2**64 is exact.
    five = np.take(fives, p)
    bits = ax.view(np.uint64)
    s = (np.uint64(1058 + K_MAX) - p.view(np.uint64) - (bits >> np.uint64(52))) & np.uint64(63)
    side = ((bits & np.uint64(2 ** 52 - 1)) | np.uint64(2 ** 52)) * five
    side -= (2 * whole + 1).view(np.uint64) << s
    digits = whole - (-(side.view(np.int64) + (whole & 1)) >> 63)
    slow = (whole < 10 ** 16) | ~finite  # k came out one too high
    rest = np.flatnonzero(five == 0)
    if rest.size:  # D off y, where its error bound keeps it on its side of a half-integer
        half = (y[rest] - whole[rest]).astype(np.float64) - 0.5  # exact: y, whole share a binade
        digits[rest] = whole[rest] + (half > 0)
        slow[rest] |= ~(np.abs(half) > whole[rest] * np.take(rel_error, p[rest]))
    # D >= 1e17 needs |x| within 5e-18 of 10**(k+1), where log10 gives k + 1: no double
    # within 20000 steps of a power of ten reaches it, so it guards a log10 that errs low
    slow |= digits >= 10 ** 17
    np.copyto(digits, 0, where=slow | zero)  # zero prints as d0 alone; slow slots are overwritten
    return p, digits, slow


def _split(digits):
    """(d0, rows, bare) of 17-digit integers: the quad table rows of d1..d4,
    ..., d13..d16 as four consecutive uint32, and whether all are 0000."""
    # d1..d8 and d9..d16 as the 32-bit halves of a word, each of those as two
    high = digits // 10 ** 8
    pairs = (digits - high * 10 ** 8) << 32
    lead = high // 10 ** 8
    pairs += high - lead * 10 ** 8
    halves = pairs.view(np.uint32).astype(np.uint64)
    tops = halves // 10 ** 4
    quad = ((halves << 32) - tops * (10 ** 4 << 32) + tops).view(np.uint32)
    empty = (quad == 0).view("<u4")  # byte j: quad j is 0000
    after = (empty >> 8) | 0x01000000  # byte j: so is every quad after quad j
    after &= (after >> 8) | 0x01000000
    after &= (after >> 16) | 0x01010000
    rows = after.view(np.uint8) * np.uint32(STRIPPED)  # those quads are read stripped
    rows += quad
    return lead, rows, empty == 0x01010101


def text(values, columns, first):
    """The float64 vector values as '%.17g' texts, each followed by ',' or,
    when (first + its index) % columns is the last column, by a newline."""
    powers, rel_error, fives, heads, tails, quads = tables()
    n = values.size
    p, digits, slow = _round(values, powers, rel_error, fives)
    lead, rows, bare = _split(digits)
    slots = np.empty(n, SLOT)
    slots["digits"] = np.take(quads, rows).view("V16")
    head = np.take(heads, 2 * p + bare)
    head += (lead << 48).view(np.uint64)
    head |= (values.view(np.uint64) >> 63) * np.uint64(ord("-"))
    slots["head"] = head
    slots["tail"] = np.take(tails, p)
    text = slots.view(np.uint8).reshape(n, SLOT.itemsize)
    if p.min() < K_MAX:  # fixed forms with 1 <= k <= 16 put d1..dk in front of the dot
        shifted = np.flatnonzero((p - (K_MAX - FIXED_MAX)).view(np.uintp) < FIXED_MAX)
        k = (K_MAX - p[shifted])[:, None]
        full = np.take(quads, rows.reshape(n, 4)[shifted] % STRIPPED).view(np.uint8)
        full = np.pad(full, ((0, 0), (0, 1)))  # d1..d16 and a null
        dot = np.where(text[shifted, 8 + k[:, 0]], ord("."), 0)[:, None]  # digits after dk?
        j = np.arange(17)  # bytes 7..23
        text[shifted, 7:24] = np.where(j < k, full, np.where(j == k, dot, text[shifted, 7:24]))
    text[(columns - 1 - first) % columns::columns, 29] = ord("\n")
    slow = np.flatnonzero(slow)
    if slow.size:
        exact = ["%.17g" % v for v in values[slow].tolist()]
        text[slow, :29] = np.array(exact, dtype="S29").view(np.uint8).reshape(-1, 29)
    return text.tobytes().translate(None, b"\0")
