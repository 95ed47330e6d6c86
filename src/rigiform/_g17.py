"""'%.17g' text of float64 arrays without a Python call per value.

`sim.write_csv` imports this module on its first write, so importing
rigiform does not compile it.

A finite nonzero x with decimal exponent k (10**k <= |x| < 10**(k+1))
prints the 17 digits D = round(|x| * 10**(16-k)), trailing zeros dropped,
either in fixed form (-4 <= k <= 16) or as d.ddd followed by e+kk.  D is
read off y = |x| * 10**(16-k) computed in WIDE (correctly rounded powers
of ten, one more rounding in the product), with k from floor(log10|x|).
Where the error bound of y, from np.finfo(WIDE), cannot rule out that y
lies on the other side of a half-integer, where k came out one off or D
carries into the next exponent (D outside [1e16, 1e17)), and for inf and
nan, the value is printed by Python's '%.17g' itself.  Where long double
is plain double the bound exceeds 1/2, so every value takes that path.

Each value's text is assembled in a 32-byte slot, and the nulls left in
the slots are deleted at the end:
    byte 0 sign | 1-5 "0.000" prefix | 6 d0 | 7 dot | 8-23 d1..d16 |
    24-28 exponent | 29 delimiter | 30-31 unused
A slot template per (form, index of the last nonzero digit) says which
bytes take a digit from that layout ('S'), which take one from the layout
shifted a byte left ('P', d1..dk in front of a fixed form's dot) and which
hold a literal.
"""

from __future__ import annotations

import functools

import numpy as np

WIDE = np.longdouble  # 64-bit significand on x86-64 Linux, plain double on some platforms
K_MIN, K_MAX = -324, 308  # decimal exponents of nonzero finite doubles
FIXED_MIN, FIXED_MAX = -4, 16
BLANK = 10010  # the all-null row of the quad table


def _slot(k, last):
    """Slot template of a value with exponent k (None: exponent form) whose
    last nonzero digit is d_last."""
    if k is not None and k < 0:
        prefix, body = b"0." + b"0" * (-k - 1), b"S\0" + b"S" * last
    else:
        k = k or 0
        prefix, body = b"", b"S" + b"P" * k + (b"." + b"S" * (last - k) if last > k else b"")
    return b"\0" + prefix.ljust(5, b"\0") + body.ljust(18, b"\0") + b"\0" * 5 + b",\0\0"


@functools.cache
def tables():
    """The lookup tables of text, built on its first call."""
    wide = np.finfo(WIDE)
    p = np.arange(16 - K_MAX, 17 - K_MIN)  # 16 - k for every exponent k
    with np.errstate(over="ignore"):  # 1e340 is inf where long double is double
        powers = np.array([f"1e{i}" for i in p], dtype=WIDE)
    # relative error bound of y: one rounding where 10**p is exact, two
    # elsewhere, and 1% for the rounding of the bound itself
    u = float(wide.eps) / 2
    exact = (p >= 0) & (p * np.log2(5) < wide.nmant + 1)
    rel_error = np.where(exact, u, 2 * u + u * u) * 1.01
    # "%04d" of 0..9999 as 4-byte words, then d0 alone in byte 2 (slot byte 6), then blank
    q = np.arange(10000)
    quad_digits = q[:, None] // np.array([1000, 100, 10, 1]) % 10
    quads = np.concatenate([
        (quad_digits + 48).astype(np.uint8).view("<u4").ravel(),
        np.arange(48, 58, dtype="<u4") * np.uint32(1 << 16),
        np.zeros(1, "<u4"),
    ])
    # index of the last nonzero digit among d1..d16 by quad (0 for 0000)
    last_in_quad = np.where(quad_digits != 0, np.arange(1, 5), 0).max(axis=1)
    last_digit = np.where(last_in_quad > 0, last_in_quad + 4 * np.arange(4)[:, None], 0)
    k = np.arange(K_MIN, K_MAX + 1)
    fixed = (k >= FIXED_MIN) & (k <= FIXED_MAX)
    form = np.where(fixed, k - FIXED_MIN, FIXED_MAX - FIXED_MIN + 1) * 17
    exponent = np.array([0 if f else int.from_bytes(b"e%+03d" % e, "little")
                         for e, f in zip(k.tolist(), fixed.tolist())], dtype="<u8")
    forms = [*range(FIXED_MIN, FIXED_MAX + 1), None]
    specs = b"".join(_slot(f, last) for f in forms for last in range(17))
    specs += b"\0" + b"0".ljust(28, b"\0") + b",\0\0"  # zero, after the others
    specs = np.frombuffer(specs, np.uint8).reshape(-1, 32)
    standard, shifted = specs == ord("S"), specs == ord("P")
    literal = np.where(standard | shifted, 0, specs).astype(np.uint8)
    masks = [(m * 255).astype(np.uint8).view("<u8") for m in (standard, shifted)]
    arrays = (powers, rel_error, quads, last_digit.astype(np.uint8), form, exponent,
              *masks, literal.view("<u8"))
    for array in arrays:
        array.setflags(write=False)  # every write shares them
    return arrays


def text(values, columns, first):
    """The float64 vector values as '%.17g' texts, each followed by ',' or,
    when (first + its index) % columns is the last column, by a newline."""
    (powers, rel_error, quads, last_digit, form, exponent,
     standard, shifted, literal) = tables()
    n = values.size
    finite = np.isfinite(values)
    zero = values == 0
    ax = np.abs(values)
    ax[zero | ~finite] = 1.0
    k = np.log10(ax)
    np.floor(k, out=k)
    k = k.astype(np.intp) - K_MIN  # row of the exponent tables
    p = (K_MAX - K_MIN) - k  # row of 10**(16-k)
    with np.errstate(invalid="ignore", over="ignore"):
        y = ax.astype(powers.dtype) * np.take(powers, p)
        whole = y.astype(np.int64)
        y -= whole  # exact: y and its integer part share a binade
        y -= 0.5
        half = y.astype(np.float64)  # y - whole - 1/2: its sign and, to 1e-16, its size
    digits = whole + (half > 0)
    slow = ~(np.abs(half) > whole * np.take(rel_error, p))
    slow |= (whole < 10 ** 16) | (digits >= 10 ** 17) | ~finite
    np.copyto(digits, 10 ** 16, where=slow)
    # quad-table rows of the slot's eight 4-byte words: d0 in word 1, d1..d16 in 2..5
    quad_rows = np.full((n, 8), BLANK)
    high, low = np.divmod(digits, 10 ** 8)
    lead, high = np.divmod(high, 10 ** 8)
    quad_rows[:, 1] = lead + 10000
    quad_rows[:, 2], quad_rows[:, 3] = np.divmod(high, 10 ** 4)
    quad_rows[:, 4], quad_rows[:, 5] = np.divmod(low, 10 ** 4)
    last = np.take(last_digit[0], quad_rows[:, 2])
    for j in range(1, 4):
        np.maximum(last, np.take(last_digit[j], quad_rows[:, 2 + j]), out=last)
    template = np.take(form, k) + last
    template[zero] = len(literal) - 1
    words = np.take(quads, quad_rows).view("<u8").ravel()
    moved = words >> 8
    moved[:-1] |= words[1:] << 56
    slots = np.take(standard, template, axis=0)
    slots &= words.reshape(n, 4)
    moved = moved.reshape(n, 4)
    moved &= np.take(shifted, template, axis=0)
    slots |= moved
    slots |= np.take(literal, template, axis=0)
    slots[:, 3] |= np.take(exponent, k)
    slots[:, 0] |= np.signbit(values) * np.uint64(ord("-"))
    text = slots.view(np.uint8)
    text[(columns - 1 - first) % columns::columns, 29] = ord("\n")
    slow = np.flatnonzero(slow)
    if slow.size:
        exact = ["%.17g" % v for v in values[slow].tolist()]
        text[slow, :29] = np.array(exact, dtype="S29").view(np.uint8).reshape(-1, 29)
    return text.tobytes().translate(None, b"\0")
