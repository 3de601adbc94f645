"""CSV text of exact keys: the rows [lead]m,n,value<tail> of int64 key codes
as bytes, a block of rows at a time, with no Python object per cell.

value is float(m) + float(n)*TAU, the double `embed_array` forms, written as
Python's repr writes it: the shortest digits that read back to the double,
of those the nearest to it, and of two as near the one whose last digit is
even, in fixed notation.  For 0.01 <= |v| < 1e16 the digits are found
exactly by `_shortest`, bar the powers of two below 1, whose rounding
interval is lopsided; every other double (zero, NaN, infinite, below 0.01
or from 1e16 up in magnitude) takes repr, row by row.  m and n are written
as str writes them, for |m|, |n| < 2^63.

A block is laid out in cells of two bytes, a row of cells per row of text:
every digit cell is a word of `_PAIRS`, two ASCII digits with a leading or
trailing zero written as a NUL byte where it is not printed, so a row
shorter than its cells is NUL-padded, and one bytearray.translate drops the
NULs.
"""

from __future__ import annotations

import numpy as np

from .zroot5 import _key_parts, embed_array

# Integers are split with np.divmod and %, never // or &, and |m| is
# np.maximum(m, -m): realizing and splitting a system run those loops
# already, and each first use of another numpy loop maps 64 KiB more of
# numpy's code, which a spawned `split` showed as that much more peak RSS.

# rows per block of write_keys: writing the 8 files of the twisted chain's
# split at R = 1e5, 2048 rows took 0.8 of the time of 1024 rows and peaked
# at 0.28 MB traced (tracemalloc) against 0.14 MB, and the peak RSS of a
# spawned `split` did not differ (2-core x86-64, Python 3.11, numpy 2.4)
BLOCK = 2048

_BOUNDS = np.array([float(f"1e{j}") for j in range(-2, 16)])  # correctly rounded
_TEN = np.array([float(f"1e{j}") for j in range(19)])  # 10^j, exact doubles
_SPLITTER = 134217729.0  # 2^27 + 1, Veltkamp's: a double as two 26-bit halves
_TEN_HI = _TEN * _SPLITTER - (_TEN * _SPLITTER - _TEN)
_TEN_LO = _TEN - _TEN_HI
_POW = np.array([10**j for j in range(19)], np.int64)


def _pairs() -> np.ndarray:
    # the 2-byte words of 00..99 with a leading zero dropped, with both
    # digits, and with a trailing zero dropped (00 as no digit either way),
    # then the word "0"
    full = [b"%02d" % x for x in range(100)]
    lead = [d.lstrip(b"0").rjust(2, b"\0") for d in full]
    trail = [d.rstrip(b"0").ljust(2, b"\0") for d in full]
    return np.frombuffer(b"".join(lead + full + trail) + b"0\0", np.uint16)


_PAIRS = _pairs()
_FULL, _TRAIL, _ZERO = 100, 200, 300  # offsets in _PAIRS


def _word(text: str) -> np.uint16:
    return np.frombuffer(text.encode().ljust(2, b"\0"), np.uint16)[0]


_MINUS, _COMMA, _COMMA_MINUS, _POINT = map(_word, ["-", ",", ",-", "."])


def _shortest(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(digits, s): a == digits * 10^-s as repr reads it, for doubles
    0.01 <= a < 1e16.

    digits is a * 10^s rounded to the fewest significant digits that read
    back to a, the trailing zeros the digits repr leaves out, with
    10^16 <= a * 10^s < 10^17.  a * 10^s is taken exactly as the sum
    p + err of a double product and its error (Dekker's TwoProduct: 10^s is
    exact for s <= 22).  Digits read back when they lie within half an ulp
    U of a, scaled here into (0.55, 11.2): so a multiple of 100 that reads
    back is p rounded down or up to one, a multiple of 10 that reads back
    is the one nearest a, and the nearest integer always reads back
    (U > 1/2).  Each residual below is a multiple of 2^(E+s-52) >= 2^-42
    (E the exponent of a) and under 2^7, so it is an exact double, and none
    equals U: a decimal at U from a is an integer only for s = 1 and E = 52
    or 53, where a * 10 is a multiple of 10, so each candidate is exact or
    at least 2U away.  So `< U` decides, whatever a's last mantissa bit.
    """
    s = 19 - np.searchsorted(_BOUNDS, a, side="right")  # 10^(16 - s) <= a < 10^(17 - s)
    ulp = _TEN[s]
    p = a * ulp
    top = a * _SPLITTER
    top -= top - a
    err = top * _TEN_HI[s]
    err -= p
    bottom = a - top
    err += bottom * _TEN_HI[s]
    top *= _TEN_LO[s]
    err += top
    bottom *= _TEN_LO[s]
    err += bottom  # p + err == a * 10^s
    del top, bottom
    np.ldexp(ulp, (a.view(np.int64) >> 52) - 1076, out=ulp)  # half an ulp of a, scaled
    digits = p.astype(np.int64)
    del p
    near = digits % 100
    above = near + err  # a * 10^s above the multiple of 100 below p
    np.subtract(digits, near, out=near)
    down = np.abs(above) < ulp
    above -= 100.0
    up = np.abs(above) < ulp
    # the multiple of 10 nearest a, of two the one with an even tens digit
    tens, above = np.divmod(digits, 10)
    above = above + err  # a * 10^s above 10 * tens, in [-8, 17]
    odd = tens % 2
    step = np.rint((above + 10 * odd) / 10.0) - odd
    above -= 10.0 * step
    ten_ok = np.abs(above) < ulp
    del above, odd
    tens += step.astype(np.int64)
    tens *= 10
    digits += np.rint(err).astype(np.int64)  # the nearest integer, the even one on a tie
    np.copyto(digits, tens, where=ten_ok)
    np.copyto(digits, near, where=down)
    near += 100
    np.copyto(digits, near, where=up)
    return digits, s


def _lead_pairs(x: np.ndarray) -> np.ndarray:
    """The words of the integers x >= 0, right-aligned in the 2-digit cells
    that the largest needs: no digit before the first, and 0 written "0"."""
    cells = (len(str(int(x.max(initial=0)))) + 1) // 2
    out = np.empty((len(x), cells), np.uint16)
    rest = x
    for i in range(cells - 1, -1, -1):
        above, pair = np.divmod(rest, 100)
        np.add(pair, _FULL, out=pair, where=above > 0)  # a digit stands before
        out[:, i] = _PAIRS[pair]
        rest = above
    out[x == 0, -1] = _PAIRS[_ZERO]
    return out


def _trail_pairs(x: np.ndarray, cells: int) -> np.ndarray:
    """The words of the integers 0 <= x < 100^cells, left-aligned digits
    after a point in cells 2-digit cells: no digit after the last nonzero
    one, and 0 written "0"."""
    out = np.empty((len(x), cells), np.uint16)
    later = np.zeros(len(x), bool)  # a digit stands after
    for i in range(cells - 1, -1, -1):
        above, pair = np.divmod(x, 100)
        digit = pair != 0
        pair += _TRAIL
        np.subtract(pair, _TRAIL - _FULL, out=pair, where=later)
        out[:, i] = _PAIRS[pair]
        later |= digit
        x = above
    out[~later, 0] = _PAIRS[_ZERO]
    return out


def write_keys(codes: np.ndarray, outputs, lead: str = "") -> None:
    """write_rows of the keys of int64 codes, with value = m + n*tau, a block
    of BLOCK rows at a time."""
    write_rows((_columns(codes[lo : lo + BLOCK]) for lo in range(0, len(codes), BLOCK)),
               outputs, lead)


def _columns(codes: np.ndarray) -> tuple:
    # m, n and m + n*tau of a block, held by no generator frame once written
    m, n = _key_parts(codes)
    return m, n, embed_array(m, n)


def write_rows(blocks, outputs, lead: str = "") -> None:
    """Write the rows lead + m,n,value + texts[level[row]] of each block of
    arrays (m, n, value), int64, int64 and float64, to each (fh, level,
    texts) of outputs: a binary file, and the level of each row, counted
    across blocks, in its tails; a tail with one text ignores its level.

    Each block is formatted once for all the outputs, and outputs of one
    equal text are written from one bytearray.
    """
    lead_bytes = lead.encode()
    if b"\0" in lead_bytes:
        raise ValueError(f"a CSV cell may not hold a NUL character: {lead!r}")
    lead_words = np.frombuffer(lead_bytes + b"\0" * (len(lead_bytes) % 2), np.uint16)
    tails = {}  # per distinct tail: its level, its table of text words and its files
    for fh, level, texts in outputs:
        encoded = [t.encode() for t in texts]
        width = (max(map(len, encoded), default=0) + 1) // 2
        table = b"".join(t.ljust(2 * width, b"\0") for t in encoded)
        key = table if len(texts) == 1 else len(tails)
        tails.setdefault(key, (level, np.frombuffer(table, np.uint16).reshape(len(texts), width), []))
        tails[key][2].append(fh)
    tail_width = max(table.shape[1] for _, table, _ in tails.values())
    lo = 0
    for m, n, v in blocks:
        a = np.abs(v)
        fast = (a >= 0.01) & (a < 1e16)
        fast &= (a.view(np.int64) << 12 != 0) | (a >= 1.0)  # no power of two below 1
        slow = np.flatnonzero(~fast)
        reprs = [repr(x).encode() for x in v[slow].tolist()]
        a[slow] = 1.0
        digits, s = _shortest(a)
        del a
        whole, digits = np.divmod(digits, _POW[s])  # digits: the s after the point
        if digits.any():
            cells = (int(s[fast].max()) + 1) // 2
            digits *= _POW[2 * cells - s]
        else:
            cells = 1
        del s
        fraction = _trail_pairs(digits, cells)
        del digits
        # m's sign and digits, n's comma, sign and digits, the value's comma,
        # sign and whole part, then the point and the fraction
        fields = [(np.where(m < 0, _MINUS, 0), _lead_pairs(np.maximum(m, -m))),
                  (np.where(n < 0, _COMMA_MINUS, _COMMA), _lead_pairs(np.maximum(n, -n))),
                  (np.where(np.signbit(v) & fast, _COMMA_MINUS, _COMMA), _lead_pairs(whole)),
                  (_POINT, fraction)]
        del m, n, v, whole, fraction
        # the value's cells after its comma and sign, wide enough for a repr text
        value = max(fields[2][1].shape[1] + 1 + fields[3][1].shape[1],
                    (max(map(len, reprs), default=0) + 1) // 2)
        at = len(lead_words)
        head = at + 3 + fields[0][1].shape[1] + fields[1][1].shape[1] + value
        buffer = bytearray(2 * len(fast) * (head + tail_width))
        rows = np.frombuffer(buffer, np.uint16).reshape(len(fast), head + tail_width)
        rows[:, :at] = lead_words
        for first, words in fields:
            rows[:, at] = first
            rows[:, at + 1 : at + 1 + words.shape[1]] = words
            at += 1 + words.shape[1]
        del fields
        if len(slow):
            padded = b"".join(t.ljust(2 * value, b"\0") for t in reprs)
            rows[slow, head - value : head] = np.frombuffer(padded, np.uint16).reshape(len(slow), -1)
        for level, table, files in tails.values():
            width = table.shape[1]
            rows[:, head : head + width] = (
                table[0] if len(table) == 1 else table[level[lo : lo + len(fast)]])
            rows[:, head + width :] = 0
            text = buffer.translate(None, b"\0")
            for fh in files:
                fh.write(text)
            del text
        lo += len(fast)
        del rows, buffer
