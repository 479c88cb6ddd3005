"""Block-packed fast kernels: base ``2**(32*k)`` basecases (k limbs/block).

Every kernel in this package spends its wall time in the Python
interpreter, one loop iteration per 32-bit limb.  This module packs
``PACK_LIMBS`` consecutive limbs into a single Python int — a *block*,
the packed backend's machine word — and runs the add/sub/mul/sqr/shift/
divmod basecases one block at a time.  Interpreter iterations drop by
~k x (k^2 for the quadratic kernels' inner loops) while each block
operation stays a word-sized C-level int op, exactly the wide-block
digit processing that *Fast Arbitrary Precision Floating Point on
FPGA* (de Fine Licht et al.) and ARCHITECT (Li et al.) identify as the
arbitrary-precision throughput lever.

Semantics are unchanged: operands and results are ordinary normalized
limb lists (:mod:`repro.mpn.nat`), carries/borrows propagate explicitly
at block boundaries, and every kernel is bit-identical to its limb
sibling — ``tests/differential`` proves it against both the limb
kernels and Python bigints.  A block plays the role the 32-bit limb
plays elsewhere: block values never exceed ``2**(32*k)`` except as the
explicit double-width products/carries the limb kernels also use.

Reachability contract (lint rule RPR012): these kernels are selected by
``repro.plan.select`` and invoked only through the mpn dispatchers
(:func:`repro.mpn.mul.mul`, :func:`repro.mpn.div.divmod_nat`,
:func:`repro.mpn.powmod`) or a lowered ``backend="packed"`` Plan —
never called directly by layers above mpn.
"""

from __future__ import annotations

import sys
from array import array
from typing import List, Tuple

from repro.mpn.nat import LIMB_BITS, MpnError, Nat, normalize
from repro.mpn.nat import bit_length as nat_bit_length

#: Limbs packed per block.  k=8 -> 256-bit blocks (radix 2^256): large
#: enough to cut interpreter iterations ~8x, small enough that block
#: products stay cheap single C calls.
PACK_LIMBS = 8

#: Bytes per limb (limbs are base 2^32).
_LIMB_BYTES = LIMB_BITS // 8

#: Block counts below which the packed multiplier uses the schoolbook
#: basecase; at or above, one level of block Karatsuba splitting.
KARATSUBA_BLOCKS = 16

#: Limb count at/above which the O(n) kernels (add/shift) are worth
#: packing; below it the pack/unpack round trip eats the win (measured:
#: shifts ~1.2-2.4x and add ~1.2x at 512 limbs, both <1x under 256).
LINEAR_PACK_MIN_LIMBS = 512

_LITTLE_ENDIAN = sys.byteorder == "little"


def _limb_typecode() -> str:
    """array typecode with the limb's 4-byte width ("" when none fits)."""
    for code in ("I", "L"):
        if array(code).itemsize == _LIMB_BYTES:
            return code
    return ""


_LIMB_CODE = _limb_typecode()


# -- representation ----------------------------------------------------------


def pack_blocks(limbs: Nat, k: int = PACK_LIMBS) -> List[int]:
    """Pack a normalized limb list into little-endian base-2^(32k) blocks.

    The result carries no trailing zero blocks (``[]`` is zero); the top
    block may represent an odd tail of ``len(limbs) % k`` limbs.  Bulk
    conversion goes through bytes so the per-limb work happens at C
    speed.
    """
    if k < 1:
        raise MpnError("pack_blocks: k must be >= 1, got %d" % k)
    if not limbs:
        return []
    try:
        if _LIMB_CODE and _LITTLE_ENDIAN:
            data = array(_LIMB_CODE, limbs).tobytes()
        else:  # pragma: no cover - big-endian/exotic-ABI fallback
            data = b"".join(limb.to_bytes(_LIMB_BYTES, "little")
                            for limb in limbs)
    except (OverflowError, TypeError) as error:
        raise MpnError("pack_blocks: limb out of base-2^%d range (%s)"
                       % (LIMB_BITS, error))
    width = _LIMB_BYTES * k
    blocks = [int.from_bytes(data[i:i + width], "little")
              for i in range(0, len(data), width)]
    while blocks and blocks[-1] == 0:
        blocks.pop()
    return blocks


def unpack_blocks(blocks: List[int], k: int = PACK_LIMBS) -> Nat:
    """Unpack base-2^(32k) blocks back into a normalized limb list."""
    if k < 1:
        raise MpnError("unpack_blocks: k must be >= 1, got %d" % k)
    if not blocks:
        return []
    width = _LIMB_BYTES * k
    try:
        data = b"".join(block.to_bytes(width, "little")
                        for block in blocks)
    except (OverflowError, TypeError) as error:
        raise MpnError("unpack_blocks: block out of base-2^%d range (%s)"
                       % (LIMB_BITS * k, error))
    if _LIMB_CODE and _LITTLE_ENDIAN:
        limbs = list(array(_LIMB_CODE, data))
    else:  # pragma: no cover - big-endian/exotic-ABI fallback
        limbs = [int.from_bytes(data[i:i + _LIMB_BYTES], "little")
                 for i in range(0, len(data), _LIMB_BYTES)]
    return normalize(limbs)


# -- block-list primitives ---------------------------------------------------
#
# Private helpers over little-endian block lists (no trailing zeros),
# parameterized by the block width in bits.  They mirror the limb
# kernels in repro.mpn.nat / schoolbook / div one-for-one, with the
# block as the digit.


def _bnormalize(blocks: List[int]) -> List[int]:
    while blocks and blocks[-1] == 0:
        blocks.pop()  # repro: noqa=caller-aliasing -- block-level normalize is the documented in-place canonicalizer (mirrors nat.normalize)
    return blocks


def _bcmp(a: List[int], b: List[int]) -> int:
    if len(a) != len(b):
        return -1 if len(a) < len(b) else 1
    for x, y in zip(reversed(a), reversed(b)):
        if x != y:
            return -1 if x < y else 1
    return 0


def _badd(a: List[int], b: List[int], bits: int,
          mask: int) -> List[int]:
    if len(a) < len(b):
        a, b = b, a
    out: List[int] = []
    carry = 0
    for i, block in enumerate(a):
        total = block + (b[i] if i < len(b) else 0) + carry
        out.append(total & mask)
        carry = total >> bits
    if carry:
        out.append(carry)
    return out


def _bsub(a: List[int], b: List[int], bits: int,
          mask: int) -> List[int]:
    """``a - b`` over blocks; requires ``a >= b`` (callers guarantee)."""
    base = mask + 1
    out: List[int] = []
    borrow = 0
    for i, block in enumerate(a):
        total = block - (b[i] if i < len(b) else 0) - borrow
        if total < 0:
            total += base
            borrow = 1
        else:
            borrow = 0
        out.append(total)
    return _bnormalize(out)


def _bshl_blocks(a: List[int], count: int) -> List[int]:
    """Shift left by whole blocks (multiply by base**count)."""
    return [0] * count + a if a else []


def _bshl_bits(a: List[int], count: int, bits: int,
               mask: int) -> List[int]:
    """Shift left by ``count`` bits, ``0 <= count < bits``."""
    if not a or count == 0:
        return list(a)
    out: List[int] = []
    carry = 0
    for block in a:
        total = (block << count) | carry
        out.append(total & mask)
        carry = total >> bits
    if carry:
        out.append(carry)
    return out


def _bshr_bits(a: List[int], count: int, bits: int,
               mask: int) -> List[int]:
    """Shift right by ``count`` bits, ``0 <= count < bits``."""
    if not a or count == 0:
        return list(a)
    out: List[int] = []
    for i, block in enumerate(a):
        high = a[i + 1] if i + 1 < len(a) else 0
        out.append(((block >> count) | (high << (bits - count))) & mask)
    return _bnormalize(out)


def _bmul_schoolbook(a: List[int], b: List[int], bits: int,
                     mask: int) -> List[int]:
    """Block schoolbook product (the limb kernel, one block per digit)."""
    out = [0] * (len(a) + len(b))
    for i, block_a in enumerate(a):
        if block_a == 0:
            continue
        carry = 0
        for j, block_b in enumerate(b):
            total = out[i + j] + block_a * block_b + carry
            out[i + j] = total & mask
            carry = total >> bits
        position = i + len(b)
        while carry:
            total = out[position] + carry
            out[position] = total & mask
            carry = total >> bits
            position += 1
    return _bnormalize(out)


def _bmul(a: List[int], b: List[int], bits: int, mask: int) -> List[int]:
    """Block product: schoolbook basecase, Karatsuba above it.

    One splitting scheme suffices at block granularity: with 256-bit
    blocks, n blocks stand for 8n limbs, so the block counts reached in
    practice stay small enough that O(n_blocks^1.585) with C-speed
    block products beats every limb-level regime by a wide margin.
    """
    if not a or not b:
        return []
    if min(len(a), len(b)) < KARATSUBA_BLOCKS:
        return _bmul_schoolbook(a, b, bits, mask)
    split = (max(len(a), len(b)) + 1) // 2
    a0 = _bnormalize(a[:split])
    a1 = _bnormalize(a[split:])
    b0 = _bnormalize(b[:split])
    b1 = _bnormalize(b[split:])

    z0 = _bmul(a0, b0, bits, mask)
    z2 = _bmul(a1, b1, bits, mask)
    cross = _bmul(_badd(a0, a1, bits, mask),
                  _badd(b0, b1, bits, mask), bits, mask)
    z1 = _bsub(_bsub(cross, z0, bits, mask), z2, bits, mask)

    result = _badd(z0, _bshl_blocks(z1, split), bits, mask)
    return _badd(result, _bshl_blocks(z2, 2 * split), bits, mask)


# -- public kernels (Nat in, Nat out) ----------------------------------------


def mul_packed(a: Nat, b: Nat, k: int = PACK_LIMBS) -> Nat:
    """Product of two naturals through the block-packed multiplier."""
    if not a or not b:
        return []
    bits = LIMB_BITS * k
    mask = (1 << bits) - 1
    return unpack_blocks(_bmul(pack_blocks(a, k), pack_blocks(b, k),
                               bits, mask), k)


def sqr_packed(a: Nat, k: int = PACK_LIMBS) -> Nat:
    """Square of a natural through the block-packed multiplier.

    ``_bmul(a, a)`` keeps the square shape down the whole Karatsuba
    recursion (every sub-product has equal operands), so a dedicated
    symmetric basecase would only shave a constant factor.
    """
    if not a:
        return []
    bits = LIMB_BITS * k
    mask = (1 << bits) - 1
    blocks = pack_blocks(a, k)
    return unpack_blocks(_bmul(blocks, blocks, bits, mask), k)


def add_packed(a: Nat, b: Nat, k: int = PACK_LIMBS) -> Nat:
    """Sum with carries propagated at block boundaries."""
    if not a:
        return list(b)
    if not b:
        return list(a)
    bits = LIMB_BITS * k
    mask = (1 << bits) - 1
    return unpack_blocks(_badd(pack_blocks(a, k), pack_blocks(b, k),
                               bits, mask), k)


def sub_packed(a: Nat, b: Nat, k: int = PACK_LIMBS) -> Nat:
    """Difference ``a - b`` (requires ``a >= b``) over blocks."""
    blocks_a = pack_blocks(a, k)
    blocks_b = pack_blocks(b, k)
    if _bcmp(blocks_a, blocks_b) < 0:
        raise MpnError("mpn sub requires a >= b")
    bits = LIMB_BITS * k
    mask = (1 << bits) - 1
    return unpack_blocks(_bsub(blocks_a, blocks_b, bits, mask), k)


def shl_packed(a: Nat, count: int, k: int = PACK_LIMBS) -> Nat:
    """Left shift by ``count`` bits, stepped one block at a time."""
    if count < 0:
        raise MpnError("shift count must be non-negative")
    if not a or count == 0:
        return list(a)
    bits = LIMB_BITS * k
    mask = (1 << bits) - 1
    block_shift, bit_shift = divmod(count, bits)
    shifted = _bshl_bits(pack_blocks(a, k), bit_shift, bits, mask)
    return unpack_blocks(_bshl_blocks(shifted, block_shift), k)


def shr_packed(a: Nat, count: int, k: int = PACK_LIMBS) -> Nat:
    """Right shift by ``count`` bits, stepped one block at a time."""
    if count < 0:
        raise MpnError("shift count must be non-negative")
    if not a or count == 0:
        return list(a)
    bits = LIMB_BITS * k
    mask = (1 << bits) - 1
    block_shift, bit_shift = divmod(count, bits)
    blocks = pack_blocks(a, k)
    if block_shift >= len(blocks):
        return []
    return unpack_blocks(_bshr_bits(blocks[block_shift:], bit_shift,
                                    bits, mask), k)


def divmod_packed(a: Nat, b: Nat, k: int = PACK_LIMBS) -> Tuple[Nat, Nat]:
    """Exact (quotient, remainder) by Knuth Algorithm D over blocks.

    The same D1-D6 steps as :func:`repro.mpn.div.divmod_schoolbook`
    with the base raised from 2^32 to 2^(32k): the inner multiply-
    subtract touches n/k blocks instead of n limbs, so the quadratic
    interpreter cost falls by ~k^2.
    """
    if not b:
        raise MpnError("division by zero")
    bits = LIMB_BITS * k
    mask = (1 << bits) - 1
    base = mask + 1
    u_raw = pack_blocks(a, k)
    v = pack_blocks(b, k)
    if _bcmp(u_raw, v) < 0:
        return [], list(a)

    if len(v) == 1:
        # Single-block divisor: the div_1 loop with a block digit.
        divisor = v[0]
        out = [0] * len(u_raw)
        remainder = 0
        for i in range(len(u_raw) - 1, -1, -1):
            current = (remainder << bits) | u_raw[i]
            out[i] = current // divisor
            remainder = current - out[i] * divisor
        quotient = unpack_blocks(_bnormalize(out), k)
        return quotient, unpack_blocks([remainder] if remainder else [],
                                       k)

    # D1: normalize so the divisor's top block has its high bit set.
    shift = bits - v[-1].bit_length()
    u = _bshl_bits(u_raw, shift, bits, mask)
    v = _bshl_bits(v, shift, bits, mask)
    n = len(v)
    m = len(u) - n
    u = list(u) + [0]
    v_top = v[-1]
    v_next = v[-2]
    quotient = [0] * (m + 1)

    for j in range(m, -1, -1):
        # D3: estimate the quotient block from the top two dividend blocks.
        numerator = (u[j + n] << bits) | u[j + n - 1]
        q_hat = numerator // v_top
        r_hat = numerator - q_hat * v_top
        while (q_hat >= base
               or q_hat * v_next > ((r_hat << bits) | u[j + n - 2])):
            q_hat -= 1
            r_hat += v_top
            if r_hat >= base:
                break
        # D4: multiply and subtract.
        borrow = 0
        carry = 0
        for i in range(n):
            product = q_hat * v[i] + carry
            carry = product >> bits
            diff = u[j + i] - (product & mask) - borrow
            if diff < 0:
                diff += base
                borrow = 1
            else:
                borrow = 0
            u[j + i] = diff
        diff = u[j + n] - carry - borrow
        if diff < 0:
            # D6: the estimate was one too large — add the divisor back.
            q_hat -= 1
            carry = 0
            for i in range(n):
                total = u[j + i] + v[i] + carry
                u[j + i] = total & mask
                carry = total >> bits
            u[j + n] = (diff + base + carry) & mask
        else:
            u[j + n] = diff
        quotient[j] = q_hat

    remainder_blocks = _bshr_bits(_bnormalize(u[:n]), shift, bits, mask)
    return (unpack_blocks(_bnormalize(quotient), k),
            unpack_blocks(remainder_blocks, k))


# -- modular exponentiation ---------------------------------------------------


def _inverse_block(block: int, bits: int) -> int:
    """Inverse of an odd block modulo 2^bits by Newton lifting.

    The block-width sibling of :func:`repro.mpn.montgomery._inverse_limb`:
    odd numbers are self-inverse mod 8, and each step doubles the
    number of correct low bits.
    """
    mask = (1 << bits) - 1
    inverse, precision = block, 3
    while precision < bits:
        inverse = (inverse * (2 - block * inverse)) & mask
        precision *= 2
    return inverse


def _bmont_mul(a: List[int], b: List[int], modulus: List[int],
               neg_inverse: int, bits: int, mask: int) -> List[int]:
    """Block Montgomery product ``a*b*R^-1 mod modulus``.

    ``a``/``b`` are padded to ``len(modulus)`` blocks and below the
    modulus; so is the result.  Each outer step adds one block row of
    ``a*b``, picks the block ``m`` that zeroes the low block, adds
    ``m*modulus`` and drops that block — the limb CIOS loop of
    :class:`repro.mpn.montgomery.MontgomeryContext` with the block as
    the digit, its two inner passes fused into one (the FIOS form:
    ``m`` depends only on the low block, so it is known before the
    row is added; one interpreter pass instead of two measured ~25%
    faster).
    """
    n = len(modulus)
    t = [0] * (n + 1)
    b_low, modulus_low = b[0], modulus[0]
    for block_a in a:
        total = t[0] + block_a * b_low
        m = ((total & mask) * neg_inverse) & mask
        carry = (total + m * modulus_low) >> bits
        for j in range(1, n):
            total = t[j] + block_a * b[j] + m * modulus[j] + carry
            t[j - 1] = total & mask
            carry = total >> bits
        total = t[n] + carry
        t[n - 1] = total & mask
        t[n] = total >> bits
    # t < 2N: one conditional subtraction lands the result below N.
    if t[n] or _bcmp(_bnormalize(t[:n]), modulus) >= 0:
        t = _bsub(t, modulus, bits, mask)
        return t + [0] * (n - len(t))
    return t[:n]


def powmod_packed(base: Nat, exponent: Nat, modulus: Nat,
                  k: int = PACK_LIMBS) -> Nat:
    """``base**exponent mod modulus`` over base-2^(32k) blocks.

    Odd moduli run block Montgomery (:func:`_bmont_mul`) under the same
    4-bit window schedule as :meth:`repro.mpn.montgomery.
    MontgomeryContext.pow`, with ``R = 2^(32k*n)`` for an n-block
    modulus; ``R mod N`` and ``R^2 mod N`` come from
    :func:`divmod_packed`.  Even moduli keep the square-and-multiply-
    over-division path of :func:`repro.mpn.montgomery.powmod`, on the
    block multiplier.
    """
    if not modulus:
        raise MpnError("zero modulus")
    if modulus == [1]:
        return []
    if not modulus[0] & 1:
        from repro.mpn.montgomery import powmod as _binary_powmod
        return _binary_powmod(base, exponent, modulus,
                              lambda x, y: mul_packed(x, y, k))
    if not exponent:
        return [1]
    bits = LIMB_BITS * k
    mask = (1 << bits) - 1
    mod_blocks = pack_blocks(modulus, k)
    n = len(mod_blocks)
    neg_inverse = (-_inverse_block(mod_blocks[0], bits)) & mask

    def padded(value: Nat) -> List[int]:
        blocks = pack_blocks(divmod_packed(value, modulus, k)[1], k)
        return blocks + [0] * (n - len(blocks))

    def mont_mul(x: List[int], y: List[int]) -> List[int]:
        return _bmont_mul(x, y, mod_blocks, neg_inverse, bits, mask)

    one = padded([0] * (n * k) + [1])                  # R mod N
    r_squared = padded([0] * (2 * n * k) + [1])        # R^2 mod N
    base_mont = mont_mul(padded(base), r_squared)
    window = [one, base_mont]
    for _ in range(14):
        window.append(mont_mul(window[-1], base_mont))

    exp_blocks = pack_blocks(exponent, k)
    accumulator = one
    index = ((nat_bit_length(exponent) + 3) // 4) * 4 - 4
    while index >= 0:
        for _ in range(4):
            accumulator = mont_mul(accumulator, accumulator)
        # bits is a multiple of 4, so a nibble never straddles blocks.
        block_index, offset = divmod(index, bits)
        nibble = (exp_blocks[block_index] >> offset) & 0xF
        if nibble:
            accumulator = mont_mul(accumulator, window[nibble])
        index -= 4
    return unpack_blocks(_bnormalize(
        mont_mul(accumulator, [1] + [0] * (n - 1))), k)
