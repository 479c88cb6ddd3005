"""repro.mpn.packed: block representation and kernel unit tests.

The packed kernels are *re-representations* of the limb kernels, so the
tests here are about the representation itself: pack/unpack round
trips at awkward lengths, carry chains that cross block boundaries,
normalization, and the error vocabulary — plus the block Montgomery
pieces of the powmod kernel.  Cross-backend equivalence at dispatcher
level lives in ``tests/differential/test_packed_paths.py``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpn import nat
from repro.mpn.nat import LIMB_BITS, MpnError
from repro.mpn.packed import (KARATSUBA_BLOCKS, PACK_LIMBS, _bmont_mul,
                              _inverse_block, add_packed, divmod_packed,
                              mul_packed, pack_blocks, powmod_packed,
                              shl_packed, shr_packed, sqr_packed,
                              sub_packed, unpack_blocks)

from tests.conftest import from_nat, to_nat
from tests.differential.conftest import diff_examples

#: Block widths exercised everywhere: degenerate (k=1 is the limb
#: representation itself), odd, the default, and wider-than-default.
PACK_WIDTHS = (1, 2, 3, PACK_LIMBS, 13)

#: Raw limb lists with interesting shapes: empty, odd tails
#: (``len % k != 0`` for every k above), saturated limbs, zero limbs
#: in the middle.
limb_lists = st.lists(
    st.integers(min_value=0, max_value=(1 << LIMB_BITS) - 1),
    max_size=4 * PACK_LIMBS + 3)


class TestPackUnpack:
    @given(limbs=limb_lists, k=st.sampled_from(PACK_WIDTHS))
    @settings(max_examples=diff_examples(), deadline=None)
    def test_round_trip_preserves_value(self, limbs, k):
        normalized = nat.normalize(list(limbs))
        assert unpack_blocks(pack_blocks(normalized, k), k) == normalized

    @given(limbs=limb_lists, k=st.sampled_from(PACK_WIDTHS))
    @settings(max_examples=diff_examples(), deadline=None)
    def test_blocks_are_canonical_digits(self, limbs, k):
        """No trailing zero blocks; every block below base 2^(32k)."""
        blocks = pack_blocks(nat.normalize(list(limbs)), k)
        assert not blocks or blocks[-1] != 0
        assert all(0 <= block < (1 << (LIMB_BITS * k))
                   for block in blocks)

    @given(limbs=limb_lists, k=st.sampled_from(PACK_WIDTHS))
    @settings(max_examples=diff_examples(), deadline=None)
    def test_blocks_spell_the_same_integer(self, limbs, k):
        normalized = nat.normalize(list(limbs))
        value = sum(block << (LIMB_BITS * k * i)
                    for i, block in enumerate(pack_blocks(normalized, k)))
        assert value == from_nat(normalized)

    @pytest.mark.parametrize("k", PACK_WIDTHS)
    def test_odd_tail_lengths(self, k):
        """Lengths straddling every multiple-of-k boundary round trip."""
        for length in (k - 1, k, k + 1, 2 * k - 1, 2 * k, 2 * k + 1):
            if length < 1:
                continue
            limbs = [(7 * i + 1) & 0xFFFF_FFFF for i in range(length)]
            limbs[-1] |= 1  # keep it normalized
            assert unpack_blocks(pack_blocks(limbs, k), k) == limbs

    def test_unpack_trims_leading_zero_limbs(self):
        """A top block narrower than k limbs must not grow the list."""
        assert unpack_blocks([1], PACK_LIMBS) == [1]
        assert unpack_blocks([0, 1], 2) == [0, 0, 1]

    def test_pack_trims_trailing_zero_blocks(self):
        # Unnormalized input is a caller bug elsewhere, but zero-valued
        # *blocks* arise legitimately from all-zero tails.
        assert pack_blocks([], 4) == []
        assert pack_blocks([0, 0, 0], 2) == []

    def test_zero_is_the_empty_list_both_ways(self):
        assert pack_blocks([], PACK_LIMBS) == []
        assert unpack_blocks([], PACK_LIMBS) == []

    @pytest.mark.parametrize("k", PACK_WIDTHS)
    def test_all_ones_carry_chain_round_trip(self, k):
        for bits in (31, 32, 255, 256, 257, 511, 512, 513):
            value = (1 << bits) - 1
            assert from_nat(unpack_blocks(pack_blocks(to_nat(value), k),
                                          k)) == value

    def test_rejects_nonpositive_k(self):
        with pytest.raises(MpnError):
            pack_blocks([1], 0)
        with pytest.raises(MpnError):
            unpack_blocks([1], -3)

    def test_rejects_out_of_range_limbs(self):
        with pytest.raises(MpnError):
            pack_blocks([1 << LIMB_BITS], 2)
        with pytest.raises(MpnError):
            pack_blocks([-1], 2)

    def test_rejects_out_of_range_blocks(self):
        with pytest.raises(MpnError):
            unpack_blocks([1 << (LIMB_BITS * 2)], 2)
        with pytest.raises(MpnError):
            unpack_blocks([-1], 2)


class TestArithmeticKernels:
    """Each public kernel against bigints across block widths."""

    @given(a=st.integers(min_value=0, max_value=(1 << 1200) - 1),
           b=st.integers(min_value=0, max_value=(1 << 1200) - 1),
           k=st.sampled_from(PACK_WIDTHS))
    @settings(max_examples=diff_examples(), deadline=None)
    def test_mul_matches_bigint(self, a, b, k):
        assert from_nat(mul_packed(to_nat(a), to_nat(b), k)) == a * b

    @given(a=st.integers(min_value=0, max_value=(1 << 1200) - 1),
           k=st.sampled_from(PACK_WIDTHS))
    @settings(max_examples=diff_examples(), deadline=None)
    def test_sqr_matches_bigint(self, a, k):
        assert from_nat(sqr_packed(to_nat(a), k)) == a * a

    @given(a=st.integers(min_value=0, max_value=(1 << 1200) - 1),
           b=st.integers(min_value=0, max_value=(1 << 1200) - 1),
           k=st.sampled_from(PACK_WIDTHS))
    @settings(max_examples=diff_examples(), deadline=None)
    def test_add_sub_match_bigints(self, a, b, k):
        assert from_nat(add_packed(to_nat(a), to_nat(b), k)) == a + b
        low, high = sorted((a, b))
        assert from_nat(sub_packed(to_nat(high), to_nat(low), k)) \
            == high - low

    @given(a=st.integers(min_value=0, max_value=(1 << 1200) - 1),
           count=st.integers(min_value=0, max_value=600),
           k=st.sampled_from(PACK_WIDTHS))
    @settings(max_examples=diff_examples(), deadline=None)
    def test_shifts_match_bigints(self, a, count, k):
        assert from_nat(shl_packed(to_nat(a), count, k)) == a << count
        assert from_nat(shr_packed(to_nat(a), count, k)) == a >> count

    @given(a=st.integers(min_value=0, max_value=(1 << 1200) - 1),
           b=st.integers(min_value=1, max_value=(1 << 700) - 1),
           k=st.sampled_from(PACK_WIDTHS))
    @settings(max_examples=diff_examples(), deadline=None)
    def test_divmod_matches_bigint(self, a, b, k):
        quotient, remainder = divmod_packed(to_nat(a), to_nat(b), k)
        assert (from_nat(quotient), from_nat(remainder)) == divmod(a, b)

    def test_block_karatsuba_regime(self):
        """Operands wide enough to recurse through block Karatsuba."""
        limbs = 2 * KARATSUBA_BLOCKS * PACK_LIMBS + 5
        a = (1 << (limbs * LIMB_BITS)) - 3
        b = (1 << ((limbs - 7) * LIMB_BITS)) - 11
        assert from_nat(mul_packed(to_nat(a), to_nat(b))) == a * b
        assert from_nat(sqr_packed(to_nat(a))) == a * a

    @pytest.mark.parametrize("k", PACK_WIDTHS)
    def test_all_ones_carry_chains(self, k):
        """Worst-case carry propagation across every block boundary."""
        bits = LIMB_BITS * k
        for width in (bits - 1, bits, bits + 1, 3 * bits, 3 * bits + 17):
            a = (1 << width) - 1
            assert from_nat(add_packed(to_nat(a), to_nat(1), k)) == a + 1
            assert from_nat(mul_packed(to_nat(a), to_nat(a), k)) == a * a

    def test_divmod_add_back_case(self):
        """The Knuth D6 add-back step (rare; forced, not sampled).

        The classic trigger scaled to block base B: the initial
        quotient estimate for ``(B//2)*B^2 + (B-2)*B`` over
        ``(B//2)*B + (B-1)`` is one too large and must be corrected by
        adding the divisor back.
        """
        base = 1 << (LIMB_BITS * PACK_LIMBS)
        a = (base // 2) * base * base + (base - 2) * base
        b = (base // 2) * base + (base - 1)
        quotient, remainder = divmod_packed(to_nat(a), to_nat(b))
        assert (from_nat(quotient), from_nat(remainder)) == divmod(a, b)

    def test_single_block_divisor_path(self):
        a = (1 << 4096) - 123
        b = (1 << 200) - 1  # one 256-bit block at the default k
        quotient, remainder = divmod_packed(to_nat(a), to_nat(b))
        assert (from_nat(quotient), from_nat(remainder)) == divmod(a, b)

    def test_small_dividend_short_circuit(self):
        quotient, remainder = divmod_packed(to_nat(5), to_nat(7))
        assert quotient == [] and from_nat(remainder) == 5

    def test_results_are_normalized(self):
        for result in (mul_packed(to_nat((1 << 64) - 1), to_nat(1)),
                       add_packed(to_nat(1 << 511), to_nat(1)),
                       sub_packed(to_nat(1 << 512), to_nat(1)),
                       shr_packed(to_nat(1 << 512), 500)):
            assert result == nat.normalize(list(result))

    def test_error_vocabulary(self):
        with pytest.raises(MpnError):
            sub_packed(to_nat(3), to_nat(5))
        with pytest.raises(MpnError):
            divmod_packed(to_nat(3), [])
        with pytest.raises(MpnError):
            shl_packed(to_nat(3), -1)
        with pytest.raises(MpnError):
            shr_packed(to_nat(3), -1)

    def test_zero_operands(self):
        assert mul_packed([], to_nat(9)) == []
        assert mul_packed(to_nat(9), []) == []
        assert sqr_packed([]) == []
        assert add_packed([], to_nat(9)) == to_nat(9)
        assert sub_packed(to_nat(9), []) == to_nat(9)
        assert shl_packed([], 40) == []
        assert shr_packed([], 40) == []


class TestPowmodKernel:
    @given(base=st.integers(min_value=0, max_value=(1 << 512) - 1),
           exponent=st.integers(min_value=0, max_value=(1 << 64) - 1),
           modulus=st.integers(min_value=1, max_value=(1 << 512) - 1),
           k=st.sampled_from(PACK_WIDTHS))
    @settings(max_examples=40, deadline=None)
    def test_matches_bigints(self, base, exponent, modulus, k):
        got = powmod_packed(to_nat(base), to_nat(exponent),
                            to_nat(modulus), k)
        assert from_nat(got) == pow(base, exponent, modulus)

    @pytest.mark.parametrize("modulus", (1, 2, 6, 1 << 32, (1 << 61) - 2))
    def test_degenerate_and_even_moduli(self, modulus):
        base, exponent = 0xABCDEF0123456789, 0x1F
        got = powmod_packed(to_nat(base), to_nat(exponent),
                            to_nat(modulus))
        assert from_nat(got) == pow(base, exponent, modulus)

    def test_zero_exponent_and_zero_base(self):
        modulus = to_nat(97)
        assert from_nat(powmod_packed(to_nat(5), to_nat(0), modulus)) == 1
        assert from_nat(powmod_packed(to_nat(0), to_nat(9), modulus)) == 0

    def test_zero_modulus_raises(self):
        with pytest.raises(MpnError):
            powmod_packed(to_nat(3), to_nat(4), to_nat(0))

    @given(block=st.integers(min_value=0,
                             max_value=(1 << (LIMB_BITS * PACK_LIMBS)) - 1))
    @settings(max_examples=diff_examples(), deadline=None)
    def test_negated_block_inverse(self, block):
        """ninv * m0 == -1 (mod 2^256): the quotient block that zeroes
        the accumulator's low block in every Montgomery step."""
        bits = LIMB_BITS * PACK_LIMBS
        m0 = block | 1
        neg_inverse = (-_inverse_block(m0, bits)) % (1 << bits)
        assert neg_inverse * m0 % (1 << bits) == (1 << bits) - 1

    @pytest.mark.parametrize("k", PACK_WIDTHS)
    def test_block_montgomery_product(self, k):
        """a * b * R^-1 mod N, padded to the modulus's block count."""
        bits = LIMB_BITS * k
        mask = (1 << bits) - 1
        modulus = (1 << (3 * bits - 5)) + 0x1234567 * 2 + 1
        blocks = pack_blocks(to_nat(modulus), k)
        n = len(blocks)
        neg_inverse = (-_inverse_block(blocks[0], bits)) & mask
        radix_inverse = pow(1 << (bits * n), -1, modulus)
        for a, b in ((0, 5), (1, 1), (modulus - 1, modulus - 1),
                     (modulus // 3, modulus // 7)):
            padded = [pack_blocks(to_nat(value), k) for value in (a, b)]
            padded = [x + [0] * (n - len(x)) for x in padded]
            got = _bmont_mul(padded[0], padded[1], blocks, neg_inverse,
                             bits, mask)
            assert len(got) == n
            value = sum(block << (bits * i) for i, block in enumerate(got))
            assert value == a * b * radix_inverse % modulus

