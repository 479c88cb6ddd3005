"""Property suite for the residue-number-system kernel (ISSUE 7).

The rns module's invariants, independent of any dispatcher: channel
sets are coprime 61-bit primes with honest capacity accounting;
encode/decode is an exact round trip up to (and an error past) that
capacity; the per-channel Montgomery reducer equals plain modular
multiplication; the mul/sqr kernels match Python's bigints on
arbitrary widths.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpn import nat
from repro.mpn.rns import (MODULUS_BITS, ChannelMontgomery, RnsContext,
                           RnsError, RnsOverflowError, channel_moduli,
                           context_for_bits, mul_rns, sqr_rns)

from tests.conftest import from_nat, to_nat

#: Wide-but-affordable value widths for round-trip properties.
values = st.one_of(
    st.integers(min_value=0, max_value=10),
    st.integers(min_value=0, max_value=(1 << 64) - 1),
    st.integers(min_value=0, max_value=(1 << 1200) - 1),
    st.integers(min_value=1 << 4000, max_value=(1 << 4096) - 1),
)


class TestChannelModuli:
    @pytest.mark.parametrize("count", (1, 2, 7, 40))
    def test_primes_are_61_bit_and_coprime(self, count):
        moduli = channel_moduli(count)
        assert len(moduli) == count
        assert len(set(moduli)) == count
        for modulus in moduli:
            assert modulus.bit_length() == MODULUS_BITS
            assert modulus % 2 == 1
        for index, first in enumerate(moduli):
            for second in moduli[index + 1:]:
                assert math.gcd(first, second) == 1

    def test_offset_windows_are_disjoint_and_consistent(self):
        """Workers re-derive exactly the parent's channel set, and the
        dual-base offset never overlaps base 1."""
        first = channel_moduli(6)
        assert channel_moduli(6) == first
        assert channel_moduli(3) == first[:3]
        second = channel_moduli(6, offset=6)
        assert not set(first) & set(second)

    def test_descending_from_mersenne_61(self):
        moduli = channel_moduli(3)
        assert moduli[0] == (1 << 61) - 1  # 2**61 - 1 is prime
        assert moduli[0] > moduli[1] > moduli[2]


class TestContextRoundTrip:
    @given(value=values)
    @settings(max_examples=50, deadline=None)
    def test_encode_decode_round_trip(self, value):
        context = context_for_bits(max(1, value.bit_length()))
        assert context.decode(context.encode(value)) == value

    @pytest.mark.parametrize("bits", (1, 60, 61, 122, 4096))
    def test_capacity_is_honest(self, bits):
        context = context_for_bits(bits)
        assert context.capacity_bits >= bits
        assert context.capacity_bits \
            == context.modulus_product.bit_length() - 1
        top = (1 << context.capacity_bits) - 1
        assert context.decode(context.encode(top)) == top
        with pytest.raises(RnsOverflowError):
            context.encode(1 << context.capacity_bits)

    def test_error_paths(self):
        context = RnsContext(channel_moduli(2))
        with pytest.raises(RnsError):
            context.encode(-1)
        with pytest.raises(RnsError):
            context.decode((1,))  # wrong channel count
        with pytest.raises(RnsError):
            RnsContext(())


class TestChannelMontgomery:
    @given(a=st.integers(min_value=0), b=st.integers(min_value=0),
           index=st.integers(min_value=0, max_value=7))
    @settings(max_examples=60, deadline=None)
    def test_equals_plain_modmul(self, a, b, index):
        modulus = channel_moduli(8)[index]
        mont = ChannelMontgomery(modulus)
        a, b = a % modulus, b % modulus
        assert mont.from_mont(mont.mont_mul(mont.to_mont(a),
                                            mont.to_mont(b))) \
            == (a * b) % modulus

    def test_constant_form_yields_plain_products(self):
        modulus = channel_moduli(1)[0]
        mont = ChannelMontgomery(modulus)
        constant = 0xDEADBEEF % modulus
        stored = mont.to_mont(constant)  # cR
        for value in (0, 1, modulus - 1, 123456789):
            assert mont.mont_mul(value, stored) \
                == (value * constant) % modulus

    def test_rejects_even_or_unit_moduli(self):
        for bad in (0, 1, 2, 10):
            with pytest.raises(RnsError):
                ChannelMontgomery(bad)


class TestMulKernel:
    @given(a=values, b=values)
    @settings(max_examples=40, deadline=None)
    def test_matches_bigints(self, a, b):
        assert from_nat(mul_rns(to_nat(a), to_nat(b))) == a * b

    @given(a=values)
    @settings(max_examples=25, deadline=None)
    def test_sqr_matches_bigints(self, a):
        assert from_nat(sqr_rns(to_nat(a))) == a * a

    def test_explicit_context_overflow_raises(self):
        context = RnsContext(channel_moduli(2))
        wide = 1 << context.capacity_bits
        with pytest.raises(RnsOverflowError):
            mul_rns(to_nat(wide), to_nat(wide), context=context)

