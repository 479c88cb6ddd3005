"""Seeded packed-kernel dispatch violations (linted, never imported).

Lives under ``apps/`` — above mpn, where the block-packed kernels may
only be reached through the dispatchers or a lowered ``packed`` plan.
Calling them by name here must trip RPR012 exactly like calling the
limb kernels does.
"""

from repro.mpn.packed import divmod_packed, mul_packed, powmod_packed


def sneaky_packed_mul(a, b):                       # RPR012
    return mul_packed(a, b)


def sneaky_packed_div(a, b):                       # RPR012
    quotient, _ = divmod_packed(a, b)
    return quotient


def sneaky_packed_powmod(base, exponent, modulus):  # RPR012
    return powmod_packed(base, exponent, modulus)
