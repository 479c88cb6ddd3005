"""Pi: Chudnovsky digits of pi with binary splitting (Algorithm 1).

The paper's flagship few-operand workload: the Chudnovsky series

    1/pi = 12 * sum_b (-1)^b (6b)! (13591409 + 545140134 b)
                      / ((3b)!(b!)^3 640320^(3b + 3/2))

evaluated by binary splitting into the P/Q/R recurrences of Algorithm
1, with the final square root and division done in MPF.  Binary
splitting turns the series into a tree of ever-larger integer
multiplications — the "many small-bitwidth multiplications" that make
Pi the hardest of the four applications to accelerate (Section VII-C).

Each series term contributes ~14.18 decimal digits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro import profiling
from repro.mpf import MPF
from repro.mpz import MPZ

#: Decimal digits contributed per Chudnovsky term: log10(640320^3 / 24/ 72).
DIGITS_PER_TERM = 14.181647462725477

_A = 13591409
_B = 545140134
C3_OVER_24 = 10939058860032000  # 640320^3 / 24


@dataclass
class PiResult:
    """Digits of pi and the work that produced them."""

    digits: str          # "3.1415..." with the requested digit count
    terms: int
    precision_bits: int


def _binary_split(a: int, b: int) -> Tuple[MPZ, MPZ, MPZ]:
    """(P, Q, R) over the term range (a, b] per Algorithm 1."""
    if b == a + 1:
        r = MPZ((2 * b - 1) * (6 * b - 5) * (6 * b - 1))
        p = r * (_A + _B * b)
        if b & 1:
            p = -p
        q = MPZ(b) * MPZ(b) * MPZ(b) * C3_OVER_24
        return p, q, r
    mid = (a + b) // 2
    p_left, q_left, r_left = _binary_split(a, mid)
    p_right, q_right, r_right = _binary_split(mid, b)
    return (p_left * q_right + p_right * r_left,
            q_left * q_right,
            r_left * r_right)


#: Extra decimal digits computed beyond the request and cut off.
GUARD_DIGITS = 12


def series_size(digits: int,
                guard_digits: int = GUARD_DIGITS) -> Tuple[int, int]:
    """(series terms, working precision in bits) for ``digits`` digits.

    The plan lowering prices ``pi_digits`` jobs from the same numbers.
    """
    total_digits = digits + guard_digits
    terms = max(2, int(total_digits / DIGITS_PER_TERM) + 2)
    precision = int(total_digits * 3.3219280948873626) + 64
    return terms, precision


def compute_pi(digits: int, guard_digits: int = GUARD_DIGITS) -> PiResult:
    """Compute pi to the requested number of decimal digits."""
    if digits < 1:
        raise ValueError("need at least one digit of pi")
    total_digits = digits + guard_digits
    terms, precision = series_size(digits, guard_digits)

    p, q, _ = _binary_split(0, terms)
    # pi = 426880 * sqrt(10005) * Q / (13591409*Q + P)
    q_float = MPF(q, precision)
    numerator = MPF(10005, precision).sqrt() * 426880 * q_float
    denominator = MPF(q * _A + p, precision)
    pi = numerator / denominator

    text = pi.to_decimal_string(total_digits)
    integral, fractional = text.split(".")
    return PiResult(integral + "." + fractional[:digits],
                    terms, precision)


def pi_machin(digits: int) -> str:
    """pi by Machin's formula: 16*atan(1/5) - 4*atan(1/239).

    A third, independent algorithm (after Chudnovsky binary splitting
    and the Salamin-Brent AGM) — three disjoint decompositions agreeing
    digit-for-digit is the stack's strongest self-check.
    """
    from repro.mpf import MPF
    from repro.mpf.transcendental import atan
    precision = int(digits * 3.33) + 64
    fifth = MPF.from_ratio(1, 5, precision)
    inv239 = MPF.from_ratio(1, 239, precision)
    value = atan(fifth, precision) * 16 - atan(inv239, precision) * 4
    return value.to_decimal_string(digits)


def run(digits: int = 100) -> PiResult:
    """Entry point used by benchmarks and examples."""
    return compute_pi(digits)


def trace_run(digits: int = 100):
    """Run under the operator profiler; returns (result, trace)."""
    with profiling.session() as trace:
        result = compute_pi(digits)
    return result, trace


#: First 100 digits of pi, for validation.
PI_REFERENCE_100 = (
    "3."
    "1415926535897932384626433832795028841971693993751"
    "058209749445923078164062862089986280348253421170679"
)
