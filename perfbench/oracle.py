"""Independent answers, computed with Python ints and never with repro.

Everything here runs outside the timed regions.  ``model_cycles`` is
the one exception: the cycle model has no other reference, so its
answers come from ``repro.serve.jobs.evaluate`` in the layer child.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from decimal import Decimal, localcontext
from functools import lru_cache
from typing import Any, Dict, List, Optional

from common import BENCH_DIR

#: QFT amplitudes must match the closed form to within this.  The app
#: computes at 1024 bits (~1e-308); the bound leaves room for rounding
#: accumulated over the 15 gates of a 5-qubit QFT.
ZKCM_TOLERANCE = Decimal("1e-300")
_FIXED_BITS = 1200

sys.set_int_max_str_digits(0)


# -- pi -----------------------------------------------------------------------

def _split(a: int, b: int):
    if b - a == 1:
        if a == 0:
            p = q = 1
        else:
            p = (6 * a - 5) * (2 * a - 1) * (6 * a - 1)
            q = a * a * a * 10939058860032000
        t = p * (13591409 + 545140134 * a)
        return p, q, -t if a & 1 else t
    mid = (a + b) // 2
    p1, q1, t1 = _split(a, mid)
    p2, q2, t2 = _split(mid, b)
    return p1 * p2, q1 * q2, t1 * q2 + p1 * t2


@lru_cache(maxsize=1)
def pi_text(digits: int) -> str:
    """``"3."`` and the first ``digits`` decimals of pi (Chudnovsky)."""
    guard = 16
    scale = digits + guard
    _, q, t = _split(0, scale // 14 + 2)
    one = 10 ** scale
    value = q * 426880 * math.isqrt(10005 * one * one) // t
    text = str(value // 10 ** guard)
    return text[0] + "." + text[1:]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


# -- zkcm ---------------------------------------------------------------------

@lru_cache(maxsize=1)
def _qft_table():
    """cos and sin of 2*pi*k/32 over sqrt(32), as 1200-bit fixed point."""
    bits = _FIXED_BITS

    def atan_inv(n: int) -> int:
        one = 1 << (bits + 16)
        x = total = one // n
        k, sign = 1, -1
        while x:
            x //= n * n
            k += 2
            total += sign * (x // k)
            sign = -sign
        return total

    pi = (16 * atan_inv(5) - 4 * atan_inv(239)) >> 16
    size = 32
    scale = math.isqrt((1 << (2 * bits)) // size)
    table = []
    for k in range(size):
        theta = 2 * pi * k // size
        cos = term_c = 1 << bits
        sin = term_s = theta
        n = 1
        while term_c or term_s:
            term_c = -((term_c * theta >> bits) * theta >> bits)
            term_c //= (2 * n - 1) * (2 * n)
            term_s = -((term_s * theta >> bits) * theta >> bits)
            term_s //= (2 * n) * (2 * n + 1)
            cos += term_c
            sin += term_s
            n += 1
        table.append((cos * scale >> bits, sin * scale >> bits))
    return table


def qft_error(basis: int, amplitudes: List[List[str]]) -> Decimal:
    """Largest |amplitude - exp(2 pi i basis y / 32) / sqrt(32)|
    component over the 32 outputs (decimal strings from the app)."""
    table = _qft_table()
    worst = Decimal(0)
    with localcontext() as context:
        context.prec = 400
        unit = Decimal(2) ** _FIXED_BITS
        for y, (re, im) in enumerate(amplitudes):
            cos, sin = table[basis * y % 32]
            worst = max(worst, abs(Decimal(re) - Decimal(cos) / unit),
                        abs(Decimal(im) - Decimal(sin) / unit))
    return worst


# -- frac ---------------------------------------------------------------------

def frac_image() -> List[List[int]]:
    """The escape-time image recorded when the benchmark was written."""
    with open(BENCH_DIR / "frac_image.json", encoding="utf-8") as handle:
        return json.load(handle)["iterations"]


# -- serve jobs ---------------------------------------------------------------

def job_error(job: Dict[str, Any], result: Dict[str, Any],
              model_answers: Dict[str, Any],
              pi_reference: str) -> Optional[str]:
    """``None`` when ``result`` is the right answer to ``job``."""
    op, params = job["op"], job["params"]
    if op == "mul":
        expected = {"product": hex(int(params["a"], 16)
                                   * int(params["b"], 16))}
    elif op == "div":
        quotient, remainder = divmod(int(params["a"], 16),
                                     int(params["b"], 16))
        expected = {"quotient": hex(quotient), "remainder": hex(remainder)}
    elif op == "powmod":
        expected = {"value": hex(pow(int(params["base"], 16),
                                     int(params["exp"], 16),
                                     int(params["mod"], 16)))}
    elif op == "pi_digits":
        if result.get("digits") == pi_reference[:params["digits"] + 2]:
            return None
        return "pi_digits %s: wrong digits" % job["id"]
    else:
        expected = model_answers[job["id"]]
    if result != expected:
        return "%s %s: wrong answer" % (op, job["id"])
    return None
