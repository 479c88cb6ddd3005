"""Seeded input generators for the three workloads.

They live in the benchmark, not in ``repro``, so that no change to the
program can change a workload.  The same seed gives the same inputs;
the program only ever sees the generated values.
"""

from __future__ import annotations

import math
import random
from typing import Any, Dict, List, Tuple

# -- apps ---------------------------------------------------------------------

#: Table II sizes, fixed for every seed.
PI_DIGITS = 20_000
RSA_BITS = 2048
FRAC_ZOOM = 320
FRAC_PRECISION = 1024
ZKCM_QUBITS = 5
ZKCM_PRECISION = 1024
APPS = ("pi", "rsa", "frac", "zkcm")


def stream_rng(seed: int, stream: str) -> random.Random:
    return random.Random("%s-%d" % (stream, seed))


def _is_probable_prime(n: int, rng: random.Random) -> bool:
    for prime in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        if n % prime == 0:
            return n == prime
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for _ in range(24):
        x = pow(rng.randrange(2, n - 1), d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime(bits: int, rng: random.Random) -> int:
    while True:
        candidate = rng.getrandbits(bits) | (3 << (bits - 2)) | 1
        if _is_probable_prime(candidate, rng):
            return candidate


def rsa_key(seed: int, bits: int = RSA_BITS) -> Dict[str, int]:
    """An RSA key with CRT parts, derived from the seed with Python ints."""
    rng = stream_rng(seed, "rsa-key")
    e = 65537
    while True:
        p, q = _prime(bits // 2, rng), _prime(bits // 2, rng)
        phi = (p - 1) * (q - 1)
        if p == q or math.gcd(e, phi) != 1 or (p * q).bit_length() != bits:
            continue
        d = pow(e, -1, phi)
        return {"n": p * q, "e": e, "d": d, "p": p, "q": q,
                "dp": d % (p - 1), "dq": d % (q - 1), "qinv": pow(q, -1, p)}


# -- serve_small --------------------------------------------------------------

#: Open-loop arrival rate, fixed so that runs compare like with like.
#: With 2 clients in a closed loop on a 2-CPU host this mix reached
#: 320-350 requests/s; 160/s (half of that) saturated the 2 connections
#: whenever the shared host slowed down, so the rate is about half of
#: the capacity left when the host runs 1.5x slower.
SMALL_RATE_RPS = 110.0

SMALL_MIX = (("mul", 40), ("div", 25), ("powmod", 15),
             ("model_cycles", 15), ("pi_digits", 5))
#: Sizes come from short ladders so that (op, limbs) pairs, plans and
#: result-cache keys repeat, as they do for a real small-job service.
SMALL_BITS = (128, 256, 384, 512, 768, 1024, 1536, 2048)
SMALL_POWMOD_BITS = (128, 192, 256, 384, 512)
SMALL_MODEL_OPS = ("mul", "div", "add", "powmod")
SMALL_MODEL_BITS_A = (1024, 4096, 16384, 65536)
SMALL_MODEL_BITS_B = (256, 1024, 4096)
SMALL_PI_DIGITS = (20, 40, 60, 80, 100, 120)


def _operand(rng: random.Random, bits: int) -> int:
    return rng.getrandbits(bits) | (1 << (bits - 1))


def _small_job(rng: random.Random, op: str) -> Dict[str, Any]:
    if op == "mul":
        params = {"a": hex(_operand(rng, rng.choice(SMALL_BITS))),
                  "b": hex(_operand(rng, rng.choice(SMALL_BITS)))}
    elif op == "div":
        bits_a = rng.choice(SMALL_BITS[1:])
        bits_b = rng.choice([b for b in SMALL_BITS if b <= bits_a // 2]
                            or [64])
        params = {"a": hex(_operand(rng, bits_a)),
                  "b": hex(_operand(rng, bits_b))}
    elif op == "powmod":
        bits = rng.choice(SMALL_POWMOD_BITS)
        modulus = _operand(rng, bits) | 1
        params = {"base": hex(rng.randrange(2, modulus)),
                  "exp": hex(_operand(rng, 16)), "mod": hex(modulus)}
    elif op == "model_cycles":
        params = {"op": rng.choice(SMALL_MODEL_OPS),
                  "bits_a": rng.choice(SMALL_MODEL_BITS_A),
                  "bits_b": rng.choice(SMALL_MODEL_BITS_B)}
    else:
        params = {"digits": rng.choice(SMALL_PI_DIGITS)}
    return {"op": op, "params": params}


def serve_small(seed: int, seconds: float,
                rate: float = SMALL_RATE_RPS
                ) -> Tuple[List[Dict[str, Any]], List[float]]:
    """Jobs and their Poisson due times (seconds from the start)."""
    rng = stream_rng(seed, "serve_small")
    ops = [op for op, weight in SMALL_MIX for _ in range(weight)]
    jobs: List[Dict[str, Any]] = []
    due: List[float] = []
    at = 0.0
    while True:
        at += rng.expovariate(rate)
        if at >= seconds:
            break
        job = _small_job(rng, rng.choice(ops))
        job["id"] = "pb-%d" % len(jobs)
        jobs.append(job)
        due.append(at)
    return jobs, due


# -- serve_large --------------------------------------------------------------

#: One block of the closed-loop mix: each size stratum once, with the
#: long jobs (powmod, pi_digits) spread evenly through it.  The op order
#: is fixed and the seed only picks sizes, so the work in a run, and
#: which long jobs overlap, barely depend on the seed, while the exact
#: sizes, and so the plans, rarely repeat.
LARGE_ORDER = ("powmod", "mul", "div", "mul", "div", "mul",
               "pi_digits", "div", "mul", "div", "mul", "div",
               "powmod", "mul", "div", "mul", "div", "mul",
               "pi_digits", "div", "mul", "div", "mul", "div")
LARGE_BLOCK = tuple((op, LARGE_ORDER.count(op))
                    for op in ("mul", "div", "powmod", "pi_digits"))
LARGE_BLOCK_JOBS = len(LARGE_ORDER)
LARGE_MUL_BITS = (40_000, 200_000)
LARGE_DIV_BITS = (8_000, 64_000)
LARGE_POWMOD_BITS = (1024, 2048)
LARGE_PI_DIGITS = (2_000, 20_000)


def _stratum(rng: random.Random, low: float, high: float, index: int,
             count: int, log_scale: bool = False) -> int:
    if log_scale:
        low, high = math.log(low), math.log(high)
    value = low + (high - low) * (index + rng.random()) / count
    return int(math.exp(value) if log_scale else value)


def _large_job(rng: random.Random, op: str, index: int,
               count: int) -> Dict[str, Any]:
    if op == "mul":
        params = {"a": hex(_operand(rng, _stratum(rng, *LARGE_MUL_BITS,
                                                  index, count))),
                  "b": hex(_operand(rng, _stratum(rng, *LARGE_MUL_BITS,
                                                  count - 1 - index,
                                                  count)))}
    elif op == "div":
        bits = _stratum(rng, *LARGE_DIV_BITS, index, count, log_scale=True)
        params = {"a": hex(_operand(rng, 2 * bits)),
                  "b": hex(_operand(rng, bits))}
    elif op == "powmod":
        bits = LARGE_POWMOD_BITS[index]
        modulus = _operand(rng, bits) | 1
        params = {"base": hex(rng.randrange(2, modulus)),
                  "exp": hex(_operand(rng, bits)), "mod": hex(modulus)}
    else:
        params = {"digits": _stratum(rng, *LARGE_PI_DIGITS, index, count)}
    return {"op": op, "params": params}


def serve_large(seed: int, blocks: int) -> List[Dict[str, Any]]:
    rng = stream_rng(seed, "serve_large")
    jobs: List[Dict[str, Any]] = []
    counts = dict(LARGE_BLOCK)
    for _ in range(blocks):
        strata = {op: list(range(count)) for op, count in counts.items()}
        rng.shuffle(strata["mul"])
        rng.shuffle(strata["div"])
        for op in LARGE_ORDER:
            job = _large_job(rng, op, strata[op].pop(0), counts[op])
            job["id"] = "pb-%d" % len(jobs)
            jobs.append(job)
    return jobs


# -- warm passes --------------------------------------------------------------

def warm_jobs(workload: str) -> List[Dict[str, Any]]:
    """One untimed job per op, the same for every seed, so that set-up
    time does not depend on the seed."""
    rng = stream_rng(0, "warm-" + workload)
    if workload == "serve_small":
        jobs = [_small_job(rng, op) for op, _ in SMALL_MIX]
    else:
        jobs = [_large_job(rng, op, 0, count) for op, count in LARGE_BLOCK]
    for index, job in enumerate(jobs):
        job["id"] = "warm-%d" % index
    return jobs
