"""Residue-number-system backend: carry-free channel arithmetic + CRT.

The paper's amortized-batch regime (the CGBN comparison of Fig. 11) is
bounded by carry propagation: every limb product eventually feeds one
serial carry chain, so a batch of independent multiplies cannot use
independent workers efficiently.  An RNS decomposition removes the
chain entirely: operands map onto ``k`` pairwise-coprime 61-bit channel
moduli, every channel computes ``(a_i * b_i) mod m_i`` with *no*
interaction with any other channel, and a Chinese-remainder
reconstruction gathers the channels back into a positional value at the
very end.  Channels (for one product) and batch items (for a batch) are
therefore embarrassingly parallel across
:class:`repro.parallel.ParallelExecutor` workers.

There is no RNS modular exponentiation: a residue Montgomery multiply
pays a CRT gather and two bigint reductions, which on one interpreter
thread loses to block Montgomery on the packed backend
(:func:`repro.mpn.packed.powmod_packed`).

Boundary contract (mirrors :mod:`repro.mpn.packed`): Python's big
integers appear here as the *packed transport* of a residue system —
``nat_to_int``/``nat_from_int`` convert at entry/exit, channel residues
are machine words (< 2**61), and the only wide operations are the
per-channel ``value mod m_i`` scatters and the CRT gather, both of
which are the documented pack/unpack boundaries of this backend.

Reachability contract (RPR012): the kernels here — :func:`mul_rns`,
:func:`sqr_rns`, :func:`mul_batch_rns` — are reachable only through
the mul dispatchers' ``backend="rns"`` resolution, a lowered
``backend="rns"`` :class:`repro.plan` Plan (``plan.execute.run`` /
``plan.execute.run_rns_batch``), or the accelerator's batch entry
point; calling them by name from higher layers trips the
direct-dispatch lint rule.

The kill switch ``REPRO_RNS=0`` (declared in the env registry) removes
the batch multiply from every ``auto`` selection; explicit
``backend="rns"`` requests still execute, which is what differential
triage wants.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.mpn.nat import MpnError, Nat, nat_from_int, nat_to_int

#: Channel modulus width: 61-bit primes keep a channel product inside
#: 122 bits — one native word multiply per channel, never a carry.
MODULUS_BITS = 61

#: Radix of the word-level per-channel Montgomery reducer (R = 2**64).
WORD_BITS = 64

_WORD_MASK = (1 << WORD_BITS) - 1

#: Deterministic Miller-Rabin witness set: proves primality for every
#: n < 3.3e24 (Sorenson & Webster), far above the 61-bit channel range.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


class RnsError(MpnError):
    """The residue system cannot represent or execute this request."""


class RnsOverflowError(RnsError):
    """A value exceeds the channel set's CRT capacity."""


# -- channel modulus set ------------------------------------------------------


def _small_primes(bound: int = 2048) -> Tuple[int, ...]:
    sieve = bytearray([1]) * bound
    sieve[0:2] = b"\x00\x00"
    for value in range(2, int(bound ** 0.5) + 1):
        if sieve[value]:
            sieve[value * value::value] = bytes(
                len(sieve[value * value::value]))
    return tuple(index for index in range(bound) if sieve[index])


_TRIAL_PRIMES = _small_primes()


def _is_prime(candidate: int) -> bool:
    """Deterministic Miller-Rabin for the 61-bit channel range."""
    for prime in _TRIAL_PRIMES:
        if candidate % prime == 0:
            return candidate == prime
    d, s = candidate - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for witness in _MR_WITNESSES:
        x = pow(witness, d, candidate)
        if x in (1, candidate - 1):
            continue
        for _ in range(s - 1):
            x = (x * x) % candidate
            if x == candidate - 1:
                break
        else:
            return False
    return True


#: Channel primes, descending from 2**61 - 1 (itself a Mersenne prime);
#: extended on demand and shared by every context in the process.
_PRIME_TABLE: List[int] = []
_NEXT_CANDIDATE = [(1 << MODULUS_BITS) - 1]


def channel_moduli(count: int, offset: int = 0) -> Tuple[int, ...]:
    """The ``count`` channel primes starting at table index ``offset``.

    Deterministic across processes and runs: the table is always the
    primes descending from ``2**61 - 1``, so a worker process derives
    exactly the channel set its parent used.
    """
    needed = offset + count
    candidate = _NEXT_CANDIDATE[0]
    while len(_PRIME_TABLE) < needed:
        if _is_prime(candidate):
            _PRIME_TABLE.append(candidate)
        candidate -= 2
    _NEXT_CANDIDATE[0] = candidate
    return tuple(_PRIME_TABLE[offset:needed])


class RnsContext:
    """One residue channel set with its CRT reconstruction constants."""

    __slots__ = ("moduli", "modulus_product", "capacity_bits",
                 "crt_terms")

    def __init__(self, moduli: Sequence[int]) -> None:
        if not moduli:
            raise RnsError("RnsContext needs at least one channel")
        self.moduli = tuple(moduli)
        product = 1
        for modulus in self.moduli:
            product *= modulus
        self.modulus_product = product
        #: Largest width whose values reconstruct uniquely.
        self.capacity_bits = product.bit_length() - 1
        # x = sum(x_i * crt_terms_i) mod M, with
        # crt_terms_i = M_i * (M_i^-1 mod m_i)  (M_i = M / m_i).
        terms = []
        for modulus in self.moduli:
            cofactor = product // modulus
            terms.append(cofactor * pow(cofactor, -1, modulus))
        self.crt_terms = tuple(terms)

    def encode(self, value: int) -> Tuple[int, ...]:
        """Scatter one non-negative value onto the channels."""
        if value < 0:
            raise RnsError("RNS channels carry naturals only")
        if value.bit_length() > self.capacity_bits:
            raise RnsOverflowError(
                "value of %d bits exceeds the %d-channel capacity of "
                "%d bits" % (value.bit_length(), len(self.moduli),
                             self.capacity_bits))
        return tuple(value % modulus for modulus in self.moduli)

    def decode(self, residues: Sequence[int]) -> int:
        """CRT gather: the unique value < M with these residues."""
        if len(residues) != len(self.moduli):
            raise RnsError("residue vector has %d channels, context has "
                           "%d" % (len(residues), len(self.moduli)))
        total = 0
        for residue, term in zip(residues, self.crt_terms):
            total += residue * term
        return total % self.modulus_product


#: Process-wide mul contexts keyed by channel count (prime table is
#: shared, so equal counts mean identical channel sets).
_CONTEXT_CACHE: Dict[int, RnsContext] = {}


def context_for_bits(bits: int) -> RnsContext:
    """The smallest cached channel set whose capacity covers ``bits``."""
    channels = max(1, -(-max(1, bits) // MODULUS_BITS) + 1)
    while True:
        context = _CONTEXT_CACHE.get(channels)
        if context is None:
            context = RnsContext(channel_moduli(channels))
            _CONTEXT_CACHE[channels] = context
        if context.capacity_bits >= bits:
            return context
        channels += 1


# -- per-channel Montgomery ---------------------------------------------------


class ChannelMontgomery:
    """Word-level Montgomery reducer for one odd channel modulus.

    ``R = 2**64``: a channel product fits in 122 bits, so the REDC step
    is two word multiplies and a shift — the per-residue modular
    multiply of the paper's carry-free inner loop.  ``mont_mul`` maps
    ``(aR, bR) -> abR``; keeping one factor's plain form (a constant
    stored as ``cR``) yields plain results: ``mont_mul(x, cR) = xc``.
    """

    __slots__ = ("modulus", "neg_inverse", "r_squared")

    def __init__(self, modulus: int) -> None:
        if modulus % 2 == 0 or modulus <= 1:
            raise RnsError("channel Montgomery needs an odd modulus > 1")
        self.modulus = modulus
        self.neg_inverse = (-pow(modulus, -1, 1 << WORD_BITS)) & _WORD_MASK
        self.r_squared = (1 << (2 * WORD_BITS)) % modulus

    def mont_mul(self, a: int, b: int) -> int:
        """REDC(a * b) = a * b * R^-1 mod m, for a, b < m."""
        t = a * b
        u = ((t & _WORD_MASK) * self.neg_inverse) & _WORD_MASK
        reduced = (t + u * self.modulus) >> WORD_BITS
        return reduced - self.modulus if reduced >= self.modulus \
            else reduced

    def to_mont(self, value: int) -> int:
        """Enter the channel's Montgomery domain (value < m)."""
        return self.mont_mul(value, self.r_squared)

    def from_mont(self, value: int) -> int:
        """Leave the channel's Montgomery domain."""
        return self.mont_mul(value, 1)


# -- multiplication -----------------------------------------------------------


def _channel_products(a: int, b: int, moduli: Sequence[int],
                      terms: Sequence[int]) -> int:
    """Partial CRT sum of one contiguous channel slice.

    Each channel's work — two scatter reductions, one word product,
    one weighted CRT term — touches no other channel, which is exactly
    why a slice can live on its own worker.
    """
    total = 0
    for modulus, term in zip(moduli, terms):
        total += ((a % modulus) * (b % modulus) % modulus) * term
    return total


def _mul_channel_slice(task: Tuple[int, int, Tuple[int, ...],
                                   Tuple[int, ...]]) -> int:
    """Worker-side channel slice (top-level, hence picklable)."""
    a, b, moduli, terms = task
    return _channel_products(a, b, moduli, terms)


def mul_rns(a: Nat, b: Nat, executor=None, context: Optional[RnsContext]
            = None, timeout: Optional[float] = None) -> Nat:
    """Exact product via residue channels + CRT reconstruction.

    With an ``executor`` (and more than one worker), the channel set is
    split into contiguous slices and each worker returns its slice's
    partial CRT sum — the gather itself is channel-parallel because the
    reconstruction is a plain sum of weighted channel terms.  The
    result is bit-identical at every worker count (integer partial sums
    commute exactly).
    """
    value_a, value_b = nat_to_int(a), nat_to_int(b)
    if value_a == 0 or value_b == 0:
        return []
    bits = value_a.bit_length() + value_b.bit_length()
    if context is None:
        context = context_for_bits(bits)
    elif bits > context.capacity_bits:
        raise RnsOverflowError(
            "product of %d bits exceeds the explicit context capacity "
            "of %d bits" % (bits, context.capacity_bits))
    moduli, terms = context.moduli, context.crt_terms
    if executor is not None and executor.workers > 1 and len(moduli) > 1:
        slices = min(executor.workers, len(moduli))
        step = -(-len(moduli) // slices)
        tasks = [(value_a, value_b, moduli[start:start + step],
                  terms[start:start + step])
                 for start in range(0, len(moduli), step)]
        partials = executor.map(_mul_channel_slice, tasks,
                                timeout=timeout)
        total = sum(partials) % context.modulus_product
    else:
        total = _channel_products(value_a, value_b, moduli, terms) \
            % context.modulus_product
    return nat_from_int(total)


def sqr_rns(a: Nat, executor=None) -> Nat:
    """Square via the residue channels (same pipeline as mul)."""
    return mul_rns(a, a, executor=executor)


def _mul_pair(task: Tuple[int, int]) -> int:
    """Worker-side whole-pair product (top-level, hence picklable)."""
    a, b = task
    if a == 0 or b == 0:
        return 0
    context = context_for_bits(a.bit_length() + b.bit_length())
    return _channel_products(a, b, context.moduli, context.crt_terms) \
        % context.modulus_product


def mul_batch_rns(pairs: Sequence[Tuple[Nat, Nat]], executor=None,
                  timeout: Optional[float] = None) -> List[Nat]:
    """Products of independent pairs, fanned across executor workers.

    Batch items are pair-major tasks: each worker runs the full
    scatter/channel-multiply/gather for its pairs, so the CRT gather
    parallelizes along with the channel work (the amortized regime the
    paper's CGBN comparison measures).  Order and bits are identical to
    the serial path at every worker count.
    """
    tasks = [(nat_to_int(a), nat_to_int(b)) for a, b in pairs]
    if executor is not None and executor.workers > 1 and len(tasks) > 1:
        products = executor.map(_mul_pair, tasks, timeout=timeout)
    else:
        products = [_mul_pair(task) for task in tasks]
    return [nat_from_int(product) for product in products]
