"""The block-packed backend is bit-identical to the limb backend.

The packed kernels exist purely for speed, so the contract is strict:
at every size — and especially straddling the ``packed_mul_limbs`` /
``packed_div_limbs`` crossovers where dispatch flips backends — the
mpn dispatchers must return the same limbs whichever backend runs, and
both must match Python's bigints.  Powmod has no crossover (``auto`` is
always packed block Montgomery), so it is swept across block
boundaries instead.  The plan layer rides the same selection, so
lowered ``packed`` plans are checked against ``library`` plans and the
memo-key salting is checked against threshold changes.
"""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import mpn
from repro.mpn import packed as _packed
from repro.mpn.div import divmod_nat
from repro.mpn.mul import GMP_POLICY, mul, sqr
from repro.mpn.packed import LINEAR_PACK_MIN_LIMBS, PACK_LIMBS
from repro.parallel import ParallelExecutor
from repro.plan import OpSpec, select
from repro.plan.execute import plan_for_job, run
from repro.plan.lowering import lower
from repro.serve.jobs import evaluate

from tests.conftest import from_nat, to_nat
from tests.differential.conftest import diff_examples, naturals_of_bits

pytestmark = pytest.mark.differential


def _operand(limbs: int, seed: int) -> int:
    rng = random.Random(0xB10C ^ seed)
    return rng.getrandbits(32 * limbs) | (1 << (32 * limbs - 1))


def _crossover_band(threshold: int):
    """Limb counts straddling one backend crossover, plus deep sizes."""
    band = {1, max(1, threshold - 1), threshold, threshold + 1,
            4 * threshold + 1, 64, 200}
    return sorted(band)


class TestMulCrossover:
    @pytest.mark.parametrize(
        "limbs", _crossover_band(select.active().packed_mul_limbs))
    def test_backends_agree_at_boundary(self, limbs):
        a, b = _operand(limbs, 1), _operand(limbs, 2)
        an, bn = to_nat(a), to_nat(b)
        limb = mul(an, bn, GMP_POLICY, backend="limb")
        packed = mul(an, bn, GMP_POLICY, backend="packed")
        auto = mul(an, bn, GMP_POLICY)
        assert limb == packed == auto
        assert from_nat(limb) == a * b

    @pytest.mark.parametrize(
        "limbs", _crossover_band(select.active().packed_mul_limbs))
    def test_sqr_backends_agree_at_boundary(self, limbs):
        a = _operand(limbs, 3)
        an = to_nat(a)
        assert sqr(an, GMP_POLICY, backend="limb") \
            == sqr(an, GMP_POLICY, backend="packed") \
            == sqr(an, GMP_POLICY)
        assert from_nat(sqr(an, GMP_POLICY)) == a * a

    def test_auto_resolution_flips_exactly_at_threshold(self):
        threshold = select.active().packed_mul_limbs
        assert threshold > 0, "container tuning should enable packed"
        assert select.mul_backend(threshold - 1) == "limb"
        assert select.mul_backend(threshold) == "packed"

    def test_kill_switch_forces_limb(self, monkeypatch):
        monkeypatch.setenv(select.PACKED_ENV, "0")
        threshold = select.active().packed_mul_limbs
        assert select.mul_backend(threshold + 100) == "limb"
        assert select.div_backend(threshold + 100) == "limb"

    def test_zero_threshold_disables_backend(self):
        disabled = dataclasses.replace(select.active(),
                                       packed_mul_limbs=0)
        assert select.mul_backend(10 ** 6, disabled) == "limb"

    @given(a=naturals_of_bits(4096), b=naturals_of_bits(4096))
    @settings(max_examples=diff_examples(), deadline=None)
    def test_hypothesis_mul_three_way(self, a, b):
        an, bn = to_nat(a), to_nat(b)
        packed = mul(an, bn, GMP_POLICY, backend="packed")
        assert packed == mul(an, bn, GMP_POLICY, backend="limb")
        assert from_nat(packed) == a * b


class TestDivCrossover:
    @pytest.mark.parametrize(
        "divisor_limbs", _crossover_band(select.active().packed_div_limbs))
    def test_backends_agree_at_boundary(self, divisor_limbs):
        a = _operand(2 * divisor_limbs + 3, 4)
        b = _operand(divisor_limbs, 5)
        an, bn = to_nat(a), to_nat(b)

        def limb_mul(x, y):
            return mul(x, y, GMP_POLICY, backend="limb")

        limb = divmod_nat(an, bn, limb_mul, backend="limb")
        packed = divmod_nat(an, bn, backend="packed")
        auto = divmod_nat(an, bn)
        assert limb == packed == auto
        quotient, remainder = packed
        assert (from_nat(quotient), from_nat(remainder)) == divmod(a, b)

    def test_auto_resolution_flips_exactly_at_threshold(self):
        threshold = select.active().packed_div_limbs
        assert threshold > 0, "container tuning should enable packed"
        assert select.div_backend(threshold - 1) == "limb"
        assert select.div_backend(threshold) == "packed"

    @given(a=naturals_of_bits(4096), b=naturals_of_bits(2048, 1))
    @settings(max_examples=diff_examples(), deadline=None)
    def test_hypothesis_divmod_three_way(self, a, b):
        an, bn = to_nat(a), to_nat(b)
        packed = divmod_nat(an, bn, backend="packed")
        assert packed == divmod_nat(an, bn, backend="limb")
        assert (from_nat(packed[0]), from_nat(packed[1])) \
            == divmod(a, b)

    def test_mod_backends_agree(self):
        a, b = _operand(40, 6), _operand(9, 7)
        an, bn = to_nat(a), to_nat(b)
        assert mpn.mod(an, bn, backend="packed") \
            == mpn.mod(an, bn, backend="limb")
        assert from_nat(mpn.mod(an, bn)) == a % b


#: Modulus widths (limbs): every width through two blocks plus one,
#: and one limb either side of 8, 16, 32 and 64.
POWMOD_WIDTHS = sorted(set(range(1, 2 * PACK_LIMBS + 2))
                       | {width + step for width in (8, 16, 32, 64)
                          for step in (-1, 0, 1)})


def _powmod_three_way(base: int, exponent: int, modulus: int) -> None:
    bn, en, mn = to_nat(base), to_nat(exponent), to_nat(modulus)
    packed = mpn.powmod(bn, en, mn, backend="packed")
    assert packed == mpn.powmod(bn, en, mn, backend="limb") \
        == mpn.powmod(bn, en, mn)
    assert from_nat(packed) == pow(base, exponent, modulus)


class TestPowmodBackends:
    @pytest.mark.parametrize("limbs", POWMOD_WIDTHS)
    def test_backends_agree_at_boundary(self, limbs):
        """Exponents 0, 1 and a full-width one (two limbs past two
        blocks, where a full-width limb ladder would dominate the
        suite's runtime)."""
        base = _operand(limbs, 4)
        modulus = _operand(limbs, 6) | 1
        wide = _operand(limbs if limbs <= 2 * PACK_LIMBS + 1 else 2, 5)
        for exponent in (0, 1, wide):
            _powmod_three_way(base, exponent, modulus)

    def test_full_width_exponent_at_2048_bits(self):
        base, exponent = _operand(64, 7), _operand(64, 8)
        modulus = _operand(64, 9) | 1
        got = mpn.powmod(to_nat(base), to_nat(exponent), to_nat(modulus))
        assert from_nat(got) == pow(base, exponent, modulus)

    @pytest.mark.parametrize("limbs", (1, PACK_LIMBS, 2 * PACK_LIMBS + 1))
    def test_zero_base_and_base_past_modulus(self, limbs):
        modulus = _operand(limbs, 10) | 1
        exponent = _operand(2, 11)
        for base in (0, modulus, modulus + 1, 3 * modulus + 7,
                     _operand(3 * limbs, 12)):
            _powmod_three_way(base, exponent, modulus)

    @pytest.mark.parametrize("modulus", (
        1, 2, 6, 1 << 32, (1 << 61) - 2, _operand(8, 13) & ~1,
        _operand(2 * PACK_LIMBS + 1, 14) & ~1), ids=(
        "1", "2", "6", "2^32", "2^61-2", "even-8-limbs",
        "even-%d-limbs" % (2 * PACK_LIMBS + 1)))
    def test_degenerate_and_even_moduli(self, modulus):
        _powmod_three_way(_operand(8, 15), _operand(2, 16), modulus)

    def test_auto_is_packed_without_a_crossover(self):
        assert select.powmod_backend() == "packed"

    def test_kill_switch_is_bit_identical_on_the_limb_path(
            self, monkeypatch):
        base, exponent = _operand(16, 17), _operand(16, 18)
        modulus = _operand(16, 19) | 1
        bn, en, mn = to_nat(base), to_nat(exponent), to_nat(modulus)
        packed = mpn.powmod(bn, en, mn)
        monkeypatch.setenv(select.PACKED_ENV, "0")

        def refuse(*args):
            raise AssertionError("REPRO_PACKED=0 reached powmod_packed")

        monkeypatch.setattr(_packed, "powmod_packed", refuse)
        assert select.powmod_backend() == "limb"
        assert mpn.powmod(bn, en, mn) == packed
        assert from_nat(packed) == pow(base, exponent, modulus)

    @given(base=naturals_of_bits(512), exponent=naturals_of_bits(64),
           modulus=naturals_of_bits(512, 1))
    @settings(max_examples=diff_examples(), deadline=None)
    def test_hypothesis_powmod_three_way(self, base, exponent, modulus):
        _powmod_three_way(base, exponent, modulus)

    def test_batch_identical_at_every_worker_count(self):
        """Powmod jobs fanned over executor workers (the serve batch
        route) are bit-identical to the serial evaluation."""
        tasks = [("powmod", {"base": _operand(10, seed),
                             "exp": _operand(2, seed + 200),
                             "mod": _operand(10, seed + 300) | 1})
                 for seed in range(6)]
        serial = [evaluate(task) for task in tasks]
        assert [int(payload["value"], 16) for payload in serial] \
            == [pow(p["base"], p["exp"], p["mod"]) for _, p in tasks]
        for workers in (0, 2):
            with ParallelExecutor(workers) as executor:
                assert executor.map(evaluate, tasks) == serial, \
                    "diverged at %d workers" % workers

    def test_batch_of_plans_matches_bigints(self):
        """A batch of lowered powmod plans, odd and even moduli mixed,
        each matches Python's ``pow``."""
        batch = [{"base": _operand(8, seed), "exp": _operand(2, seed + 3),
                  "mod": _operand(8, seed + 6) & ~1 | seed & 1}
                 for seed in range(4)]
        for params in batch:
            plan = plan_for_job("powmod", params)
            assert plan.backend == "packed"
            assert run(plan, params)["value"] \
                == pow(params["base"], params["exp"], params["mod"])


class TestLinearKernelRouting:
    """add/shl/shr auto-route to packed above LINEAR_PACK_MIN_LIMBS;
    either way the dispatcher result must match bigints."""

    @pytest.mark.parametrize("limbs", (LINEAR_PACK_MIN_LIMBS - 1,
                                       LINEAR_PACK_MIN_LIMBS,
                                       LINEAR_PACK_MIN_LIMBS + 1))
    def test_add_straddles_the_gate(self, limbs):
        a, b = _operand(limbs, 8), _operand(limbs, 9)
        assert from_nat(mpn.add(to_nat(a), to_nat(b))) == a + b
        # All-ones: the carry ripples across every block boundary.
        ones = (1 << (32 * limbs)) - 1
        assert from_nat(mpn.add(to_nat(ones), to_nat(1))) == ones + 1

    @pytest.mark.parametrize("count", (0, 1, 31, 32, 255, 256, 257,
                                       5000))
    def test_shifts_straddle_the_gate(self, count):
        for limbs in (LINEAR_PACK_MIN_LIMBS - 1,
                      LINEAR_PACK_MIN_LIMBS + 1):
            a = _operand(limbs, 10)
            assert from_nat(mpn.shl(to_nat(a), count)) == a << count
            assert from_nat(mpn.shr(to_nat(a), count)) == a >> count


class TestPlanLayer:
    def test_packed_plan_matches_library_plan(self):
        a, b = _operand(64, 11), _operand(64, 12)
        spec_args = (a.bit_length(), b.bit_length())
        packed = lower(OpSpec.for_mul(*spec_args, backend="packed"),
                       use_cache=False)
        library = lower(OpSpec.for_mul(*spec_args, backend="library"),
                        use_cache=False)
        assert packed.backend == "packed"
        payload = run(packed, {"a": a, "b": b})
        assert payload["product"] == run(library,
                                         {"a": a, "b": b})["product"]
        assert payload["product"] == a * b

    def test_packed_div_plan_matches_bigint(self):
        a, b = _operand(96, 13), _operand(40, 14)
        plan = lower(OpSpec("div", a.bit_length(), b.bit_length(),
                            backend="packed"), use_cache=False)
        payload = run(plan, {"a": a, "b": b})
        assert (payload["quotient"], payload["remainder"]) \
            == divmod(a, b)

    def test_powmod_auto_lowers_to_packed_montgomery(self):
        params = {"base": _operand(64, 20), "exp": _operand(2, 21),
                  "mod": _operand(64, 22) | 1}
        plan = plan_for_job("powmod", params)
        assert plan.backend == "packed"
        assert plan.algorithm == "packed-montgomery"
        assert [step.algorithm for step in plan.steps] \
            == ["packed-montgomery"]
        assert run(plan, params)["value"] \
            == pow(params["base"], params["exp"], params["mod"])

    def test_packed_powmod_plan_matches_bigint(self):
        params = {"base": _operand(12, 13), "exp": _operand(2, 14),
                  "mod": _operand(12, 15) | 1}
        plan = plan_for_job("powmod", params, backend="packed")
        assert plan.backend == "packed"
        assert run(plan, params)["value"] \
            == pow(params["base"], params["exp"], params["mod"])

    def test_even_modulus_plan_runs_the_packed_division_path(self):
        params = {"base": _operand(12, 23), "exp": _operand(2, 24),
                  "mod": _operand(12, 25) & ~1}
        plan = plan_for_job("powmod", params)
        assert (plan.backend, plan.algorithm) \
            == ("packed", "binary-division")
        assert run(plan, params)["value"] \
            == pow(params["base"], params["exp"], params["mod"])

    def test_powmod_kill_switch_lowers_to_library(self, monkeypatch):
        monkeypatch.setenv(select.PACKED_ENV, "0")
        params = {"base": _operand(12, 26), "exp": _operand(2, 27),
                  "mod": _operand(12, 28) | 1}
        plan = plan_for_job("powmod", params)
        assert (plan.backend, plan.algorithm) == ("library", "montgomery")
        packed = plan_for_job("powmod", params, backend="packed")
        assert run(plan, params) == run(packed, params)

    def test_memo_key_changes_with_packed_thresholds(self):
        """Retuning the packed crossovers must invalidate cached plans:
        the fingerprint inside the memo key covers them."""
        spec = OpSpec.for_mul(64 * 32, 64 * 32)
        active = select.active()
        baseline = lower(spec, active, use_cache=False)
        for field in ("packed_mul_limbs", "packed_div_limbs"):
            moved = dataclasses.replace(
                active, **{field: getattr(active, field) + 3})
            assert lower(spec, moved, use_cache=False).memo_key \
                != baseline.memo_key, field

    def test_memo_key_separates_backends(self):
        spec_args = (64 * 32, 64 * 32)
        packed = lower(OpSpec.for_mul(*spec_args, backend="packed"),
                       use_cache=False)
        library = lower(OpSpec.for_mul(*spec_args, backend="library"),
                        use_cache=False)
        assert packed.memo_key != library.memo_key
