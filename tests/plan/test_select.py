"""plan.select: the one crossover-lookup module, checked against the
kernel-side constants and policies it replaced."""

import dataclasses
import os
import pathlib
import random

import pytest

from repro import mpn
from repro.mpn import burnikel_ziegler as bz_mod
from repro.mpn import div as div_mod
from repro.mpn import tune
from repro.mpn.mul import GMP_POLICY, MPAPCA_POLICY, PYTHON_POLICY
from repro.parallel import cache
from repro.plan import select


class TestMulLadder:
    @pytest.mark.parametrize("policy",
                             [GMP_POLICY, MPAPCA_POLICY, PYTHON_POLICY])
    def test_matches_policy_dispatch(self, policy):
        for limbs in (1, 2, 7, 8, 30, 31, 32, 99, 100, 1121, 1122,
                      3000, 5000, 50000):
            assert select.mul_algorithm(limbs, policy) \
                == policy.algorithm_for(limbs)

    def test_below_every_threshold_is_basecase(self):
        assert select.mul_algorithm(1, GMP_POLICY) == "basecase"

    def test_chain_descends_to_basecase(self):
        chain = select.mul_chain(50000, GMP_POLICY)
        assert chain[-1][0] == "basecase"
        sizes = [limbs for _, limbs in chain]
        assert sizes == sorted(sizes, reverse=True)

    def test_chain_ssa_steps_to_regime_boundary(self):
        chain = select.mul_chain(10 * GMP_POLICY.ssa_limbs, GMP_POLICY)
        assert chain[0][0] == "ssa"
        assert chain[1][1] == GMP_POLICY.ssa_limbs - 1


class TestDivisionCrossovers:
    def test_div_default_reads_kernel_threshold_at_call_time(self):
        threshold = div_mod.NEWTON_DIV_THRESHOLD_BITS
        assert select.div_algorithm(threshold) == "schoolbook"
        assert select.div_algorithm(threshold + 1) == "newton"

    def test_div_override_wins(self):
        assert select.div_algorithm(100, newton_threshold_bits=64) \
            == "newton"
        assert select.div_algorithm(100, newton_threshold_bits=128) \
            == "schoolbook"

    def test_div_without_mul_fn_is_schoolbook(self):
        assert select.div_algorithm(1 << 20, has_mul_fn=False) \
            == "schoolbook"

    def test_bz_default_reads_kernel_threshold(self):
        threshold = bz_mod.BZ_THRESHOLD_LIMBS
        assert select.bz_algorithm(threshold - 1) == "schoolbook"
        assert select.bz_algorithm(threshold) == "burnikel-ziegler"

    def test_barrett_override(self):
        assert select.barrett_profitable(10, barrett_limbs=8)
        assert not select.barrett_profitable(7, barrett_limbs=8)


class TestFingerprint:
    def test_covers_every_crossover(self):
        thresholds = select.active()
        fp = select.fingerprint(thresholds)
        assert fp == (thresholds.version, thresholds.karatsuba_limbs,
                      thresholds.toom3_limbs, thresholds.toom4_limbs,
                      thresholds.toom6_limbs, thresholds.ssa_limbs,
                      thresholds.bz_limbs, thresholds.barrett_limbs,
                      thresholds.packed_mul_limbs,
                      thresholds.packed_div_limbs,
                      thresholds.rns_mul_limbs,
                      thresholds.specialize_limbs)

    def test_thresholds_method_delegates(self):
        thresholds = select.active()
        assert thresholds.fingerprint() == select.fingerprint(thresholds)

    def test_bare_policy_pads_with_zeroes(self):
        fp = select.fingerprint(MPAPCA_POLICY)
        assert fp[0] == 0 and fp[-2:] == (0, 0)
        assert fp[1] == MPAPCA_POLICY.karatsuba_limbs


class TestActiveThresholdsMemo:
    """``active()`` is an in-memory value: no filesystem work per call,
    yet an env retarget or an in-process save still takes effect."""

    @staticmethod
    def _forbid(*_args, **_kwargs):
        raise AssertionError("filesystem touched on the dispatch path")

    @pytest.mark.parametrize("limbs", [2, 40])
    def test_dispatch_makes_no_stat_and_builds_no_path(self, limbs,
                                                       monkeypatch):
        def operands(seed):
            rng = random.Random(seed)
            a = rng.getrandbits(32 * limbs) | 1 << (32 * limbs - 1)
            b = rng.getrandbits(32 * limbs - 7) | 1 << (32 * limbs - 8)
            m = rng.getrandbits(32 * limbs) | 1 | 1 << (32 * limbs - 1)
            return a, b, m

        def check(a, b, m):
            na, nb, nm = (mpn.nat_from_int(v) for v in (a, b, m))
            assert mpn.nat_to_int(mpn.mul(na, nb)) == a * b
            assert mpn.nat_to_int(mpn.sqr(na)) == a * a
            quotient, remainder = mpn.divmod_nat(na, nb)
            assert (mpn.nat_to_int(quotient),
                    mpn.nat_to_int(remainder)) == divmod(a, b)
            exponent = mpn.nat_from_int(b >> 16)
            assert mpn.nat_to_int(mpn.powmod(na, exponent, nm)) \
                == pow(a, b >> 16, m)

        select.active()
        # First use may compile and persist specialized kernels; the
        # guard covers the steady-state per-call path.
        check(*operands(1))
        # A context, so a failure reports with the filesystem restored.
        with monkeypatch.context() as patch:
            patch.setattr(os, "stat", self._forbid)
            patch.setattr(pathlib.Path, "stat", self._forbid)
            patch.setattr(tune, "Path", self._forbid)
            patch.setattr(cache, "Path", self._forbid)
            for seed in (2, 3):
                check(*operands(seed))

    def test_env_retarget_changes_fingerprint(self, tmp_path,
                                              monkeypatch):
        before = select.fingerprint()
        current = select.active()
        retuned = dataclasses.replace(
            current, packed_mul_limbs=current.packed_mul_limbs + 3)
        elsewhere = tmp_path / "elsewhere.json"
        tune.save_thresholds(retuned, elsewhere)
        assert select.fingerprint() == before
        monkeypatch.setenv(tune.THRESHOLDS_ENV, str(elsewhere))
        assert select.fingerprint() == select.fingerprint(retuned)
        assert select.fingerprint() != before

    def test_in_process_save_changes_fingerprint(self):
        before = select.fingerprint()
        current = select.active()
        retuned = dataclasses.replace(
            current, specialize_limbs=current.specialize_limbs + 5)
        tune.save_thresholds(retuned)
        assert select.fingerprint() == select.fingerprint(retuned)
        assert select.fingerprint() != before
