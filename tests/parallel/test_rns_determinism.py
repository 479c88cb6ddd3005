"""Determinism of the rns batch routes across worker counts (ISSUE 7).

The residue channels make each batch item (and each channel slice)
independent integer arithmetic, so the contract is exact: the same
batch must produce bit-identical limbs at REPRO_WORKERS=0/2/4, and a
worker crash must degrade to the serial path with full, identical
results — the same guarantees the simulate path already proves in
``test_determinism.py``.
"""

from __future__ import annotations

import os

from repro.mpn import nat
from repro.mpn import rns
from repro.mpn.tune import _random_operand
from repro.parallel import ParallelExecutor

#: Wide enough that mul_rns fans channel slices across workers too.
MUL_LIMBS = 40
BATCH = 6

_REAL_MUL_PAIR = rns._mul_pair


def _mul_batch():
    return [(_random_operand(MUL_LIMBS, seed),
             _random_operand(MUL_LIMBS, seed + 100))
            for seed in range(BATCH)]


class _TaggedCrash:
    """Picklable crash-in-worker wrapper around the real pair worker:
    dies hard in a worker process, computes fine in the parent."""

    def __init__(self, parent_pid):
        self.parent_pid = parent_pid

    def __call__(self, task):
        if os.getpid() != self.parent_pid:
            os._exit(13)
        return _REAL_MUL_PAIR(task)


class TestIdenticalAtEveryWorkerCount:
    def test_mul_batch(self):
        pairs = _mul_batch()
        serial = rns.mul_batch_rns(pairs)
        assert [nat.nat_to_int(p) for p in serial] \
            == [nat.nat_to_int(a) * nat.nat_to_int(b) for a, b in pairs]
        for workers in (0, 2, 4):
            with ParallelExecutor(workers) as executor:
                assert rns.mul_batch_rns(pairs, executor=executor) \
                    == serial, "diverged at %d workers" % workers

    def test_single_mul_channel_slices(self):
        a = _random_operand(64, 1)
        b = _random_operand(64, 2)
        serial = rns.mul_rns(a, b)
        for workers in (0, 2, 4):
            with ParallelExecutor(workers) as executor:
                assert rns.mul_rns(a, b, executor=executor) == serial, \
                    "diverged at %d workers" % workers


class TestBrokenPoolFallback:
    def test_mul_batch_survives_worker_crash(self, monkeypatch):
        """A crashing pool degrades to in-parent serial execution with
        the exact serial results (executor contract, rns route)."""
        pairs = _mul_batch()
        serial = rns.mul_batch_rns(pairs)
        monkeypatch.setattr(rns, "_mul_pair", _TaggedCrash(os.getpid()))
        with ParallelExecutor(2) as executor:
            assert rns.mul_batch_rns(pairs, executor=executor) == serial
            assert executor.last_mode == "fallback"
            assert executor.stats["fallback"] >= 1
