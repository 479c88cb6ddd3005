"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import random

import pytest
from hypothesis import strategies as st

from repro.mpn import nat


@pytest.fixture(autouse=True)
def hermetic_paths(tmp_path_factory, monkeypatch):
    """Pin every path the library writes by default into a temp dir.

    Without this, tuning, plan caches and cost-dataset harvests land in
    the host's ``~/.cache/repro`` and the checked-in
    ``results/COST_dataset.jsonl``.  Subprocesses inherit the pins.
    Tests that need their own paths still override these.
    """
    root = tmp_path_factory.mktemp("repro-paths")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(root / "cache"))
    monkeypatch.setenv("REPRO_THRESHOLDS", str(root / "thresholds.json"))
    monkeypatch.setenv("REPRO_COST_DATASET", str(root / "dataset.jsonl"))


@pytest.fixture
def rng() -> random.Random:
    """A deterministic RNG per test."""
    return random.Random(0xCA_B1)


# -- hypothesis strategies ----------------------------------------------------

#: Non-negative integers across interesting size bands (empty, one limb,
#: limb boundaries, multi-limb, large).
naturals = st.one_of(
    st.integers(min_value=0, max_value=10),
    st.integers(min_value=0, max_value=(1 << 32) + 3),
    st.integers(min_value=0, max_value=(1 << 96) - 1),
    st.integers(min_value=0, max_value=(1 << 1200) - 1),
)

#: Positive naturals (for divisors, moduli).
positive_naturals = naturals.map(lambda v: v + 1)

#: Small bit-shift distances crossing limb boundaries.
shift_counts = st.integers(min_value=0, max_value=200)


def to_nat(value: int):
    """Shorthand conversion for tests."""
    return nat.nat_from_int(value)


def from_nat(limbs) -> int:
    """Shorthand conversion for tests."""
    return nat.nat_to_int(limbs)
