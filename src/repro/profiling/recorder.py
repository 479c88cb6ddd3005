"""Operator-level profiling of the arbitrary-precision software stack.

The paper's Figure 2 (right) breaks application runtime down by operator
class — low-level kernel operators (*Multiply*, *Add*, *Shift*), other
low-level operators, high-level operators (sign/exponent handling), and
auxiliary work — using ``sprof`` on a real CPU.  We reproduce the same
breakdown by instrumenting our own stack: every public mpn/mpz/mpf kernel
wraps itself in :func:`kernel`, and a :func:`session` collects the
*outermost* kernel invocations with their operand bitwidths.

Only outermost invocations are recorded: when Karatsuba internally issues
additions, that work belongs to the enclosing *Multiply*, exactly as a
flat profile attributes ``mpn_mul``'s time to ``mpn_mul``.  Platform cost
models (:mod:`repro.platforms`) later price each recorded invocation —
including its internal recursion — analytically.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

#: Kernel operators the paper singles out in Figure 2 (right).
KERNEL_OPS = ("mul", "add", "shift")

#: Everything the paper counts as a low-level (mpn-layer) operator.
LOW_LEVEL_OPS = ("mul", "add", "sub", "shift", "div", "sqrt", "cmp",
                 "logic", "mod")

#: High-level operators (signs, exponents, rounding — mpz/mpf layer).
HIGH_LEVEL_OPS = ("highlevel",)

#: Auxiliary work (conversion, memory management, I/O).
AUX_OPS = ("aux",)


@dataclass(frozen=True)
class KernelOp:
    """One outermost kernel invocation.

    ``bits_a``/``bits_b`` are the significant bitwidths of the operands
    (``bits_b`` is 0 for unary kernels); cost models use them to price the
    invocation.
    """

    name: str
    bits_a: int
    bits_b: int = 0


@dataclass
class OperationTrace:
    """An ordered record of the outermost kernel operations in a session."""

    ops: List[KernelOp] = field(default_factory=list)

    def count(self, name: Optional[str] = None) -> int:
        """Number of recorded operations, optionally filtered by name."""
        if name is None:
            return len(self.ops)
        return sum(1 for op in self.ops if op.name == name)

    def by_name(self, name: str) -> List[KernelOp]:
        """All recorded operations with the given kernel name."""
        return [op for op in self.ops if op.name == name]

    def names(self) -> Dict[str, int]:
        """Histogram of kernel names."""
        histogram: Dict[str, int] = {}
        for op in self.ops:
            histogram[op.name] = histogram.get(op.name, 0) + 1
        return histogram

    def merge(self, other: "OperationTrace") -> None:
        """Append another trace's operations to this one."""
        self.ops.extend(other.ops)


class _Recorder:
    """Module-global recorder state: the open trace and kernel depth."""

    def __init__(self) -> None:
        self.trace: Optional[OperationTrace] = None
        self.depth = 0


_RECORDER = _Recorder()


def _width(operand) -> int:
    """A bitwidth given as an int, or the width of a limb list."""
    if isinstance(operand, int):
        return operand
    from repro.mpn.nat import bit_length  # repro.mpn imports this module
    return bit_length(operand)


class kernel:
    """Mark a kernel invocation; nested invocations are not recorded.

    ``a``/``b`` are the operand bitwidths, or the limb lists themselves
    (:mod:`repro.mpn.nat`), whose widths are taken only when a session
    records the invocation.  A slotted class rather than a generator:
    every public mpn wrapper enters one per call, recording or not.
    """

    __slots__ = ("name", "a", "b")

    def __init__(self, name: str, a, b=0) -> None:
        self.name = name
        self.a = a
        self.b = b

    def __enter__(self) -> None:
        recorder = _RECORDER
        if recorder.trace is not None and recorder.depth == 0:
            recorder.trace.ops.append(
                KernelOp(self.name, _width(self.a), _width(self.b)))
        recorder.depth += 1

    def __exit__(self, *exc_info) -> None:
        _RECORDER.depth -= 1


@contextmanager
def session() -> Iterator[OperationTrace]:
    """Collect the outermost kernel operations executed in this block."""
    previous_trace = _RECORDER.trace
    previous_depth = _RECORDER.depth
    trace = OperationTrace()
    _RECORDER.trace = trace
    _RECORDER.depth = 0
    try:
        yield trace
    finally:
        _RECORDER.trace = previous_trace
        _RECORDER.depth = previous_depth


def is_recording() -> bool:
    """True when a profiling session is active (outermost level)."""
    return _RECORDER.trace is not None
