"""The ``apps`` program process: the four Table II applications in-process.

Started by ``run.py`` with a hermetic environment.  Protocol: import the
program and do one untimed warm pass, print ``READY``, then read one
stdin line -- ``EXIT``, or ``GO`` to run the timed loop described by the
JSON config named on the command line and write its results there.

With ``"trace": true`` the public ``repro.mpn`` functions and the
``repro.plan.select.*_backend`` functions are wrapped from outside: each
wrapper counts outermost calls and their time, per kernel kind.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path

import workloads
from common import peak_rss_mb, speed_probe

from repro import mpn
from repro.apps import frac, pi, rsa, zkcm
from repro.mpz import MPZ
from repro.plan import codegen, select

#: Public mpn functions by kernel kind.
KINDS = {
    "mul": ("mul", "sqr"),
    "div": ("divmod_nat", "mod", "divexact", "gcd", "invmod"),
    "powmod": ("powmod",),
    "sqrt": ("isqrt", "sqrtrem", "iroot"),
    "linear": ("add", "sub", "shl", "shr", "compare", "cmp"),
}
SELECT_FUNCTIONS = ("mul_backend", "div_backend", "batch_mul_backend",
                    "powmod_backend")
ZKCM_DIGITS = 320


class Meter:
    """Outermost-call counts and busy seconds for wrapped functions."""

    def __init__(self) -> None:
        self.depth = 0
        self.busy = dict.fromkeys(KINDS, 0.0)
        self.calls = dict.fromkeys(KINDS, 0)
        self.select_calls = 0

    def install(self) -> None:
        for kind, names in KINDS.items():
            for name in names:
                setattr(mpn, name, self._timed(kind, getattr(mpn, name)))
        for name in SELECT_FUNCTIONS:
            setattr(select, name, self._counted(getattr(select, name)))

    def _timed(self, kind, function):
        meter = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if meter.depth:
                return function(*args, **kwargs)
            meter.depth = 1
            started = clock()
            try:
                return function(*args, **kwargs)
            finally:
                meter.busy[kind] += clock() - started
                meter.calls[kind] += 1
                meter.depth = 0
        return wrapper

    def _counted(self, function):
        meter = self

        def wrapper(*args, **kwargs):
            meter.select_calls += 1
            return function(*args, **kwargs)
        return wrapper

    def snapshot(self):
        return dict(self.busy), dict(self.calls)


def make_key(values) -> rsa.RSAKeyPair:
    ints = {name: int(value, 16) if isinstance(value, str) else value
            for name, value in values.items()}
    return rsa.RSAKeyPair(*(MPZ(ints[name]) for name in
                            ("n", "e", "d", "p", "q", "dp", "dq", "qinv")))


def run_item(app: str, key, message: int, basis: int):
    """Run one item; returns (seconds, raw result)."""
    started = time.perf_counter()
    if app == "pi":
        result = pi.compute_pi(workloads.PI_DIGITS)
    elif app == "rsa":
        signature = rsa.sign(MPZ(message), key)
        result = (signature, rsa.verify(signature, MPZ(message), key))
    elif app == "frac":
        result = frac.run(workloads.FRAC_ZOOM,
                          precision=workloads.FRAC_PRECISION)
    else:
        result = zkcm.qft_state(workloads.ZKCM_QUBITS, basis,
                                workloads.ZKCM_PRECISION)
    return time.perf_counter() - started, result


def describe(app: str, result, message: int, basis: int):
    """The checkable part of an item's result (outside the timer)."""
    if app == "pi":
        return {"sha256": hashlib.sha256(
            result.digits.encode("ascii")).hexdigest()}
    if app == "rsa":
        signature, verified = result
        return {"message": hex(message), "signature": hex(int(signature)),
                "verified": bool(verified)}
    if app == "frac":
        return {"iterations": result.iterations}
    return {"basis": basis,
            "amplitudes": [[amplitude.re.to_decimal_string(ZKCM_DIGITS),
                            amplitude.im.to_decimal_string(ZKCM_DIGITS)]
                           for amplitude in result.state]}


def warm_pass(seed: int) -> None:
    """Small items of each app: imports, plan and memo caches."""
    key = make_key(workloads.rsa_key(seed, 256))
    pi.compute_pi(500)
    rsa.verify(rsa.sign(MPZ(12345), key), MPZ(12345), key)
    frac.run(40, precision=128)
    zkcm.qft_state(3, 1, 128)


def main() -> int:
    config_path = Path(sys.argv[1])
    config = json.loads(config_path.read_text())
    warm_pass(config["seed"])
    print("READY", flush=True)
    if sys.stdin.readline().strip() != "GO":
        return 0
    key = make_key(config["key"])
    rng = workloads.stream_rng(config["seed"], "apps")
    meter = Meter() if config["trace"] else None
    if meter is not None:
        meter.install()
    items = []
    probes = []
    deadline = time.perf_counter() + config["seconds"]
    rounds = 0
    while rounds < config["min_rounds"] or time.perf_counter() < deadline:
        message = rng.randrange(2, int(key.modulus))
        basis = rng.randrange(1 << workloads.ZKCM_QUBITS)
        for app in workloads.APPS:
            probes.append(speed_probe())
            before = meter.snapshot() if meter is not None else None
            seconds, result = run_item(app, key, message, basis)
            item = {"app": app, "seconds": seconds}
            if meter is not None:
                busy, calls = meter.snapshot()
                item["busy"] = {kind: busy[kind] - before[0][kind]
                                for kind in KINDS}
                item["calls"] = {kind: calls[kind] - before[1][kind]
                                 for kind in KINDS}
            item["output"] = describe(app, result, message, basis)
            items.append(item)
        rounds += 1
    probes.append(speed_probe())
    report = {
        "items": items,
        "probes": probes,
        "peak_rss_mb": peak_rss_mb(),
        "select_calls": meter.select_calls if meter is not None else 0,
        "codegen_compiles": codegen.compile_count(),
    }
    (config_path.parent / "apps-result.json").write_text(json.dumps(report))
    print("DONE", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
