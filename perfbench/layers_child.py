"""Replays a serve run's jobs through the program's layers, in a fresh
hermetic process (so caches start as cold as the server's did).

Always: lowers every job through ``repro.serve.jobs.make_job`` to record
the run's composition, and answers the ``model_cycles`` jobs with
``repro.serve.jobs.evaluate`` (the cycle model has no other oracle).

With ``"layers": true`` it also times each layer from outside:
``make_job`` (plan lowering), device-lowered muls through
``BatchingDriver`` (core), ``model_query`` (runtime), every other job
on the backend its plan lowered to (mpn, the pi app), and the hex and
JSON encoding of each result (serve encode).

Usage: ``python layers_child.py <config.json>``; writes
``layers-result.json`` next to the config.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from repro.core.accelerator import CambriconP
from repro.cost.features import plan_features
from repro.mpn import nat_from_int, nat_to_int
from repro.plan import plan_cache
from repro.plan.execute import model_query
from repro.plan.execute import run as run_plan
from repro.runtime.scheduler import BatchingDriver
from repro.serve.jobs import evaluate, make_job

clock = time.perf_counter
#: LLC address for replayed products, far above operand allocations.
DESTINATION = 1 << 30


def lower_all(jobs):
    """make_job for every job in order; composition and timings."""
    cache = plan_cache()
    hits, misses = cache.hits, cache.misses
    made, busy = [], 0.0
    for payload in jobs:
        started = clock()
        made.append(make_job(payload))
        busy += clock() - started
    lookups = cache.hits - hits + cache.misses - misses
    per_op, backends = {}, {}
    seen, repeats = set(), 0
    for job in made:
        per_op[job.op] = per_op.get(job.op, 0) + 1
        tally = backends.setdefault(job.op, {})
        tally[job.plan.backend] = tally.get(job.plan.backend, 0) + 1
        features = plan_features(job.plan)
        keys = [("size", job.op, features[2] if features else None)]
        if job.cache_key() is not None:
            keys.append(("result", job.cache_key()))
        if any(key in seen for key in keys):
            repeats += 1
        seen.update(keys)
    composition = {"per_op": per_op, "backends": backends,
                   "repeat_frac": repeats / len(made) if made else 0.0}
    lower = {"busy_s": busy / len(made) if made else 0.0,
             "calls": len(made),
             "hit_frac": (cache.hits - hits) / lookups if lookups else 0.0}
    return made, composition, lower


def replay(made):
    """Time each job on its own layer; returns the per-layer metrics."""
    device = CambriconP()
    busy = {"device": [], "model": [], "mul": [], "div": [], "powmod": [],
            "pi_digits": []}
    passes = 0
    results = []
    for job in made:
        started = clock()
        if job.plan.backend == "device":
            driver = BatchingDriver(device)
            driver.submit_plan(job.plan, [nat_from_int(job.params["a"]),
                                          nat_from_int(job.params["b"])],
                               DESTINATION)
            retired, _ = driver.flush()
            result = {"product": nat_to_int(driver.result(DESTINATION))}
            kind = "device"
            passes += sum(entry.report.num_passes for entry in retired)
        elif job.op == "model_cycles":
            result = {"cycles": model_query(job.params["op"],
                                            job.params["bits_a"],
                                            job.params["bits_b"])}
            kind = "model"
        else:
            result = run_plan(job.plan, job.params)
            kind = job.op
        busy[kind].append(clock() - started)
        results.append((job, result))
    encode = 0.0
    for job, result in results:
        started = clock()
        payload = ({key: hex(value) for key, value in result.items()}
                   if job.op in ("mul", "div", "powmod") else result)
        json.dumps({"ok": True, "id": job.job_id, "op": job.op,
                    "result": payload}).encode("utf-8")
        encode += clock() - started

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    return {
        "core.device_mul.busy_s": mean(busy["device"]),
        "core.device_mul.calls": len(busy["device"]),
        "core.passes": passes,
        "runtime.model.busy_s": mean(busy["model"]),
        "runtime.model.calls": len(busy["model"]),
        "mpn.mul.busy_s": mean(busy["mul"]),
        "mpn.div.busy_s": mean(busy["div"]),
        "mpn.powmod.busy_s": mean(busy["powmod"]),
        "apps.pi.busy_s": mean(busy["pi_digits"]),
        "serve.encode.busy_s": encode / len(results) if results else 0.0,
    }


def main() -> int:
    config_path = Path(sys.argv[1])
    config = json.loads(config_path.read_text())
    made, composition, lower = lower_all(config["jobs"])
    report = {"composition": composition, "layers": {}}
    if config["layers"]:
        report["layers"] = replay(made)
        report["layers"].update({"plan.lower." + key: value
                                 for key, value in lower.items()})
    report["model_answers"] = {
        job.job_id: evaluate((job.op, job.params))
        for job in made if job.op == "model_cycles"}
    (config_path.parent / "layers-result.json").write_text(
        json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
