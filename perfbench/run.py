"""The repository benchmark: three workloads, end to end and per layer.

    python3 perfbench/run.py --workload apps --seed 1 --seconds 20 --trace 0

Workloads (see README.md for why each was chosen):

* ``apps``        -- Pi, RSA, Frac and zkcm in-process, round-robin;
* ``serve_small`` -- open-loop Poisson load of small jobs on ``repro serve``;
* ``serve_large`` -- closed-loop load of large jobs on ``repro serve``.

``--trace 0`` prints every end-to-end metric of BENCHMARK.json.
``--trace 1`` splits the time into an untraced and a traced half and
prints every per-layer metric, plus the tracing overhead (traced minus
untraced end-to-end numbers).  The last stdout line is the result JSON;
the line before it is a report of the run's composition.  Every answer
is checked against an independent oracle outside the timed regions; the
exit code is 1 on any wrong answer or if the run changed the checkout.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from typing import Any, Dict, List  # noqa: E402

import oracle  # noqa: E402
import serve_bench  # noqa: E402
import workloads  # noqa: E402
from common import (FAILED_LATENCY_MS, PROBE_REFERENCE_S, ROOT,  # noqa: E402
                    SRC, Scratch, beyond, hermetic_env, log, median, metric, percentile,
                    python_cmd, read_json, tree_changes, tree_state,
                    write_json)

#: Program set-ups per run; ``setup_s`` is their median.
SETUPS = 5
#: Share of a serve run's seconds spent on the serve load; the rest
#: measures the four apps in-process, for pi_s, rsa_s, frac_s, zkcm_s.
SERVE_SHARE = 0.6
#: Fewest rounds of the four apps in any run.
MIN_ROUNDS = 3
#: Connections (serve_small) and clients (serve_large): one per CPU.
CONNECTIONS = len(os.sched_getaffinity(0))
#: Generated serve_large jobs; far more than a run can complete.
LARGE_BLOCKS = 40
#: serve_small is invalid when the generator's own lag (not waiting
#: for the server) has a median above this.
MAX_GENERATOR_LAG_MS = 2.0
#: End-to-end metrics whose traced-minus-untraced difference is reported.
OVERHEAD_OF = ("pi_s", "rsa_s", "frac_s", "zkcm_s", "lat_p50_ms",
               "lat_p90_ms", "lat_p99_ms", "jobs_per_s", "peak_rss_mb")

clock = time.perf_counter


class Outcome:
    """What one measured phase produced."""

    def __init__(self) -> None:
        self.metrics: Dict[str, float] = {}
        self.layers: Dict[str, float] = {}
        self.report: Dict[str, Any] = {}
        self.attempted = 0
        self.failed = 0
        self.wrong: List[str] = []

    def absorb(self, other: "Outcome") -> None:
        self.metrics.update(other.metrics)
        self.layers.update(other.layers)
        self.report.update(other.report)
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong


# -- apps ---------------------------------------------------------------------

def apps_phase(scratch: Scratch, seed: int, seconds: float, trace: bool,
               setups: int) -> Outcome:
    """Run the four apps in a fresh program process.

    Whole rounds repeat until ``seconds`` have passed (at least
    ``MIN_ROUNDS``).  Set-up (import plus one untimed warm pass) is
    timed ``setups`` times, each in a new process with a fresh cache.
    """
    key = workloads.rsa_key(seed)
    samples = []
    for index in range(setups):
        run_dir = scratch.fresh("apps")
        config = run_dir / "config.json"
        write_json(config, {"seed": seed, "seconds": seconds,
                            "min_rounds": MIN_ROUNDS, "trace": trace,
                            "key": {k: hex(v) for k, v in key.items()}})
        started = clock()
        proc = subprocess.Popen(python_cmd("apps_child.py", str(config)),
                                cwd=run_dir, env=hermetic_env(run_dir),
                                stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, text=True)
        try:
            serve_bench.wait_for_line(proc, "READY", 300)
            samples.append(clock() - started)
            last = index == setups - 1
            proc.stdin.write("GO\n" if last else "EXIT\n")
            proc.stdin.flush()
            if last:
                serve_bench.wait_for_line(proc, "DONE", seconds + 300)
        finally:
            _reap(proc)
    result = read_json(run_dir / "apps-result.json")
    outcome = check_apps(result["items"], result["probes"], key)
    outcome.metrics["setup_s"] = median(samples)
    outcome.report["setup_samples_s"] = samples
    outcome.metrics["peak_rss_mb"] = result["peak_rss_mb"]
    if trace:
        outcome.layers.update(apps_layers(result))
    return outcome


def _reap(proc: subprocess.Popen) -> None:
    for stream in (proc.stdin, proc.stdout):
        if stream is not None:
            stream.close()
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def check_apps(items: List[Dict[str, Any]], probes: List[float],
               key: Dict[str, int]) -> Outcome:
    """Verify every item; per-app time to solution, and latency and
    throughput of rounds (one round runs each of the four apps once).

    Item times are scaled to the reference host speed by the speed
    probes run just before and just after each item; the unscaled
    medians go to the report.
    """
    pi_hash = oracle.sha256(oracle.pi_text(workloads.PI_DIGITS))
    image = oracle.frac_image()
    outcome = Outcome()
    times: Dict[str, List[float]] = {app: [] for app in workloads.APPS}
    raw: Dict[str, List[float]] = {app: [] for app in workloads.APPS}
    rounds: List[float] = []
    size = len(workloads.APPS)
    for start in range(0, len(items), size):
        round_s = 0.0
        for index in range(start, min(start + size, len(items))):
            item = items[index]
            app, output = item["app"], item["output"]
            if app == "pi":
                ok = output["sha256"] == pi_hash
            elif app == "rsa":
                message = int(output["message"], 16)
                ok = (output["verified"] and int(output["signature"], 16)
                      == pow(message, key["d"], key["n"]))
            elif app == "frac":
                ok = output["iterations"] == image
            else:
                ok = (oracle.qft_error(output["basis"],
                                       output["amplitudes"])
                      <= oracle.ZKCM_TOLERANCE)
            outcome.attempted += 1
            if not ok:
                outcome.failed += 1
                outcome.wrong.append("%s item gave a wrong answer" % app)
            speed = PROBE_REFERENCE_S * 2.0 / (probes[index]
                                               + probes[index + 1])
            seconds = (item["seconds"] * speed if ok
                       else FAILED_LATENCY_MS / 1000.0)
            raw[app].append(item["seconds"])
            times[app].append(seconds)
            round_s += seconds
        rounds.append(round_s)
    for app, values in times.items():
        outcome.metrics[app + "_s"] = median(values)
    outcome.metrics.update(latency_metrics([r * 1000.0 for r in rounds]))
    verified = [r for r in rounds if r < FAILED_LATENCY_MS / 1000.0]
    outcome.metrics["jobs_per_s"] = (len(verified) / sum(verified)
                                     if verified else 0.0)
    outcome.report["apps_rounds"] = len(rounds)
    outcome.report["unscaled_median_s"] = {app: median(values)
                                           for app, values in raw.items()}
    outcome.report["probe_mean_s"] = sum(probes) / len(probes)
    return outcome


def apps_layers(result: Dict[str, Any]) -> Dict[str, float]:
    """Per-item mpn busy time by kind, numbers-layer self time, and
    per-round call counts, from the wrapped public mpn functions."""
    items = result["items"]
    rounds = len(items) // len(workloads.APPS)
    layers: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    for app in workloads.APPS:
        mine = [item for item in items if item["app"] == app]
        for kind in mine[0]["busy"]:
            layers["%s.mpn.%s.busy_s" % (app, kind)] = sum(
                item["busy"][kind] for item in mine) / len(mine)
            calls[kind] = calls.get(kind, 0) + sum(
                item["calls"][kind] for item in mine)
        layers[app + ".numbers.self_s"] = sum(
            item["seconds"] - sum(item["busy"].values())
            for item in mine) / len(mine)
    for kind, count in calls.items():
        layers["mpn.%s.calls" % kind] = count / rounds
    layers["plan.select.calls"] = result["select_calls"] / rounds
    layers["plan.codegen.compiles"] = result["codegen_compiles"]
    return layers


def latency_metrics(latencies_ms: List[float]) -> Dict[str, float]:
    return {"lat_p50_ms": percentile(latencies_ms, 0.50),
            "lat_p90_ms": percentile(latencies_ms, 0.90),
            "lat_p99_ms": percentile(latencies_ms, 0.99)}


def measure_apps(scratch: Scratch, seed: int, seconds: float, trace: bool,
                 setups: int) -> Outcome:
    outcome = apps_phase(scratch, seed, seconds, trace, setups)
    count = outcome.report["apps_rounds"]
    outcome.report["latency_samples"] = count
    outcome.report["beyond_p90"] = beyond(count, 0.90)
    outcome.report["beyond_p99"] = beyond(count, 0.99)
    return outcome


# -- serve --------------------------------------------------------------------

def serve_phase(workload: str, scratch: Scratch, seed: int, seconds: float,
                trace: bool, setups: int) -> Outcome:
    """Boot the server ``setups`` times (the last one serves the load),
    drive the workload, then check every answer."""
    small = workload == "serve_small"
    if small:
        jobs, due = workloads.serve_small(seed, seconds)
    else:
        jobs = workloads.serve_large(seed, LARGE_BLOCKS)
    bodies = serve_bench.encode(jobs)
    warm = serve_bench.encode(workloads.warm_jobs(workload))
    samples: List[float] = []
    server = None
    try:
        for _ in range(setups):
            if server is not None:
                server.stop()
            run_dir = scratch.fresh("serve")
            started = clock()
            server = serve_bench.Server(run_dir, trace)
            for body in warm:
                status, data = server.post(body)
                if status != 200:
                    raise RuntimeError("warm pass failed: %d %r"
                                       % (status, data[:200]))
            samples.append(clock() - started)
        poller = serve_bench.TracePoller(server) if trace else None
        if small:
            records = serve_bench.open_loop(server, bodies, due,
                                            CONNECTIONS)
        else:
            records = serve_bench.closed_loop(server, bodies, CONNECTIONS,
                                              seconds,
                                              workloads.LARGE_BLOCK_JOBS)
        spans = poller.finish() if poller is not None else {}
        scraped = server.metrics()
        rss = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()
    jobs = jobs[:len(records)]
    replayed = run_layers(scratch, jobs, trace)
    outcome = check_serve(jobs, records, replayed["model_answers"])
    outcome.metrics["setup_s"] = median(samples)
    outcome.metrics["peak_rss_mb"] = rss
    outcome.report["setup_samples_s"] = samples
    outcome.report["composition"] = replayed["composition"]
    if small:
        outcome.report["generator"] = generator_report(records)
    if trace:
        outcome.layers.update(replayed["layers"])
        outcome.layers.update(server_layers(scraped, spans))
    return outcome


def run_layers(scratch: Scratch, jobs: List[Dict[str, Any]],
               layers: bool) -> Dict[str, Any]:
    run_dir = scratch.fresh("layers")
    config = run_dir / "config.json"
    write_json(config, {"jobs": jobs, "layers": layers})
    subprocess.run(python_cmd("layers_child.py", str(config)), cwd=run_dir,
                   env=hermetic_env(run_dir), check=True, timeout=900,
                   stdin=subprocess.DEVNULL)
    return read_json(run_dir / "layers-result.json")


def check_serve(jobs, records, model_answers) -> Outcome:
    pi_reference = oracle.pi_text(workloads.PI_DIGITS)
    outcome = Outcome()
    latencies: List[float] = []
    statuses: Dict[str, int] = {}
    for job, record in zip(jobs, records):
        outcome.attempted += 1
        ok = False
        if record.status == 200:
            body = json.loads(record.body)
            error = oracle.job_error(job, body["result"], model_answers,
                                     pi_reference)
            if error is None:
                ok = True
            else:
                outcome.wrong.append(error)
        else:
            name = str(record.status)
            statuses[name] = statuses.get(name, 0) + 1
        if ok:
            latencies.append((record.done - record.due) * 1000.0)
        else:
            outcome.failed += 1
            latencies.append(FAILED_LATENCY_MS)
    outcome.metrics.update(latency_metrics(latencies))
    verified = outcome.attempted - outcome.failed
    outcome.metrics["jobs_per_s"] = verified / max(r.done for r in records)
    outcome.report.update({"latency_samples": len(latencies),
                           "beyond_p90": beyond(len(latencies), 0.90),
                           "beyond_p99": beyond(len(latencies), 0.99),
                           "failed_statuses": statuses})
    return outcome


def generator_report(records) -> Dict[str, Any]:
    """How late the open-loop generator ran, and whose fault it was."""
    late = [(r.sent - r.due) * 1000.0 for r in records]
    lag = [r.lag * 1000.0 for r in records]
    report = {"late_p50_ms": percentile(late, 0.5), "late_max_ms": max(late),
              "own_lag_p50_ms": percentile(lag, 0.5),
              "own_lag_max_ms": max(lag)}
    report["valid"] = report["own_lag_p50_ms"] <= MAX_GENERATOR_LAG_MS
    return report


def server_layers(scraped: Dict[str, float],
                  spans: Dict[str, Dict[str, Any]]) -> Dict[str, float]:
    def total(name: str) -> float:
        prefix = "repro_serve_" + name
        return sum(value for key, value in scraped.items()
                   if key == prefix or key.startswith(prefix + "{"))

    hits, misses = total("cache_hits_total"), total("cache_misses_total")
    batches = total("batch_size_count")
    layers = {
        "plan.codegen.compiles": total("codegen_compile_total"),
        "serve.batch_size.mean": (total("batch_size_sum") / batches
                                  if batches else 0.0),
        "serve.result_cache.hit_frac": (hits / (hits + misses)
                                        if hits + misses else 0.0),
        "serve.shed": total("shed_total"),
    }
    stages = {"admit": ("received", "admitted"),
              "queue": ("admitted", "execute_start"),
              "execute": ("execute_start", "execute_end"),
              "respond": ("execute_end", "responded")}
    for stage, (start, end) in stages.items():
        values = [trace["marks"][end] - trace["marks"][start]
                  for trace in spans.values()
                  if start in trace["marks"] and end in trace["marks"]
                  and not trace["id"].startswith("warm-")]
        for q, label in ((0.5, "p50"), (0.99, "p99")):
            layers["serve.%s_ms.%s" % (stage, label)] = (
                percentile(values, q) if values else 0.0)
    return layers


def measure_serve(workload: str, scratch: Scratch, seed: int,
                  seconds: float, trace: bool, setups: int) -> Outcome:
    """The serve load, then the four apps in-process for pi_s etc."""
    outcome = serve_phase(workload, scratch, seed, seconds * SERVE_SHARE,
                          trace, setups)
    probe = apps_phase(scratch, seed, seconds * (1.0 - SERVE_SHARE), trace,
                       1)
    for name in ("pi_s", "rsa_s", "frac_s", "zkcm_s"):
        outcome.metrics[name] = probe.metrics[name]
    outcome.layers = {**probe.layers, **outcome.layers}
    outcome.report["apps_probe"] = {
        key: probe.report[key]
        for key in ("apps_rounds", "unscaled_median_s", "probe_mean_s")}
    outcome.attempted += probe.attempted
    outcome.failed += probe.failed
    outcome.wrong += probe.wrong
    return outcome


# -- entry point --------------------------------------------------------------

def job_layer(name: str) -> bool:
    """Per-layer metrics measured from serve jobs: the apps workload
    has no jobs and no server, so they read 0 there."""
    return (name.startswith(("plan.lower.", "core.", "runtime.", "serve."))
            or name in ("mpn.mul.busy_s", "mpn.div.busy_s",
                        "mpn.powmod.busy_s", "apps.pi.busy_s"))


def measure(workload: str, scratch: Scratch, seed: int, seconds: float,
            trace: bool, setups: int) -> Outcome:
    if workload == "apps":
        outcome = measure_apps(scratch, seed, seconds, trace, setups)
    else:
        outcome = measure_serve(workload, scratch, seed, seconds, trace,
                                setups)
    outcome.metrics["verified_frac"] = (
        (outcome.attempted - outcome.failed) / outcome.attempted)
    return outcome


def run(args, spec: Dict[str, Any]) -> Outcome:
    scratch = Scratch()
    try:
        if not args.trace:
            return measure(args.workload, scratch, args.seed, args.seconds,
                           False, SETUPS)
        half = args.seconds / 2.0
        untraced = measure(args.workload, scratch, args.seed, half, False, 1)
        traced = measure(args.workload, scratch, args.seed, half, True, 1)
    finally:
        scratch.remove()
    layers = dict(traced.layers)
    for name in OVERHEAD_OF:
        layers["trace_overhead." + name] = (traced.metrics[name]
                                            - untraced.metrics[name])
    names = [entry["name"] for entry in spec["per_layer"]]
    if args.workload == "apps":
        layers.update((name, 0.0) for name in names if job_layer(name))
    missing = [name for name in names if name not in layers]
    if missing:
        raise RuntimeError("no value for per-layer metrics %s" % missing)
    traced.report["traced_metrics"] = dict(traced.metrics)
    traced.report["untraced_metrics"] = dict(untraced.metrics)
    traced.absorb(untraced)
    traced.layers = layers
    return traced


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("apps", "serve_small", "serve_large"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        log("no program sources under %s; nothing to measure", SRC)
        return 2
    spec = read_json(ROOT / "BENCHMARK.json")
    before = tree_state()
    outcome = run(args, spec)
    changed = tree_changes(before, tree_state())
    if changed:
        outcome.wrong.append("run changed the checkout: %s"
                             % ", ".join(changed[:10]))
    section = "per_layer" if args.trace else "end_to_end"
    values = outcome.layers if args.trace else outcome.metrics
    metrics = {entry["name"]: metric(values[entry["name"]], entry["unit"])
               for entry in spec[section]}
    outcome.report.update({"workload": args.workload, "seed": args.seed,
                           "seconds": args.seconds, "trace": args.trace,
                           "wrong": outcome.wrong[:10]})
    valid = outcome.report.get("generator", {}).get("valid", True)
    print(json.dumps({"report": outcome.report}, sort_keys=True))
    if not valid:
        log("invalid run: the load generator, not the server, fell behind")
        return 3
    for problem in outcome.wrong[:10]:
        log("WRONG: %s", problem)
    print(json.dumps({"correct": not outcome.wrong,
                      "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if not outcome.wrong else 1


if __name__ == "__main__":
    sys.exit(main())
