"""The repository benchmark: the paper's matrix in process, and served.

Run from the repository root::

    python3 perfbench/run.py --workload suite --seed 1 --seconds 10 --trace 0

Workloads (why each was chosen: ``perfbench/LAYERS.md``):

* ``suite`` — the 84 cells of the paper's matrix (14 Table-3 programs x
  sparc/m68020 x none/loops/jumps), each through ``compile_c`` ->
  ``optimize_program`` -> ``make_interpreter`` ->
  ``measure_program(trace=True)`` -> ``simulate_multi_cache`` over the
  8 Table-6 states; one closed-loop caller, no result cache.  The seed
  shuffles cell order.
* ``serve`` — a ``repro serve`` daemon (1 worker, fresh socket and cache
  dir) driven by two closed-loop connections over a seeded stream of
  untraced none/jumps cells: every catalogue cell once, Zipf-popular
  repeats, one sanitize-verified JUMPS cell per program and three
  fully verified (oracle-checked) ones.

A unit of work is two suite passes, or two serve streams each on a
fresh daemon; each runs under its own ``PYTHONHASHSEED`` and the
per-cell counts must agree (the determinism gate).  A run measures
whole units until ``--seconds`` have passed.  Every output and exit
code is checked against the unoptimized program run on the closure
interpreter.

Timings are reported at a reference CPU speed: each wall-clock interval
is multiplied by ``CALIBRATION_REFERENCE_S`` over the time a fixed,
program-independent loop (``common.calibrate``) took around it, sampled
by a child process (``calibrator.py``), and cut by the share of CPU time
the hypervisor stole meanwhile.  The raw wall-clock values are printed
in the ``provenance`` line.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics (from a traced pass, beside an
untraced one) with ``--trace 1``.  The exit code is 0 only when every
output matched and the counts repeated.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from time import perf_counter
from typing import Dict, List

from calibrator import Calibration
from common import (
    CORE_COUNTS,
    GATED_COUNTS,
    p50,
    p90,
    layer_time,
    self_times,
    speed_factor,
)

HERE = os.path.dirname(os.path.abspath(__file__))
#: Scratch space inside the checkout: reference cache, serve sockets,
#: span files.
WORK_DIR = ".perfbench-work"

TARGETS = ("sparc", "m68020")
CONFIGS = ("none", "loops", "jumps")
#: Serve traffic: SIMPLE and JUMPS cells, the paper's two endpoints.
SERVE_CONFIGS = ("none", "jumps")
#: Zipf-drawn repeat requests per serve stream: 79% of its 353
#: requests.  The share is chosen, not measured from callers: it models
#: several ``repro submit/await`` clients asking for the same popular
#: cells, and puts the median inside the cache-hit path and the p90
#: inside first-time computations rather than on the edge between them.
SERVE_REPEATS = 280
#: Popularity exponent, in the 0.64-0.83 range measured for web request
#: streams (Breslau et al., INFOCOM 1999).
ZIPF_EXPONENT = 0.8
#: Seed of the popularity ranking: one fixed shuffle of the catalogue in
#: every run, so the run's seed draws the repeats and the order but not
#: which cells are popular.  A cache hit costs 0.5-1.6 ms depending on
#: the cell; with a ranking per seed, the cells a seed happened to rank
#: first would set the median (simulated over measured per-cell hit
#: costs, that alone spreads 10 runs' medians by about 0.05 of their
#: median, and by nothing with a fixed ranking).
POPULARITY_SEED = 0
#: Programs whose sparc/JUMPS cell is also served under
#: ``verify="full"``, which reruns the closure-interpreter oracle after
#: every function: the three whose full verification costs least
#: (about 0.2 s each; all 14 take about 28 s, more than a run may).
FULL_VERIFY_PROGRAMS = ("banner", "deroff", "wc")
#: Set-up samples per run; the median is reported.
SETUP_SAMPLES = 7
#: A child pass must finish within this many seconds.
CHILD_TIMEOUT = 170


class BenchmarkError(RuntimeError):
    """A run that cannot produce a result (a crash, not a mismatch)."""


def hash_seeds(seed: int):
    """Two distinct ``PYTHONHASHSEED`` values derived from the run seed."""
    first = (2 * seed + 1) % 4294967295
    return first, first + 1


def child_env(root: str, hash_seed: int) -> Dict[str, str]:
    return dict(
        os.environ,
        PYTHONPATH=os.path.join(root, "src"),
        PYTHONHASHSEED=str(hash_seed),
    )


def run_job(root: str, job: dict, hash_seed: int) -> dict:
    """One ``pipeline.py job`` child; returns its JSON result."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "pipeline.py"), "job"],
        input=json.dumps(job),
        capture_output=True,
        text=True,
        cwd=root,
        env=child_env(root, hash_seed),
        timeout=CHILD_TIMEOUT,
    )
    if proc.returncode != 0:
        raise BenchmarkError(f"{job['kind']} child failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def probe_setup(root: str, hash_seed: int) -> tuple:
    """``(start, seconds)`` from launching a fresh process to
    toolchain-ready."""
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "pipeline.py"), "probe"],
        stdout=subprocess.PIPE,
        cwd=root,
        env=child_env(root, hash_seed),
    )
    with proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
    if proc.returncode != 0 or not line:
        raise BenchmarkError("set-up probe failed")
    return start, elapsed


def scaled(samples: List[tuple], start: float, seconds: float) -> float:
    """``seconds`` of wall time at the reference CPU speed."""
    return seconds * speed_factor(samples, start, start + seconds)


def calibration_provenance(calibration: Calibration) -> dict:
    """The calibrator's own CPU use and the steal share over the run."""
    first, last = calibration.samples[0], calibration.samples[-1]
    return {
        "calibrator_cpu_share": round(calibration.cpu_share, 4),
        "steal_share": round((last[2] - first[2]) / max(1, last[3] - first[3]), 4),
    }


def source_digest(root: str) -> str:
    """Hash of the program's sources and of the benchmark code that
    computes the cached results, their key."""
    sha = hashlib.sha256()
    paths = [os.path.join(HERE, name) for name in ("pipeline.py", "common.py")]
    for directory, dirs, files in sorted(os.walk(os.path.join(root, "src"))):
        dirs.sort()
        paths.extend(
            os.path.join(directory, name)
            for name in sorted(files)
            if name.endswith(".py")
        )
    for path in paths:
        sha.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as handle:
            sha.update(handle.read())
    return sha.hexdigest()


def cached_job(root: str, job: dict, hash_seed: int) -> dict:
    """:func:`run_job`'s result, kept per version of the sources, the
    benchmark code that computes it (:func:`source_digest`) and the job."""
    key = hashlib.sha256((source_digest(root) + json.dumps(job)).encode())
    path = os.path.join(WORK_DIR, f"{job['kind']}-{key.hexdigest()[:16]}.json")
    if os.path.exists(path):
        with open(path) as handle:
            return json.load(handle)
    data = run_job(root, job, hash_seed)
    with tempfile.NamedTemporaryFile("w", dir=WORK_DIR, delete=False) as handle:
        json.dump(data, handle)
    os.replace(handle.name, path)
    return data


def load_reference(root: str, programs: List[str]) -> Dict[str, list]:
    """Reference (output digest, exit code) per program, before timing.

    Kept per version of the sources: the closure interpreter takes
    ~10 s for the suite.
    """
    job = {"kind": "reference", "programs": programs}
    return cached_job(root, job, 0)["reference"]


# --- checks --------------------------------------------------------------


def check_output(record: dict, reference: Dict[str, list]) -> bool:
    expected = reference[record["cell"][0]]
    return [record["output"], record["exit"]] == expected


def gate(projections: List[Dict[tuple, dict]], keys=GATED_COUNTS) -> List[str]:
    """Cells whose counts differ between projections (hash seeds)."""
    first = projections[0]
    bad = []
    for other in projections[1:]:
        for cell, counts in first.items():
            theirs = other.get(cell)
            if theirs is None:
                continue
            if any(counts[key] != theirs[key] for key in keys):
                bad.append("/".join(cell))
    return bad


def gen_metrics(counts: Dict[tuple, dict]) -> Dict[str, float]:
    def total(key):
        return sum(cell[key] for cell in counts.values())

    return {
        "gen_dyn_insns": total("dyn_insns"),
        "gen_dyn_jumps": total("dyn_jumps"),
        "gen_code_bytes": total("code_bytes"),
        "gen_icache_misses": total("icache_misses"),
    }


def count_layers(records: List[dict]) -> Dict[str, float]:
    """Per-layer counts of one projection pass (distinct cells)."""
    by_cell = {tuple(record["cell"]): record for record in records}
    cells = by_cell.values()

    def total(key):
        return sum(record["counts"][key] for record in cells)

    replaced, rollbacks = total("jumps_replaced"), total("rollbacks")
    rtls = {
        config: sum(
            record["counts"]["rtls_out"]
            for record in cells
            if record["cell"][2] == config
        )
        for config in ("none", "jumps")
    }
    return {
        "frontend.rtls_out": sum(record["rtls_in"] for record in cells),
        "opt.rtls_out": total("rtls_out"),
        "opt.blocks_out": total("blocks_out"),
        "opt.growth_ratio": rtls["jumps"] / rtls["none"],
        "core.jumps_replaced": replaced,
        "core.rtls_replicated": total("rtls_replicated"),
        "core.rollbacks": rollbacks,
        "core.guard_stops": total("guard_stops"),
        "core.valve_trips": total("valve_trips"),
        "core.replace_yield": replaced / max(1, replaced + rollbacks),
    }


def trace_summary(selfs, traced, untraced) -> Dict[str, float]:
    """Residual of the self-time breakdown and the tracing overhead."""
    return {
        "trace.residual_share": layer_time(selfs, "residual")
        / sum(selfs.values()),
        "trace.overhead_share": 1.0
        - traced["throughput_per_s"] / untraced["throughput_per_s"],
        "trace.overhead_p50_ms": traced["latency_p50_ms"]
        - untraced["latency_p50_ms"],
    }


def tail_cells(labelled: List[tuple]) -> List[str]:
    """Distinct cells of the ``(cell, latency)`` requests slower than
    their p90, so a later change can name the tail it claims to fix."""
    threshold = p90([latency for _, latency in labelled])
    return sorted({cell for cell, latency in labelled if latency > threshold})


def timing_metrics(latencies: List[float], wall: float) -> Dict[str, float]:
    return {
        "throughput_per_s": len(latencies) / wall,
        "latency_p50_ms": p50(latencies) * 1000.0,
        "latency_p90_ms": p90(latencies) * 1000.0,
    }


# --- workloads -----------------------------------------------------------


def matrix_cells(programs: List[str], configs=CONFIGS) -> List[list]:
    return [
        [program, target, config]
        for program in programs
        for target in TARGETS
        for config in configs
    ]


def run_suite(root, args, programs, reference, scratch) -> dict:
    rng = random.Random(args.seed)
    hash_a, hash_b = hash_seeds(args.seed)
    cells = matrix_cells(programs)
    passes = {"untraced": [], "traced": []}
    measured = 0.0
    with Calibration(scratch, "suite") as speed:
        probes = [probe_setup(root, hash_a) for _ in range(SETUP_SAMPLES)]
        while not passes["untraced"] or measured < args.seconds:
            # One unit: a pass under each hash seed, in its own cell order.
            for hash_seed, traced in ((hash_a, False), (hash_b, bool(args.trace))):
                order = cells[:]
                rng.shuffle(order)
                job = {"kind": "cells", "cells": order, "trace": traced}
                result = run_job(root, job, hash_seed)
                requests = result["requests"]
                result["wall"] = requests[-1]["end"] - requests[0]["start"]
                measured += result["wall"]
                passes["traced" if traced else "untraced"].append(result)
    setups = [scaled(speed.samples, start, seconds) for start, seconds in probes]

    all_passes = passes["untraced"] + passes["traced"]
    records = [record for result in all_passes for record in result["requests"]]
    failed = sum(not check_output(record, reference) for record in records)
    projections = [
        {tuple(r["cell"]): r["counts"] for r in result["requests"]}
        for result in all_passes
    ]
    nondeterministic = gate(projections)

    def scale_of(result):
        """Per-request factor to the reference speed."""
        return [
            speed_factor(speed.samples, r["start"], r["end"])
            for r in result["requests"]
        ]

    def timing(results, at_reference=True):
        """Latencies and the busy time of the one closed-loop caller."""
        latencies = [
            r["latency"] * (factor if at_reference else 1.0)
            for result in results
            for r, factor in zip(result["requests"], scale_of(result))
        ]
        return timing_metrics(latencies, sum(latencies))

    untraced = timing(passes["untraced"])
    metrics = {
        "setup_s": p50(setups),
        **untraced,
        "success_share": 1.0 - failed / len(records),
        "peak_rss_mb": max(r["peak_rss_kb"] for r in passes["untraced"]) / 1024.0,
        **gen_metrics(projections[0]),
    }
    layers = {}
    if args.trace:
        traced_runs = passes["traced"]
        span_lists = [result["spans"] for result in traced_runs]
        traced_records = [r for result in traced_runs for r in result["requests"]]
        selfs = self_times(span_lists, [scale_of(result) for result in traced_runs])
        measure_s = selfs["ease.measure_program"]
        simulate_s = layer_time(selfs, "cache")
        layers = {
            **count_layers(traced_records),
            "frontend.compile_s": layer_time(selfs, "frontend"),
            "opt.optimize_s": layer_time(selfs, "opt"),
            "ease.translate_s": selfs["ease.make_interpreter"],
            "ease.measure_s": measure_s,
            "ease.insns_per_s": sum(r["counts"]["dyn_insns"] for r in traced_records)
            / measure_s,
            "ease.trace_records": sum(r["trace_records"] for r in traced_records),
            "cache.simulate_s": simulate_s,
            "cache.blocks_per_s": sum(r["raw_blocks"] for r in traced_records)
            / simulate_s,
            "cache.fastforward_share": sum(
                r["fastforward_hits"] for r in traced_records
            )
            / sum(r["cache_accesses"] for r in traced_records),
            **trace_summary(selfs, timing(traced_runs), untraced),
        }
        write_spans(args, span_lists)
    return {
        "metrics": metrics,
        "layers": layers,
        "attempted": len(records),
        "failed": failed,
        "nondeterministic": nondeterministic,
        "samples": len(records) - sum(len(r["requests"]) for r in passes["traced"]),
        "provenance": {
            "requests": len(records),
            "distinct_cells": len(projections[0]),
            "pass_walls": [round(result["wall"], 3) for result in all_passes],
            "wall_clock": timing(passes["untraced"], at_reference=False),
            "p90_tail_cells": tail_cells(
                [
                    ("/".join(r["cell"]), r["latency"] * factor)
                    for result in passes["untraced"]
                    for r, factor in zip(result["requests"], scale_of(result))
                ]
            ),
            "hash_seeds": [hash_a, hash_b],
            "setup_samples": [seconds for _, seconds in probes],
            **calibration_provenance(speed),
        },
    }


def serve_stream(rng: random.Random, programs: List[str]) -> List[list]:
    """Every catalogue cell once, Zipf repeats, and verified JUMPS cells."""
    catalogue = [cell + [None] for cell in matrix_cells(programs, SERVE_CONFIGS)]
    popularity = catalogue[:]
    random.Random(POPULARITY_SEED).shuffle(popularity)
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(popularity))]
    repeats = rng.choices(popularity, weights=weights, k=SERVE_REPEATS)
    verified = [[program, "sparc", "jumps", "sanitize"] for program in programs]
    verified += [
        [program, "sparc", "jumps", "full"] for program in FULL_VERIFY_PROGRAMS
    ]
    stream = catalogue + repeats + verified
    rng.shuffle(stream)
    return stream


def run_serve(root, args, programs, reference, scratch) -> dict:
    from serveload import Daemon, drive

    from repro.serve.client import ServeClient

    rng = random.Random(args.seed)
    hash_a, hash_b = hash_seeds(args.seed)
    runs = []
    starts: List[tuple] = []
    measured = 0.0
    with Calibration(scratch, "serve") as speed:
        for index in range(SETUP_SAMPLES - 2):
            daemon = Daemon(root, scratch, f"setup{index}", hash_a)
            starts.append((daemon.started, daemon.setup_s))
            daemon.stop()
        while not runs or measured < args.seconds:
            # One unit: a stream on a fresh daemon under each hash seed,
            # the second traced with --trace 1.
            for hash_seed, traced in ((hash_a, False), (hash_b, bool(args.trace))):
                stream = serve_stream(rng, programs)
                daemon = Daemon(root, scratch, f"load{len(runs)}", hash_seed)
                starts.append((daemon.started, daemon.setup_s))
                try:
                    run = drive(daemon, stream, traced)
                    with ServeClient(daemon.socket) as client:
                        run["stats"] = client.stats()
                    run["peak_rss_kb"] = daemon.peak_rss_kb()
                finally:
                    daemon.stop()
                run.update(stream=stream, traced=traced)
                runs.append(run)
                measured += run["wall"]
    samples = speed.samples
    setups = [scaled(samples, start, seconds) for start, seconds in starts]
    for run in runs:
        for r in run["records"]:
            if r is not None:
                r["factor"] = scaled(samples, r["start"], r["latency"]) / r["latency"]

    # The Table-6 counts the untraced served cells do not carry: the
    # suite pipeline over the served cells, kept per version of the
    # sources.  Its counts join the gate beside both daemons'.
    distinct = matrix_cells(programs, SERVE_CONFIGS)
    job = {"kind": "cells", "cells": distinct, "trace": False}
    projection = cached_job(root, job, hash_b)
    projected = {tuple(r["cell"]): r["counts"] for r in projection["requests"]}

    failed = 0
    attempted = 0
    problems: List[str] = []
    served: List[Dict[tuple, dict]] = []
    for run in runs:
        problems.extend(run["errors"])
        submitted = run["stats"]["jobs"]["submitted"]
        if submitted != len(run["stream"]):
            problems.append(f"daemon saw {submitted} of {len(run['stream'])} requests")
        counts: Dict[tuple, dict] = {}
        for record in run["records"]:
            attempted += 1
            if record is None or record["error"] is not None:
                failed += 1
                if record is not None:
                    problems.append(record["error"])
                continue
            record["cell"] = record["request"][:3]
            verification = record["verification"] or {}
            if not check_output(record, reference) or "failure" in verification:
                failed += 1
                continue
            counts.setdefault(tuple(record["cell"]), record["counts"])
        served.append(counts)
    nondeterministic = gate(
        [projected] + served,
        keys=("dyn_insns", "dyn_jumps", "code_bytes") + CORE_COUNTS,
    )

    def timing(chosen, at_reference=True):
        """Latencies and throughput over the streams' wall time."""
        latencies = []
        wall = 0.0
        for run in chosen:
            for r in run["records"]:
                if r is not None:
                    latencies.append(
                        r["latency"] * (r["factor"] if at_reference else 1.0)
                    )
            wall += (
                scaled(samples, run["start"], run["wall"])
                if at_reference
                else run["wall"]
            )
        return timing_metrics(latencies, wall)

    untraced_runs = [run for run in runs if not run["traced"]]
    untraced = timing(untraced_runs)
    samples_n = sum(len(run["records"]) for run in untraced_runs)
    # Requests whose cell an earlier request of the same stream named.
    repeats = sum(
        len(run["stream"]) - len({tuple(request) for request in run["stream"]})
        for run in runs
    )
    repeat_share = repeats / attempted
    metrics = {
        "setup_s": p50(setups),
        **untraced,
        "success_share": 1.0 - failed / attempted,
        "peak_rss_mb": max(run["peak_rss_kb"] for run in untraced_runs) / 1024.0,
        **gen_metrics(projected),
    }
    layers = {}
    if args.trace:
        traced_runs = [run for run in runs if run["traced"]]
        records = [
            r
            for run in traced_runs
            for r in run["records"]
            if r and r["error"] is None
        ]
        span_lists = [run["spans"] for run in traced_runs]
        factors = [
            {i: r["factor"] for i, r in enumerate(run["records"]) if r is not None}
            for run in traced_runs
        ]
        selfs = self_times(span_lists, factors)
        fresh = [r for r in records if r["fresh"]]
        measure_s = layer_time(selfs, "ease")
        waits = [
            (r["latency"] - (r["compute_s"] if r["fresh"] else 0.0)) * r["factor"]
            for r in records
        ]
        submits = [
            span["duration"] * fs[span["request"]]
            for spans, fs in zip(span_lists, factors)
            for span in spans
            if span["name"] == "serve.submit"
        ]
        layers = {
            **count_layers(projection["requests"]),
            "frontend.compile_s": layer_time(selfs, "frontend"),
            "opt.optimize_s": layer_time(selfs, "opt"),
            "verify.optimize_verified_s": layer_time(selfs, "verify"),
            "verify.oracle_runs": sum(
                (r["verification"] or {}).get("oracle_runs", 0) for r in fresh
            ),
            "verify.sanitize_checks": sum(
                (r["verification"] or {}).get("sanitize_checks", 0) for r in fresh
            ),
            "ease.measure_s": measure_s,
            "ease.insns_per_s": sum(r["counts"]["dyn_insns"] for r in fresh)
            / measure_s,
            "exec.cache_hit_share": sum(r["cached"] for r in records) / len(records),
            "exec.compute_ms": p50([r["compute_s"] * r["factor"] for r in fresh])
            * 1000.0,
            "serve.submit_ms": p50(submits) * 1000.0,
            "serve.wait_p50_ms": p50(waits) * 1000.0,
            "serve.wait_p90_ms": p90(waits) * 1000.0,
            "serve.coalesced_share": sum(r["coalesced"] for r in records)
            / len(records),
            "serve.repeat_share": repeat_share,
            "serve.self_s": layer_time(selfs, "serve"),
            **trace_summary(selfs, timing(traced_runs), untraced),
        }
        write_spans(args, span_lists)
    return {
        "metrics": metrics,
        "layers": layers,
        "attempted": attempted,
        "failed": failed,
        "nondeterministic": nondeterministic,
        "problems": problems[:5],
        "samples": samples_n,
        "provenance": {
            "requests": attempted,
            "distinct_cells": len(distinct),
            "verified_requests": sum(
                1 for run in runs for request in run["stream"] if request[3]
            ),
            "wall_clock": timing(untraced_runs, at_reference=False),
            "p90_tail_cells": tail_cells(
                [
                    ("/".join(filter(None, r["request"])), r["latency"] * r["factor"])
                    for run in untraced_runs
                    for r in run["records"]
                    if r is not None
                ]
            ),
            "repeat_share": repeat_share,
            "hash_seeds": [hash_a, hash_b],
            "setup_samples": [seconds for _, seconds in starts],
            "daemon_jobs": [run["stats"]["jobs"] for run in runs],
            **calibration_provenance(speed),
        },
    }


def write_spans(args, span_lists) -> None:
    """One JSON line per span, tagged with its traced pass or stream."""
    path = os.path.join(WORK_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
    with open(path, "w") as handle:
        for index, spans in enumerate(span_lists):
            for span in spans:
                handle.write(json.dumps({"pass": index, **span}) + "\n")
    print(f"spans written to {path}")


# --- output --------------------------------------------------------------


def print_table(title: str, values: Dict[str, float], units, samples) -> None:
    print(title)
    for name, value in values.items():
        print(f"  {name:<30} {value:>16.6g} {units[name]:<11} n={samples}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("suite", "serve"), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print(
            "error: src/repro not found; run from the repository root",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    from repro.benchsuite.programs import program_names

    os.makedirs(WORK_DIR, exist_ok=True)
    programs = program_names()
    # Relative, so serve socket paths stay short.
    scratch = os.path.relpath(tempfile.mkdtemp(prefix="run-", dir=WORK_DIR))
    try:
        reference = load_reference(root, programs)
        run = run_suite if args.workload == "suite" else run_serve
        outcome = run(root, args, programs, reference, scratch)
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        **outcome["provenance"],
        "nondeterministic_cells": outcome["nondeterministic"],
        "problems": outcome.get("problems", []),
    }
    print("provenance: " + json.dumps(provenance))
    declared = load_declared()
    units = {
        metric["name"]: metric["unit"]
        for metric in declared["end_to_end"] + declared["per_layer"]
    }
    # Metrics of a layer the workload does not exercise read 0.
    layers = {metric["name"]: 0.0 for metric in declared["per_layer"]}
    layers.update(outcome["layers"])
    expected = {"end_to_end": outcome["metrics"], "per_layer": layers}
    for kind, values in expected.items():
        if set(values) != {metric["name"] for metric in declared[kind]}:
            raise BenchmarkError(f"{kind} metrics differ from BENCHMARK.json")
    print_table(
        f"end-to-end ({args.workload}, untraced)",
        outcome["metrics"],
        units,
        outcome["samples"],
    )
    if args.trace:
        print_table(f"per-layer ({args.workload}, traced)", layers, units, "-")
    correct = (
        outcome["failed"] == 0
        and not outcome["nondeterministic"]
        and not outcome.get("problems")
    )
    chosen = layers if args.trace else outcome["metrics"]
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome["attempted"],
                "failed": outcome["failed"],
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in chosen.items()
                },
            }
        )
    )
    return 0 if correct else 1


def load_declared() -> dict:
    """The metric declarations of ``BENCHMARK.json``."""
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as handle:
        return json.load(handle)


if __name__ == "__main__":
    sys.exit(main())
