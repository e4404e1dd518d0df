"""End-to-end DBTF benchmark: time from input files on disk to factors.

Run one workload (from the root of a checkout; ``src/`` holds the program)::

    python3 perfbench/run.py --workload batch-r10-serial --seed 1 \
        --seconds 15 --trace 0

``--trace 0`` times untraced operations and prints the end-to-end metrics;
``--trace 1`` times untraced operations on the first instance as a base,
then one traced operation, and prints the per-layer metrics and table.
The last line of standard output is the JSON result; every run also writes
its samples, header and checks to ``.bench_results/<workload>/``.

Compare two result sets (directories holding those per-workload files)::

    python3 perfbench/run.py --compare BASE_DIR CANDIDATE_DIR

See ``perfbench/README.md`` for the workloads and what each metric feeds.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
RESULTS = os.path.join(ROOT, ".bench_results")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

sys.path.insert(0, HERE)

import compare  # noqa: E402
import gen  # noqa: E402
import layers  # noqa: E402

SHAPE = 256
#: Every operation runs the solver for exactly two iterations: the initial
#: sweep and one refinement.  The solver's own stopping rule ends after two
#: or three depending on the instance, which would make time a property of
#: the seed rather than of the code.
MAX_ITERATIONS = 2
WORKERS = 2
#: Below the stream's cached working set (three packed unfoldings plus the
#: row-summation caches), so partitions spill and page back every epoch.
STREAM_BUDGET = 12 << 20
STREAM_DELTAS = 2
#: Set-up samples per run, taken between timed operations.
SETUP_SAMPLES = 5
WARM_PARTITIONS = 8
#: No operation starts once this much of a run has passed, so that a run
#: ends within three minutes even on a slow host.
DEADLINE_S = 140.0

WORKLOADS = {
    "batch-r10-serial": dict(rank=10, density=0.1, backend="serial", instances=6),
    "batch-r10-process": dict(rank=10, density=0.1, backend="process", instances=3),
    "batch-r40-serial": dict(rank=40, density=0.06, backend="serial", instances=2),
    "stream-r10-budget": dict(
        rank=10, density=0.1, backend="serial", instances=5,
        deltas=STREAM_DELTAS, budget=STREAM_BUDGET,
    ),
}


class CheckFailed(Exception):
    """An operation's output failed one of the benchmark's checks."""


def _noop(index, items):
    return items


# ----------------------------------------------------------------------
# Operations
# ----------------------------------------------------------------------
def make_runtime(workload: dict, traced: bool, spill_dir: "str | None" = None):
    """A runtime for one operation, its worker pool already started."""
    from repro.distengine import ClusterConfig, SimulatedRuntime

    config = ClusterConfig(
        backend=workload["backend"],
        n_workers=WORKERS if workload["backend"] != "serial" else None,
        tracing=traced,
        memory_budget=workload.get("budget"),
        spill_dir=spill_dir,
    )
    runtime = SimulatedRuntime(config)
    runtime.backend.run_stage("setup", _noop, [(i, []) for i in range(WORKERS)])
    return runtime


def factor_digest(factors) -> str:
    digest = hashlib.sha256()
    for factor in factors:
        digest.update(repr((factor.n_rows, factor.n_cols)).encode())
        digest.update(factor.words.tobytes())
    return digest.hexdigest()


def check_error(tensor, result) -> None:
    """The recounted error must equal the error the solver reports."""
    from repro.metrics.error import reconstruction_error

    recount = reconstruction_error(tensor, result.factors)
    if recount != result.error:
        raise CheckFailed(
            f"recounted error {recount} != reported error {result.error}"
        )


def reset_peak_rss() -> None:
    """Start this process's peak-RSS count afresh (Linux ``clear_refs``)."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its live children, in MB.

    The driver's peak counts from the last :func:`reset_peak_rss`; pool
    workers are started per operation, so theirs cover that operation.
    """
    pids = [os.getpid()]
    for task in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{task}/children", encoding="ascii") as handle:
                pids.extend(int(pid) for pid in handle.read().split())
        except OSError:
            continue
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


def batch_op(workload: dict, instance: dict, recorder: "layers.Recorder | None"):
    """Load one tensor file and factorize it; returns the operation record."""
    from repro import DbtfConfig, dbtf, load_tensor

    traced = recorder is not None
    rec = recorder or layers.Recorder()
    runtime = make_runtime(workload, traced)
    try:
        config = DbtfConfig(
            rank=workload["rank"], max_iterations=MAX_ITERATIONS,
            n_partitions=workload.get("partitions"),
        )
        with rec.span("op", layers.UNATTRIBUTED) as root:
            started = time.perf_counter()
            with rec.span("tensor.load_tensor", "tensor"):
                tensor = load_tensor(instance["tensor"])
            with rec.span("core.dbtf", "core"):
                result = dbtf(tensor, config=config, runtime=runtime)
            wall = time.perf_counter() - started
        rss = peak_rss_mb()
    finally:
        runtime.close()
    check_error(tensor, result)
    return {
        "op_s": wall,
        "time_to_factors_s": wall,
        "epoch_s": [wall],
        "error": result.error,
        "nnz": tensor.nnz,
        "simulated_s": result.report.simulated_time,
        "peak_rss_mb": rss,
        "digest": factor_digest(result.factors),
        "iterations": result.n_iterations,
        "root": root,
        "runtime": runtime,
        "report": result.report,
        "swept": 0.0, "skipped": 0.0,
    }


def stream_op(workload: dict, instance: dict, recorder: "layers.Recorder | None"):
    """Epoch 0 from a tensor file, then one epoch per delta file."""
    from repro import DbtfConfig, FactorizationSession, load_tensor
    from repro.tensor import load_delta

    traced = recorder is not None
    rec = recorder or layers.Recorder()
    scratch = tempfile.mkdtemp(prefix="stream-", dir=WORK)
    runtime = make_runtime(workload, traced, spill_dir=scratch)
    checks = []
    try:
        config = DbtfConfig(
            rank=workload["rank"], max_iterations=MAX_ITERATIONS,
            n_partitions=workload.get("partitions"),
        )
        epoch_times = []
        with rec.span("op", layers.UNATTRIBUTED) as root:
            op_started = started = time.perf_counter()
            with rec.span("tensor.load_tensor", "tensor"):
                tensor = load_tensor(instance["tensor"])
            session = FactorizationSession(
                tensor, config, runtime=runtime,
                checkpoint_root=os.path.join(scratch, "checkpoints"),
            )
            with rec.span("incremental.factorize", "incremental"):
                epoch = session.factorize()
            first_wall = time.perf_counter() - started
            first_simulated = epoch.result.report.simulated_time
            checks.append((session.tensor, epoch.result))
            for path in instance["deltas"]:
                started = time.perf_counter()
                with rec.span("tensor.load_delta", "tensor"):
                    delta = load_delta(path)
                with rec.span("incremental.advance", "incremental"):
                    epoch = session.advance(delta)
                epoch_times.append(time.perf_counter() - started)
                checks.append((session.tensor, epoch.result))
            op_wall = time.perf_counter() - op_started
        rss = peak_rss_mb()
        report = runtime.report()
        swept = runtime.metrics.value("incremental_columns_swept_total")
        skipped = runtime.metrics.value("incremental_columns_skipped_total")
        session.close()
    finally:
        runtime.close()
        shutil.rmtree(scratch, ignore_errors=True)
    # The sparse recount is the costly check: run it on the first and the
    # last epoch, whose error the whole chain of warm starts leads to.
    for tensor, result in (checks[0], checks[-1]):
        check_error(tensor, result)
    final = session.tensor
    cells = np.ravel_multi_index(final.coords.T, final.shape)
    if gen.cells_digest(np.sort(cells)) != instance["final_digest"]:
        raise CheckFailed("stream's final tensor differs from the generator's")
    result = checks[-1][1]
    return {
        "op_s": op_wall,
        "time_to_factors_s": first_wall,
        "epoch_s": epoch_times,
        "error": result.error,
        "nnz": session.tensor.nnz,
        "simulated_s": first_simulated,
        "peak_rss_mb": rss,
        "digest": factor_digest(result.factors),
        "iterations": sum(r.n_iterations for _, r in checks),
        "root": root,
        "runtime": runtime,
        "report": report,
        "swept": swept, "skipped": skipped,
    }


def run_op(workload: dict, instance: dict, recorder=None) -> dict:
    """One operation, after collecting the previous one's garbage."""
    op = stream_op if "deltas" in workload else batch_op
    gc.collect()
    reset_peak_rss()
    return op(workload, instance, recorder)


# ----------------------------------------------------------------------
# Set-up time
# ----------------------------------------------------------------------
def setup_probe(backend: str) -> None:
    """Child side of a set-up sample: import, build, start the pool, wait."""
    sys.path.insert(0, SRC)
    from repro.distengine import ClusterConfig, SimulatedRuntime

    config = ClusterConfig(
        backend=backend, n_workers=WORKERS if backend != "serial" else None
    )
    with SimulatedRuntime(config) as runtime:
        runtime.backend.run_stage(
            "setup", _noop, [(i, []) for i in range(WORKERS)]
        )
        print("ready", flush=True)
        sys.stdin.read()


def setup_sample(backend: str) -> float:
    """Seconds from starting a fresh interpreter to a runtime ready for stages.

    That is interpreter start, importing the package, building the runtime
    and starting its worker pool (forced by one trivial stage) — what a
    user pays before any solve.
    """
    started = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--setup-probe", backend],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT,
    )
    try:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - started
    finally:
        child.stdin.close()
        child.wait(timeout=60)
    if line.strip() != "ready" or child.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {child.returncode})")
    return elapsed


# ----------------------------------------------------------------------
# Driving a workload
# ----------------------------------------------------------------------
def generate_inputs(workload: dict, seed: int, shape: int,
                    instances: int, out: str) -> dict:
    """Run the generator in its own process; returns its manifest."""
    command = [
        sys.executable, os.path.join(HERE, "gen.py"),
        "--shape", str(shape), "--rank", str(workload["rank"]),
        "--density", str(workload["density"]), "--seed", str(seed),
        "--instances", str(instances), "--deltas", str(workload.get("deltas", 0)),
        "--out", out,
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"generator failed: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_header(name: str, workload: dict, seed: int, manifest: dict) -> dict:
    import numpy

    return {
        "workload": name,
        "shape": manifest["shape"],
        "nnz": [entry["nnz"] for entry in manifest["instances"]],
        "rank": workload["rank"],
        "backend": workload["backend"],
        "workers": WORKERS if workload["backend"] != "serial" else 1,
        "budget": workload.get("budget"),
        "deltas": workload.get("deltas", 0),
        "max_iterations": MAX_ITERATIONS,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def format_header(header: dict) -> str:
    shape = "x".join(str(s) for s in header["shape"])
    return (
        f"Datasize: {shape} | nnz: {header['nnz']} | Rank: {header['rank']} | "
        f"Backend: {header['backend']} x{header['workers']} | "
        f"Budget: {header['budget']} | Seed: {header['seed']} | "
        f"nproc: {header['nproc']} | Python {header['python']} | "
        f"numpy {header['numpy']}"
    )


def warm_up(name: str, workload: dict, seed: int, manifest: dict) -> dict:
    """Fill caches before timing: page cache, imports, first-call paths.

    Every input file is read once and one whole operation runs on a small
    instance of the workload, over few partitions so that it is quick.  On
    the process workload a serial operation on the first full-size instance
    also runs, as the reference its factors must match bit for bit.
    """
    for entry in manifest["instances"]:
        for path in (entry["tensor"], *entry.get("deltas", ())):
            with open(path, "rb") as handle:
                handle.read()
    small = generate_inputs(
        workload, seed, 64, 1, os.path.join(WORK, name, "warm")
    )
    run_op(dict(workload, partitions=WARM_PARTITIONS), small["instances"][0])
    if workload["backend"] == "serial":
        return {}
    reference = run_op(dict(workload, backend="serial"), manifest["instances"][0])
    return {
        "digest": reference["digest"],
        "simulated_s": reference["simulated_s"],
    }


def timed_ops(workload, instances, seconds, reference, deadline,
              setup_samples=None):
    """Operations cycling over ``instances`` until each ran once and
    ``seconds`` passed; returns (records, failures).

    With a ``setup_samples`` list, one set-up sample is taken before each of
    the first ``SETUP_SAMPLES`` operations, so the samples spread over the
    run like the operations.
    """
    records, failures = [], []
    digests = {}
    started = time.perf_counter()
    index = 0
    while index < len(instances) or time.perf_counter() - started < seconds:
        if time.perf_counter() > deadline:
            break
        which = index % len(instances)
        index += 1
        if setup_samples is not None and len(setup_samples) < SETUP_SAMPLES:
            setup_samples.append(setup_sample(workload["backend"]))
        try:
            record = run_op(workload, instances[which])
            expected = digests.setdefault(which, record["digest"])
            if record["digest"] != expected:
                raise CheckFailed("factors differ between runs of one instance")
            if which == 0 and reference and record["digest"] != reference["digest"]:
                raise CheckFailed("process factors differ from serial factors")
        except Exception as error:  # every failed operation is counted
            failures.append(f"instance {which}: {type(error).__name__}: {error}")
            continue
        record["instance"] = which
        records.append(record)
    return records, failures


def summarize(values: "list[float]", unit: str) -> dict:
    low, median, high = compare.quartiles(values)
    summary = {"median": median, "q1": low, "q3": high, "n": len(values), "unit": unit}
    upper = compare.upper_percentile(values)
    if upper is not None:
        summary[f"p{upper[0]}"] = upper[1]
    return summary


def e2e_metrics(records, setup_samples, units) -> "tuple[dict, dict]":
    """End-to-end metric values and their sample summaries."""
    samples = {
        "time_to_factors_s": [r["time_to_factors_s"] for r in records],
        "epoch_s": [t for r in records for t in r["epoch_s"]],
        "setup_s": setup_samples,
        "simulated_s": [r["simulated_s"] for r in records],
        "peak_rss_mb": [r["peak_rss_mb"] for r in records],
    }
    summaries = {
        name: summarize(values, units[name]) for name, values in samples.items()
    }
    values = {name: summary["median"] for name, summary in summaries.items()}
    # Pooled over the distinct instances the run factorized.  It varies
    # with the seed far more than any bound allows (one instance's value
    # ranges over 0.27-0.49), so it is recorded and checked, not gated.
    first = {}
    for record in records:
        first.setdefault(record["instance"], record)
    values["rel_error"] = (
        sum(r["error"] for r in first.values()) / sum(r["nnz"] for r in first.values())
    )
    return values, summaries


def layer_metrics(record: dict, recorder: "layers.Recorder", workers: int,
                  base_s: float) -> "tuple[dict, dict]":
    """Per-layer metrics and the self-time table of one traced operation."""
    from repro.distengine import TransferKind

    spans, totals = recorder.spans, recorder.totals
    root = record["root"]
    wall = spans[root].duration
    table = layers.layer_table(spans, root)
    selfs = layers.self_times(spans)

    def total(name: str) -> float:
        return sum(s.duration for s in spans if s.name == name)

    def count(name: str) -> float:
        return totals.get(name, 0.0)

    report = record["report"]
    ledger = record["runtime"].ledger
    metrics_registry = record["runtime"].metrics
    ledger_bytes = report.network_bytes
    swept, skipped = record["swept"], record["skipped"]
    values = {
        "tensor.ingest_s": total("tensor.load_tensor") + total("tensor.load_delta"),
        "core.prepare_s": total("core.prepare"),
        "core.update_factor_s": total("core.update_factor"),
        "core.iterations": record["iterations"],
        "core.rel_error": record["error"] / record["nnz"],
        "core.columns_evaluated": count("column_stages"),
        "core.column_kernel_s": count("column_kernel_s"),
        "core.cache_build_s": count("cache_build_s"),
        "core.mask_rebuild_s": count("column_task_self_s"),
        "bitops.kernel_s": count("bitops_kernel_s"),
        "distengine.stages": report.n_stages,
        "distengine.tasks": sum(len(s.durations) for s in record["runtime"].stages),
        "distengine.stage_wall_s": count("stage_wall_s"),
        "distengine.task_cpu_s": count("task_cpu_s"),
        "distengine.dispatch_overhead_s": (
            count("stage_wall_s") - count("task_cpu_s") / workers
        ),
        "distengine.ipc_bytes": count("ipc_bytes"),
        "distengine.ledger_bytes": ledger_bytes,
        "distengine.ipc_per_ledger": (
            count("ipc_bytes") / ledger_bytes if ledger_bytes else 0.0
        ),
        "distengine.collect_bytes": report.collect_bytes,
        "distengine.task_bytes": report.task_bytes,
        "distengine.shuffle_bytes": report.shuffle_bytes,
        "distengine.broadcast_bytes": report.broadcast_bytes,
        "distengine.driver_s": sum(
            selfs[s.span_id] for s in spans if s.name == "core.update_factor"
        ),
        "incremental.patch_s": total("incremental.patch"),
        "incremental.dirty_s": total("incremental.dirty"),
        "incremental.columns_swept": swept,
        "incremental.sweep_fraction": (
            swept / (swept + skipped) if swept + skipped else 0.0
        ),
        "storage.io_s": total("storage.admit") + total("storage.fetch"),
        "storage.spill_bytes": ledger.bytes_of_kind(TransferKind.SPILL),
        "storage.spill_events": metrics_registry.value("storage_spill_events_total"),
        "storage.load_events": metrics_registry.value("storage_load_events_total"),
        "resilience.checkpoint_s": total("resilience.checkpoint"),
        "resilience.checkpoint_bytes": count("checkpoint_bytes"),
        "observability.trace_overhead": wall / base_s,
        "observability.trace_base_s": base_s,
        "trace.wall_s": wall,
    }
    for layer, seconds in table.items():
        values[f"self.{layer}_s"] = seconds
    return values, table


def format_table(table: dict, wall: float) -> str:
    lines = [f"{'layer':<14} {'self_s':>10} {'share':>7}"]
    for layer, seconds in table.items():
        lines.append(f"{layer:<14} {seconds:>10.4f} {seconds / wall:>7.1%}")
    lines.append(f"{'sum':<14} {sum(table.values()):>10.4f}   traced wall {wall:.4f} s")
    return "\n".join(lines)


def load_spec() -> dict:
    with open(SPEC, encoding="utf-8") as handle:
        return json.load(handle)


def measure_untraced(workload, instances, seconds, reference, deadline, spec, output):
    """Untraced operations over every instance; the end-to-end metrics."""
    setup_samples = []
    records, failures = timed_ops(
        workload, instances, seconds, reference, deadline, setup_samples
    )
    while len(setup_samples) < SETUP_SAMPLES:
        setup_samples.append(setup_sample(workload["backend"]))
    metrics = {}
    if records:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values, summaries = e2e_metrics(records, setup_samples, units)
        metrics = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
        output["samples"] = summaries
        output["ops"] = [
            {key: r[key] for key in (
                "instance", "time_to_factors_s", "epoch_s", "simulated_s",
                "peak_rss_mb", "error", "nnz",
            )}
            for r in records
        ]
        output["rel_error"] = values["rel_error"]
        print(f"rel_error (pooled over {len(instances)} instances): "
              f"{values['rel_error']:.4f}")
        for metric, summary in summaries.items():
            print(f"{metric}: median {summary['median']:.4f} {summary['unit']} "
                  f"(q1 {summary['q1']:.4f}, q3 {summary['q3']:.4f}, "
                  f"n={summary['n']})")
    if reference:
        process = [r["simulated_s"] for r in records if r["instance"] == 0]
        output["simulated_s_serial_vs_process"] = {
            "serial": reference["simulated_s"], "process": process,
        }
        print("simulated_s on instance 0, serial vs process (ungated): "
              f"{reference['simulated_s']:.4f} vs {process}")
    return len(records) + len(failures), failures, metrics


def measure_traced(workload, instances, seconds, reference, deadline, spec, output):
    """Untraced operations on the first instance as the base, then one
    traced operation; the per-layer metrics."""
    records, failures = timed_ops(
        workload, instances[:1], seconds, reference, deadline
    )
    if not records:
        return len(failures), failures, {}
    base_s = statistics.median(r["op_s"] for r in records)
    recorder = layers.Recorder()
    workers = WORKERS if workload["backend"] != "serial" else 1
    try:
        with layers.instrument(
            recorder, workers, measure_ipc=workload["backend"] == "process"
        ):
            traced = run_op(workload, instances[0], recorder)
        if traced["digest"] != records[0]["digest"]:
            raise CheckFailed("traced factors differ from untraced ones")
    except Exception as error:  # every failed operation is counted
        failures.append(f"traced: {type(error).__name__}: {error}")
        return len(records) + len(failures), failures, {}
    values, table = layer_metrics(traced, recorder, workers, base_s)
    output["layer_table"] = table
    print(format_table(table, values["trace.wall_s"]))
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in spec["per_layer"]
    }
    return len(records) + 1 + len(failures), failures, metrics


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    """Generate, warm up and measure one workload; returns the JSON result."""
    begun = time.perf_counter()
    deadline = begun + DEADLINE_S
    workload = WORKLOADS[name]
    spec = load_spec()
    inputs = os.path.join(WORK, name, f"seed-{seed}")
    shutil.rmtree(os.path.join(WORK, name), ignore_errors=True)
    phases = {}
    mark = time.perf_counter()

    def phase(label: str) -> None:
        nonlocal mark
        now = time.perf_counter()
        phases[label] = now - mark
        mark = now

    manifest = generate_inputs(
        workload, seed, SHAPE, workload["instances"], inputs
    )
    header = run_header(name, workload, seed, manifest)
    print(format_header(header), flush=True)
    phase("generate_s")
    reference = warm_up(name, workload, seed, manifest)
    phase("warm_up_s")
    instances = manifest["instances"]
    output = {"workload": name, "seed": seed, "trace": int(trace), "header": header,
              "phases": phases}
    measure = measure_traced if trace else measure_untraced
    attempted, failures, metrics = measure(
        workload, instances, seconds, reference, deadline, spec, output
    )
    phase("timed_s")
    output.update(attempted=attempted, failed=len(failures), failures=failures,
                  metrics=metrics, failed_frac=len(failures) / max(attempted, 1),
                  run_s=time.perf_counter() - begun)
    for failure in failures:
        print(f"FAILED {failure}", flush=True)
    os.makedirs(os.path.join(RESULTS, name), exist_ok=True)
    path = os.path.join(RESULTS, name, f"seed-{seed}.trace-{int(trace)}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(output, handle, indent=1, default=float)
    shutil.rmtree(os.path.join(WORK, name), ignore_errors=True)
    return {
        "correct": not failures and bool(metrics),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }


def prepare_environment() -> None:
    """Keep every file the run writes inside the checkout."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"no program source at {SRC}/repro: run from a checkout")
    os.makedirs(os.path.join(WORK, "tmp"), exist_ok=True)
    os.environ["TMPDIR"] = os.path.join(WORK, "tmp")
    tempfile.tempdir = None
    # The default kernel dispatch, whatever the calling shell configured.
    os.environ.pop("REPRO_KERNEL_TIER", None)
    os.environ.pop("REPRO_AUTOTUNE_CACHE", None)
    sys.path.insert(0, SRC)


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "CANDIDATE"))
    parser.add_argument("--setup-probe", metavar="BACKEND", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.setup_probe)
        return 0
    if args.compare:
        rows = compare.compare(*args.compare, load_spec())
        print(compare.format_rows(rows))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    prepare_environment()
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
