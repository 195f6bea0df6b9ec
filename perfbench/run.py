"""realcalc benchmark: closed-loop CLI calls on generated spec files.

Usage (from the repository root)::

    python3 perfbench/run.py --workload row-exists --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it prints every end-to-end metric of BENCHMARK.json,
with call times put on the reference scale described in harness.py;
with ``--trace 1`` it wraps the library's public functions and prints
every per-layer metric instead. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it is a JSON record of the environment,
the sample counts and the digests. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NPROC = len(os.sched_getaffinity(0))

# BLAS reads these when numpy is first imported, so they are capped here,
# before any import of numpy, and inherited by the set-up processes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    _value = os.environ.get(_var, "")
    if not _value.isdigit() or not 1 <= int(_value) <= NPROC:
        os.environ[_var] = str(NPROC)

import numpy as np  # noqa: E402  (after the BLAS caps above)

import harness  # noqa: E402
import spans  # noqa: E402

SETUPS = 11  # fresh-process set-ups per run; setup_s is their median
MIN_SMALL = 100  # small-class samples, so that ten lie beyond the p90
# Largest accepted drift of the kernel across a large call. The median of
# the paired ratios itself wanders by a few percent between runs of the
# same code on the tuning machine, so a smaller limit flags unchanged code.
REFERENCE_DRIFT = 0.10
WORKDIR = Path("perfbench") / ".work"
OUTDIR = Path("perfbench") / ".out"


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def set_up(workload: str, seed: int, workdir: Path) -> tuple[list[tuple], list[float], set[str]]:
    """Run the fresh-process set-ups; each rewrites the same spec files.

    Returns (wall time to ready, reference-kernel time around it) per
    set-up, the import times, and the digests of the written specs.
    """
    setups, imports, digests = [], [], set()
    for _ in range(SETUPS):
        before = harness.reference_kernel()
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(Path("perfbench") / "prepare.py"), workload, str(seed), str(workdir)],
            stdout=subprocess.PIPE, text=True,
        )
        with proc:
            line = proc.stdout.readline()
            ready = time.perf_counter() - t0
            proc.stdout.read()
            proc.wait()
        if proc.returncode != 0 or not line:
            raise RuntimeError(f"set-up process exited with status {proc.returncode}")
        info = json.loads(line)
        setups.append((ready, 0.5 * (before + harness.reference_kernel())))
        imports.append(info["import_s"])
        digests.add(info["spec_sha256"])
    return setups, imports, digests


def class_median(samples, klass: str, kinds: list[dict], scaled: bool = True) -> float:
    """Mean of the per-kind median call times of one class.

    A class can hold kinds of quite different cost; a pooled median of
    two such kinds sits on the gap between them and jumps from run to run.
    """
    medians = [statistics.median(s.scaled_s if scaled else s.seconds
                                 for s in samples if s.kind == kind["name"])
               for kind in kinds if kind["class"] == klass]
    return statistics.fmean(medians)


def reference_check(samples) -> dict:
    """Reference-kernel medians after small and after large calls.

    Call times are divided by the kernel time around them. If a call
    leaves state behind that moves the kernel (BLAS threads still
    spinning, a grown heap, evicted caches), the kernel after large calls
    drifts from the kernel after small ones and the scaling absorbs part
    of the call's own cost. The two medians also differ when the
    machine's slow periods fall unevenly on the two classes, so the drift
    is taken per large call that a small call follows: the kernel after
    the large call over the kernel after the small one, timed at most a
    fraction of a second later. A run whose median drift exceeds
    REFERENCE_DRIFT is flagged.
    """
    large = [s for s in samples if s.klass == "large"]
    drift = statistics.median(s.after_s / nxt.after_s for s, nxt in zip(samples, samples[1:])
                              if s.klass == "large" and nxt.klass == "small") - 1.0
    return {
        "after_small_s": statistics.median(s.after_s for s in samples if s.klass == "small"),
        "after_large_s": statistics.median(s.after_s for s in large),
        "drift": drift,
        "flagged": abs(drift) > REFERENCE_DRIFT,
    }


def environment(workload: str, seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": NPROC,
        "machine": platform.machine(),
    }


def end_to_end(wl, res, setups) -> tuple[dict, dict, dict]:
    """End-to-end values on the reference scale, their sample counts, and raw wall times
    with the scaled-over-unscaled ratio of each class."""
    large = [s for s in res.samples if s.klass == "large"]
    small = sorted(s.scaled_s for s in res.samples if s.klass == "small")
    values = {
        "setup_s": statistics.median(wall * harness.REFERENCE_S / ref for wall, ref in setups),
        "large_call_s": class_median(res.samples, "large", wl.kinds),
        "small_call_s": class_median(res.samples, "small", wl.kinds),
        "small_call_s_p90": statistics.quantiles(small, n=10, method="inclusive")[8],
        "calls_per_s": statistics.median(res.cycle_rates),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    counts = {
        "setup_s": len(setups),
        "large_call_s": len(large),
        "small_call_s": len(small),
        "small_call_s_p90": len(small),
        "calls_per_s": res.cycles,
        "peak_rss_mib": 1,
    }
    wall = {
        "setup_s": statistics.median(wall for wall, _ in setups),
        "large_call_s": class_median(res.samples, "large", wl.kinds, scaled=False),
        "small_call_s": class_median(res.samples, "small", wl.kinds, scaled=False),
        "reference_kernel_s": statistics.median(s.reference_s for s in res.samples),
    }
    for klass in ("large", "small"):
        wall[f"{klass}_scaled_over_unscaled"] = values[f"{klass}_call_s"] / wall[f"{klass}_call_s"]
    return values, counts, wall


def per_layer(tracer, res, memory_spans, import_times, wrapper_cost) -> dict:
    """Every per-layer value the trace yields, per cycle of the mix."""
    cycles = res.cycles
    selfs = spans.self_times(tracer.spans)
    values: dict[str, float] = {}
    for name in tracer.names:
        values[f"{name}.s"] = 0.0
        values[f"{name}.calls"] = 0
        values[f"{name}.in_bytes"] = 0.0
        values[f"{name}.peak_mib"] = 0.0
    for layer in spans.LAYERS:
        values[f"{layer}.self_s"] = 0.0
    for rec, self_s in zip(tracer.spans, selfs):
        name = rec[spans.NAME]
        values[f"{name}.s"] += rec[spans.END] - rec[spans.START]
        values[f"{name}.calls"] += 1
        values[f"{name}.in_bytes"] = max(values[f"{name}.in_bytes"], float(rec[spans.IN_BYTES]))
        values[f"{name.split('.')[0]}.self_s"] += self_s
    for key in values:
        if not key.endswith((".in_bytes", ".peak_mib")):
            values[key] /= cycles
    for rec in memory_spans:
        key = f"{rec[spans.NAME]}.peak_mib"
        values[key] = max(values[key], rec[spans.PEAK] / 2**20)
    wall = sum(s.seconds for s in res.samples) / cycles
    roots = sum(rec[spans.END] - rec[spans.START] for rec in tracer.spans if rec[spans.PARENT] < 0)
    values["trace.wall_s"] = wall
    values["trace.remainder_s"] = wall - roots / cycles
    values["trace.overhead_s"] = wrapper_cost * len(tracer.spans) / cycles
    values["cli.report_bytes"] = sum(s.report_bytes for s in res.samples) / cycles
    values["cli.import_s"] = statistics.median(import_times)
    return values


def trace_summary(tracer, res, count_names: list[str]) -> dict:
    """Per-kind span counts per call, and the top self-time spans per class."""
    selfs = spans.self_times(tracer.spans)
    by_kind: dict[str, dict[str, int]] = {}
    per_kind_calls: dict[str, int] = {}
    top: dict[str, dict[str, float]] = {"small": {}, "large": {}}
    for s in res.samples:
        per_kind_calls[s.kind] = per_kind_calls.get(s.kind, 0) + 1
    for rec, self_s in zip(tracer.spans, selfs):
        sample = res.samples[rec[spans.CALL]]
        counts = by_kind.setdefault(sample.kind, dict.fromkeys(count_names, 0))
        if rec[spans.NAME] in counts:
            counts[rec[spans.NAME]] += 1
        bucket = top[sample.klass]
        bucket[rec[spans.NAME]] = bucket.get(rec[spans.NAME], 0.0) + self_s
    return {
        "span_calls_per_call": {
            kind: {name: n / per_kind_calls[kind] for name, n in counts.items()}
            for kind, counts in by_kind.items()
        },
        "top_self_s": {k: dict(sorted(v.items(), key=lambda kv: -kv[1])[:5]) for k, v in top.items()},
    }


def traced_run(cli, wl, seconds: float):
    """Timed cycles with every span wrapped, then one cycle with tracemalloc on."""
    tracer = spans.Tracer()
    tracer.install()
    try:
        res = wl.run(cli, seconds, wl.pool, MIN_SMALL,
                     on_call=lambda: setattr(tracer, "call_id", tracer.call_id + 1))
        timed_spans, tracer.spans = tracer.spans, []
        tracer.memory = True
        tracemalloc.start()
        try:
            mem = wl.run(cli, 0.0, 1, 0)
        finally:
            tracemalloc.stop()
        memory_spans, tracer.spans = tracer.spans, timed_spans
    finally:
        tracer.uninstall()
    return tracer, res, mem, memory_spans


def write_spans(tracer, res, memory_spans, workload: str, seed: int) -> Path:
    OUTDIR.mkdir(parents=True, exist_ok=True)
    out = OUTDIR / f"spans-{workload}-{seed}.json"
    out.write_text(json.dumps({
        "fields": ["name", "parent", "call", "start", "end", "in_bytes", "peak_bytes"],
        "calls": [s.kind for s in res.samples],
        "spans": tracer.spans,
        "memory_spans": memory_spans,
    }), encoding="utf-8")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="realcalc benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    if not (ROOT / "src" / "realcalc" / "cli.py").is_file():
        return fail("src/realcalc is missing; run from a full checkout")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]

    workdir = WORKDIR / f"{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        setups, import_times, digests = set_up(args.workload, args.seed, workdir)
        sys.path.insert(0, str(ROOT / "src"))
        import realcalc.cli as cli

        if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
            return fail(f"imported realcalc from {cli.__file__}, not from this checkout")
        wl = harness.load(workdir)
        loops = [wl.warm_up(cli)]
        record: dict = {"environment": environment(args.workload, args.seed)}
        if args.trace:
            tracer, res, mem, memory_spans = traced_run(cli, wl, args.seconds)
            loops += [res, mem]
            values = per_layer(tracer, res, memory_spans, import_times, spans.wrapper_cost())
            counts = dict.fromkeys(values, res.cycles)
            count_names = [m["name"][: -len(".calls")] for m in wanted if m["name"].endswith(".calls")]
            record.update(trace_summary(tracer, res, count_names))
            record["spans_file"] = str(write_spans(tracer, res, memory_spans, args.workload, args.seed))
        else:
            res = wl.run(cli, args.seconds, wl.pool, MIN_SMALL)
            loops.append(res)
            values, counts, record["unscaled"] = end_to_end(wl, res, setups)
            record["samples"] = counts
            record["reference"] = reference_check(res.samples)
            if record["reference"]["flagged"]:
                print(f"perfbench: reference kernel after large calls differs by "
                      f"{record['reference']['drift']:+.1%} from after small calls; "
                      f"the scaled times of this run are unresolved", file=sys.stderr)
        missing = [m["name"] for m in wanted if m["name"] not in values]
        if missing:
            raise spans.MissingSpan(f"no span measures {', '.join(missing)}")
        report_sha256 = wl.report_digest()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r.attempted for r in loops)
    failed = sum(r.failed for r in loops)
    record.update({
        "cycles": res.cycles,
        "error_rate": failed / attempted,
        "errors": [e for r in loops for e in r.errors],
        "spec_sha256": sorted(digests),
        "report_sha256": report_sha256,
    })
    for m in wanted:
        print(f"{m['name']:<44} {values[m['name']]:>14.6g} {m['unit']:<6} (n={counts[m['name']]})")
    print(f"{'error_rate':<44} {record['error_rate']:>14.6g} {'ratio':<6} (n={attempted})")
    print(json.dumps({"record": record}))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    correct = failed == 0 and len(digests) == 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
