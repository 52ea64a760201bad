"""fempost benchmark: one workload, one seed, one fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The run sets up its inputs from the seed
(several times, to time set-up steadily), runs one verified warm-up pass,
then runs timed passes back to back (a closed loop: the next pass starts when
the previous one has been verified) for ``--seconds`` seconds, and at least
``MIN_PASSES`` of them.

With ``--trace 0`` no span is recorded and the last line of standard output
is a JSON object with the end-to-end metrics.  With ``--trace 1`` passes
alternate untraced and traced on the same input; the traced ones give the
per-layer metrics, the pairs give ``trace.overhead``, and all spans are
written to ``.perfbench_out/trace-<workload>-seed<seed>.json``.

Every pass is verified; wrong or failed operations are counted, not fatal.
Counts that must not depend on timing are checked for exact repeats: between
passes on the same input within the run, and across runs with the same seed
and the same code through ``.perfbench_out/counts/``.  A mismatch makes the
run incorrect.
"""

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

T_START = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 3
MIN_PASSES = 21      # untraced: the tail percentile then lies at or above p50
COUNT_PASSES = 10    # traced passes whose counts form the per-layer counts
HARD_LIMIT_S = 150.0  # stop adding passes this long after process start

# Counts that must repeat exactly for the same seed and code.
DETERMINISTIC = (
    "filcodec.records_decoded",
    "filcodec.items_decoded",
    "filcodec.items_encoded",
    "weibull.fit_iterations",
    "czm.outer_iterations",
    "czm.forward_calls",
    "truss.objective_evals",
    "truss.constraint_evals",
)

# Spans whose self time is reported as ``<span>_s``.
SELF_TIME_SPANS = (
    "filcodec.flatten",
    "filcodec.decode",
    "filcodec.write",
    "records.extract_nodes",
    "records.extract_elements",
    "records.extract_stresses",
    "records.generate",
    "records.to_csv",
    "weibull.sigma1",
    "weibull.load_csv",
    "weibull.fit",
    "weibull.hazard",
    "gridio.write",
    "czm.forward",
    "truss.optimize",
    "truss.grid_sweep",
)

# Per-layer counts, reported as the mean over the first COUNT_PASSES traced
# passes so that they repeat exactly for one seed.
LAYER_COUNTS = (
    "filcodec.records_decoded",
    "filcodec.items_decoded",
    "filcodec.items_encoded",
    "filcodec.bytes_written",
    "records.records_scanned",
    "records.rows_out",
    "weibull.sigma1_calls",
    "weibull.fit_iterations",
    "weibull.sigma_w_element_evals",
    "gridio.bytes_written",
    "czm.outer_iterations",
    "czm.forward_calls",
    "truss.objective_evals",
    "truss.constraint_evals",
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


def tail(samples):
    """Highest percentile with at least ten samples above it, as
    ``(value, percentile)``; the maximum when there are fewer than 11."""
    ordered = sorted(samples) or [0.0]
    k = len(ordered) - 11 if len(ordered) >= 11 else len(ordered) - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def code_fingerprint() -> str:
    """Digest of the library and benchmark sources, keying stored counts."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src" / "fempost").glob("*.py"), *Path(__file__).parent.glob("*.py")]):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_stored_counts(path: Path, by_index: dict) -> bool:
    """Compare per-pass-input counts with those stored by earlier runs of the
    same seed and code, then store the union.  False on any mismatch."""
    stored = json.loads(path.read_text()) if path.exists() else {}
    same = True
    for index, counts in by_index.items():
        old = stored.setdefault(str(index), {})
        same &= all(old[k] == v for k, v in counts.items() if k in old)
        old.update(counts)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(stored, sort_keys=True))
    tmp.replace(path)
    return same


def cpu_seconds() -> float:
    """User + sys CPU of this process and of its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"perfbench: cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T_START

    workdir = OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, import_s, WORKLOADS[args.workload](workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, import_s, wl) -> int:
    from tracing import NULL_TRACER, Tracer

    # ---- set-up: input synthesis repeated, then one verified warm-up pass
    synth_s, digests = [], set()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        state, digest = wl.setup(args.seed)
        synth_s.append(time.perf_counter() - t0)
        digests.add(digest)

    attempted = failed = 0
    seen = {}  # pass-input index -> deterministic counts
    deterministic = len(digests) == 1

    def run_one(index, tr):
        """Run and verify one pass; return (wall, cpu, counts) or None."""
        nonlocal attempted, failed, deterministic
        case = wl.case(state, index)
        attempted += wl.ops_per_pass
        c0, t0 = cpu_seconds(), time.perf_counter()
        try:
            out = wl.run(case, tr)
            wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0
            nfail, counts = wl.verify(case, out)
        except Exception:
            traceback.print_exc(limit=4, file=sys.stderr)
            failed += wl.ops_per_pass
            return None
        failed += nfail
        fixed = {k: v for k, v in counts.items() if k in DETERMINISTIC}
        prev = seen.setdefault(index, {})
        if any(prev[k] != v for k, v in fixed.items() if k in prev):
            deterministic = False
        prev.update(fixed)
        return wall, cpu, counts

    t0 = time.perf_counter()
    run_one(0, NULL_TRACER)
    warmup_s = time.perf_counter() - t0
    setup_s = import_s + statistics.median(synth_s) + warmup_s

    # ---- timed passes
    tracer = Tracer() if args.trace else None
    untraced, traced = [], []  # (wall, cpu, counts, pass id)
    min_passes = 2 * COUNT_PASSES if args.trace else MIN_PASSES
    begin = time.perf_counter()
    i = 0
    while (time.perf_counter() - begin < args.seconds or i < min_passes) and (
        time.perf_counter() - T_START < HARD_LIMIT_S
    ):
        is_traced = bool(args.trace) and i % 2 == 1
        if is_traced:
            tracer.pass_id = i
        result = run_one(i // 2 if args.trace else i, tracer if is_traced else NULL_TRACER)
        if result is not None:
            (traced if is_traced else untraced).append((*result, i))
        i += 1
    measured_s = time.perf_counter() - begin

    counts_path = OUT / "counts" / f"{args.workload}-seed{args.seed}-{code_fingerprint()}.json"
    deterministic &= check_stored_counts(counts_path, seen)
    correct = failed == 0 and deterministic and bool(untraced) and (bool(traced) or not args.trace)

    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace}: {i} passes "
        f"(+1 warm-up) in {measured_s:.1f} s; {failed} of {attempted} operations failed; "
        f"counts {'repeat exactly' if deterministic else 'DO NOT REPEAT'}"
    )
    walls = [r[0] for r in untraced]
    p50 = statistics.median(walls) if walls else 0.0
    if args.trace:
        metrics = layer_metrics(tracer, traced, p50)
        tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json", T_START)
        for name, m in metrics.items():
            print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    else:
        tail_s, tail_p = tail(walls)
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "pass_s.p50": metric(p50, "s"),
            "pass_s.tail": metric(tail_s, "s"),
            "cpu_s": metric(statistics.median(r[1] for r in untraced) if untraced else 0.0, "s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        n = len(walls)
        notes = {
            "setup_s": f"imports {import_s:.3f} s + median of {SETUP_REPEATS} input syntheses "
            f"{statistics.median(synth_s):.3f} s + warm-up pass {warmup_s:.3f} s",
            "pass_s.p50": f"median of n={n} passes",
            "pass_s.tail": f"p{tail_p:.0f} of n={n} passes, {n - round(tail_p * n / 100)} slower",
            "cpu_s": f"user+sys per pass, median of n={n}",
            "peak_rss_mb": "process high-water mark, set-up included",
        }
        for name, m in metrics.items():
            print(f"  {name:12s} {m['value']:.6g} {m['unit']}  ({notes[name]})")
        if wl.file_bytes_key and untraced:
            mb = untraced[-1][2][wl.file_bytes_key] / 1e6
            print(f"  {'mb_per_s':12s} {mb / p50:.6g} MB/s  ({mb:.3f} MB of .fil per pass / pass_s.p50)")
        print(f"  {'fail_ratio':12s} {failed / attempted:.6g}  ({failed} of {attempted} operations)")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def layer_metrics(tracer, traced, untraced_p50):
    """Per-layer metrics: medians of per-pass span times over traced passes,
    counts averaged over the first COUNT_PASSES traced passes, and rates
    derived from the two.  Layers a workload does not call read 0."""
    per_pass = [tracer.pass_times(r[3]) for r in traced]

    def span_s(name, which):
        return statistics.median(times[which].get(name, 0.0) for times in per_pass) if per_pass else 0.0

    first = [r[2] for r in traced[:COUNT_PASSES]]

    def count(name):
        return sum(c.get(name, 0) for c in first) / len(first) if first else 0

    def ratio(num, den):
        return num / den if den else 0.0

    m = {f"{name}_s": metric(span_s(name, 1), "s") for name in SELF_TIME_SPANS}
    m["czm.identify_s"] = metric(span_s("czm.identify", 0), "s")
    m["czm.search_s"] = metric(span_s("czm.identify", 1), "s")
    m.update({name: metric(count(name), "count") for name in LAYER_COUNTS})
    decode_s, write_s = m["filcodec.decode_s"]["value"], m["filcodec.write_s"]["value"]
    m["filcodec.decode_mb_s"] = metric(ratio(count("filcodec.chars_decoded") / 1e6, decode_s), "MB/s")
    m["filcodec.decode_items_per_s"] = metric(ratio(count("filcodec.items_decoded"), decode_s), "1/s")
    m["filcodec.encode_items_per_s"] = metric(ratio(count("filcodec.items_encoded"), write_s), "1/s")
    m["weibull.sigma1_us_per_elem"] = metric(
        ratio(1e6 * m["weibull.sigma1_s"]["value"], count("weibull.sigma1_calls")), "us"
    )
    m["czm.useful_ratio"] = metric(ratio(count("czm.improving_calls"), count("czm.forward_calls")), "ratio")
    traced_p50 = statistics.median(r[0] for r in traced) if traced else 0.0
    m["trace.overhead"] = metric(ratio(traced_p50, untraced_p50) - 1.0 if traced else 0.0, "ratio")
    return m


if __name__ == "__main__":
    sys.exit(main())
