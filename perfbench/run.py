#!/usr/bin/env python3
"""smdc benchmark: one closed-loop caller, one thread, seeded workloads.

    python3 perfbench/run.py --workload codec-bulk --seed 1 --seconds 30 --trace 0

Run from the repository root.  With --trace 0 the last stdout line holds
the end-to-end metrics, with --trace 1 the per-layer ones (names and
units as declared in BENCHMARK.json).  Earlier lines give a readable
table and a JSON line of run metadata; the full result (and, when
traced, the spans) goes to perfbench/out/.  A traced run measures a fixed
number of decks (TRACE_DECKS), so its totals do not depend on --seconds
or on how fast the code is.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS_PER_DECK = 5
# Decks per pass of a traced run.  The count is fixed, so every per-layer
# total (calls, bytes, self time) covers the same work on any commit.
TRACE_DECKS = {"codec-bulk": 3, "codec-wide": 2, "region-exact": 3}
MODULES = ("subsets", "exactlp", "region", "covers", "entropy", "gf", "rs", "codec")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_library():
    """Import smdc afresh: module import, field tables and all."""
    for name in [m for m in sys.modules if m == "smdc" or m.startswith("smdc.")]:
        del sys.modules[name]
    return SimpleNamespace(
        **{m: importlib.import_module(f"smdc.{m}") for m in MODULES}
    )


_TABLE = bytes((i * 37 + 11) % 256 for i in range(512))
_MATRIX = [[Fraction((3 * r + 5 * c) % 11 + 1, c + 1) for c in range(7)] for r in range(6)]


def reference():
    """Fixed pure-Python work of ~1.5 ms, timed next to every operation:
    byte-table lookups shaped like the stream kernel, then an exact
    Gaussian elimination shaped like a simplex pivot.  It lives here, so
    no change to the library can change it."""
    acc = 0
    for i in range(6000):
        acc ^= _TABLE[(i * 7 + acc) & 511]
    m = [row[:] for row in _MATRIX]
    for col in range(6):
        m[col] = [a / m[col][col] for a in m[col]]
        for r in range(6):
            if r != col:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return acc, m


class Runner:
    def __init__(self, workload, seed, tr):
        self.workload = workload
        self.seed = seed
        self.tr = tr
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def run_op(self, op, lib):
        self.attempted += 1
        self.tr.tag = getattr(op, "scheme", None)
        try:
            with self.tr.span("op"):
                out = self.workload.run(op, lib, self.tr)
        except Exception as err:  # a raised operation is counted, never fatal
            self.failed += 1
            self.errors.append(f"{op.kind}: {type(err).__name__}: {err}"[:200])
            return None
        out.slot = getattr(op, "slot", -1)
        if not out.ok:
            self.failed += 1
            self.errors.append(f"{op.kind}: wrong answer")
        return out

    def setup(self, deck_index):
        """Imports, tables, workload inputs and a warm-up; returns (lib, deck)."""
        lib = load_library()
        self.workload.prepare(lib, self.seed)
        deck = self.workload.deck(self.seed, deck_index, lib)
        for op in self.workload.warmup(self.seed, lib):
            self.run_op(op, lib)
        return lib, deck

    def run_deck(self, deck, lib):
        """Run one deck; returns the outcomes of the ops that returned."""
        outcomes = []
        for op in deck:
            self.tr.op = self.attempted
            t0 = perf_counter()
            reference()
            probe = perf_counter() - t0
            out = self.run_op(op, lib)
            if out is not None:
                out.probe = probe
                outcomes.append(out)
        return outcomes

    def loop(self, seconds):
        """Whole decks until about `seconds` have passed, each after
        SETUPS_PER_DECK fresh set-ups, so set-up is sampled across the run
        as the operations are.  Returns (outcomes, set-ups, decks, lib), a
        set-up being (its seconds, the reference work's seconds after it)."""
        outcomes, setups = [], []
        start = perf_counter()
        done = 0
        while True:
            for _ in range(SETUPS_PER_DECK):
                t0 = perf_counter()
                lib, deck = self.setup(done)
                t1 = perf_counter()
                reference()
                setups.append((t1 - t0, perf_counter() - t1))
            outcomes += self.run_deck(deck, lib)
            done += 1
            elapsed = perf_counter() - start
            if elapsed + elapsed / done / 2 >= seconds:
                return outcomes, setups, done, lib


# metrics -------------------------------------------------------------------


def pct(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timing(values, q):
    return {"value": 1e3 * pct(values, q), "samples": len(values)}


def op_seconds(outcomes):
    """Time spent in the operations themselves, without the reference probes."""
    return sum(sum(o.times.values()) for o in outcomes)


def slot_medians(outcomes, values):
    """Median of each deck slot's values across the decks of a run.  A slot
    holds the same kind and size of operation in every deck."""
    by_slot = defaultdict(list)
    for o, v in zip(outcomes, values):
        by_slot[o.slot].append(v)
    return [statistics.median(v) for v in by_slot.values()]


def end_to_end(outcomes, setups, runner):
    """Gated metrics, then the per-kind ones printed beside them.

    The shared host this was tuned on drifts by up to ~60% in speed over
    minutes, so the gated costs divide each operation's time by that of
    the reference work timed just before and just after it, and each
    set-up's time by that of the reference work timed just after it.  The
    operation cost's geometric mean over the slots weighs every kind of
    operation alike, where an arithmetic mean would follow the few slowest
    slots and their noise."""
    ops = [sum(o.times.values()) for o in outcomes]
    refs = [o.probe for o in outcomes] + [outcomes[-1].probe]
    cost = [t / ((refs[i] + refs[i + 1]) / 2) for i, t in enumerate(ops)]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    gated = {
        "setup_s": statistics.median(s for s, _ in setups),
        "setup_refs": statistics.median(s / r for s, r in setups),
        "op_cost_refs": statistics.geometric_mean(slot_medians(outcomes, cost)),
        "success_share": 1 - runner.failed / runner.attempted,
        "peak_rss_MB": rss_kb / 1024,
    }
    raw = slot_medians(outcomes, ops)
    kinds = {}
    codec = [o for o in outcomes if o.kind == "codec"]
    if codec:
        enc = [o.times["encode"] for o in codec]
        dec = [o.times["decode"] for o in codec]
        kinds["encode_MBps"] = {"value": sum(o.source_bytes for o in codec) / 1e6 / sum(enc),
                                "samples": len(enc)}
        kinds["decode_MBps"] = {"value": sum(o.recovered_bytes for o in codec) / 1e6 / sum(dec),
                                "samples": len(dec)}
        kinds["encode_p50_ms"] = timing(enc, 50)
        kinds["decode_p50_ms"] = timing(dec, 50)
        kinds["decode_p95_ms"] = timing(dec, 95)
    else:
        def of(kind):
            return [o.times[kind] for o in outcomes if o.kind == kind]

        kinds["member_p50_ms"] = timing(of("member"), 50)
        kinds["member_p95_ms"] = timing(of("member"), 95)
        kinds["profile_p50_ms"] = timing(of("profile"), 50)
        kinds["chain_p50_ms"] = timing(of("chain"), 50)
        kinds["entropy_p50_ms"] = timing(of("entropy"), 50)
    kinds["error_share"] = {"value": runner.failed / runner.attempted,
                            "samples": runner.attempted}
    kinds["op_p95_ms"] = timing(ops, 95)
    kinds["op_p50_ms"] = timing(ops, 50)
    kinds["ops_per_s"] = {"value": len(raw) / sum(raw), "samples": len(ops)}
    kinds["ref_ms"] = timing(refs, 50)
    samples = {"setup_s": len(setups), "slots": len(raw), "ops": len(ops)}
    return gated, kinds, samples


def commit():
    """HEAD of the checkout if it is a git repository; git is not asked to
    look above the checkout."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return got.stdout.strip() if got.returncode == 0 else "unknown"


def metadata(args, lib):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "backend": lib.gf.backend(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": commit(),
    }


def out_path(name):
    (HERE / "out").mkdir(exist_ok=True)
    return HERE / "out" / name


def declared(section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def emit(section, values, correct, runner, meta, extra, out_name):
    units = declared(section)
    if set(values) != set(units):
        fail(f"metric names differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    for k, m in metrics.items():
        print(f"{k:40s} {m['value']:>16.6g} {m['unit']}")
    for k, m in extra.items():
        if isinstance(m, dict) and "value" in m:
            n = f"  (n={m['samples']})" if "samples" in m else ""
            print(f"{k:40s} {m['value']:>16.6g}{n}")
    result = {"meta": meta, "metrics": metrics, "extra": extra, "errors": runner.errors[:20]}
    out_path(out_name).write_text(json.dumps(result, indent=1, default=str))
    print(json.dumps({"meta": meta, "errors": runner.errors[:5]}, default=str))
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))


# entry point -----------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "smdc" / "__init__.py").is_file():
        fail(f"no smdc sources under {ROOT / 'src'}; run from a full checkout")
    sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "benchmarks")]
    from workloads import WORKLOADS
    import tracing

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    runner = Runner(workload, args.seed, tracing.NullTracer())

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    if not args.trace:
        outcomes, setups, decks, lib = runner.loop(args.seconds)
        gated, kinds, samples = end_to_end(outcomes, setups, runner)
        meta = metadata(args, lib)
        meta.update(decks=decks, samples=samples)
        kinds["op_times"] = [[o.slot, sum(o.times.values()), o.probe] for o in outcomes]
        emit("end_to_end", gated, runner.failed == 0, runner, meta, kinds, tag + ".json")
        return

    # Each deck runs plain and then traced, so both see the same host
    # conditions; a last pass over the same decks counts GF.mul calls alone.
    lib, _ = runner.setup(0)
    meta = metadata(args, lib)
    tr = tracing.Tracer()
    decks = TRACE_DECKS[args.workload]
    plain_s = traced_s = 0.0
    traced_ops = 0
    for index in range(decks):
        plain_s += op_seconds(runner.run_deck(workload.deck(args.seed, index, lib), lib))
        runner.tr = tr
        tr.install(lib)
        try:
            out = runner.run_deck(workload.deck(args.seed, index, lib), lib)
        finally:
            tr.restore()
            runner.tr = tracing.NullTracer()
        traced_ops += len(out)
        traced_s += op_seconds(out)
    mul_calls = [0]
    with tracing.count_calls(lib.gf.GF, "mul", mul_calls):
        for index in range(decks):
            runner.run_deck(workload.deck(args.seed, index, lib), lib)
    values = tracing.layer_metrics(tr, traced_ops, mul_calls[0], 1 - plain_s / traced_s)

    import kernel

    rates, kernel_good = kernel.measure(args.seed)
    for shape, rate in rates[lib.gf.backend()].items():
        values[f"gf.kernel.{shape}.MBps"] = rate
    every_backend = {
        f"gf.kernel.{name}.{shape}.MBps": {"value": rate}
        for name, shapes in rates.items()
        for shape, rate in shapes.items()
    }
    meta.update(decks=decks, plain_s=plain_s, traced_s=traced_s)
    tr.write(out_path(f"{tag}.spans.json"))
    if not kernel_good:
        runner.errors.append("gf kernel: wrong product")
    emit("per_layer", values, runner.failed == 0 and kernel_good, runner, meta,
         every_backend, tag + ".json")


if __name__ == "__main__":
    main()
