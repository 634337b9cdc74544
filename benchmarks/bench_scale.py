#!/usr/bin/env python3
"""Timings of the smdc operations at the sizes the project tracks.

    PYTHONPATH=src python3 benchmarks/bench_scale.py [--quick | --full]

Each entry runs on inputs fixed by a seeded generator and reports the
median of K runs (one run with --quick): a plain encode and decode of
4 KB sources at L=30 (and L=60 with --full), a secure (N=2) encode and
decode of 4 KB sources at L=30, the build of the top layer's encode and
decode matrix at L=30, plain and secure, the three membership
queries at L=4, 6, 12, 20 and 24 (the cap) for a member and a
non-member, which are decided in closed form, and for a member that
only the LP decides, yz_chain and conditional_chain at L=7, f_profile at L=8 and
L=10, the Han, Yeung-Zhang and conditional checks on a pmf of five
ternary variables and on one of four variables with 2-3 symbols, the
construction of that five-variable pmf from its table, the stream
kernels' MB/s from benchmarks/bench_gf.py, and a fresh import of the
library's eight modules (IMPORT_RUNS of them after one warm-up import
that is dropped, whatever the flags, in a child process; the median and
the first quartile).  L=4, f_profile at L=8 and the four-variable pmf are
sizes that perfbench's region-exact workload runs.  The JSON
record, with the kernel backend, the Python version, nproc, the
platform and the git commit, goes to stdout and the table to stderr; a
change records its numbers with `> BENCH_<pr>.json`.  Nothing is gated:
the output is a record, and a change is judged by the benchmark in
perfbench/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
from fractions import Fraction
from multiprocessing import get_context
from pathlib import Path
from time import perf_counter

from smdc import codec, covers, entropy, region, rs
from smdc.gf import backend

import bench_gf

ROOT = Path(__file__).resolve().parent.parent
K = 5
SEED = 11
SOURCE_BYTES = 4096
IMPORT_RUNS = 21
MODULES = ("subsets", "exactlp", "region", "covers", "entropy", "gf", "rs", "codec")


def median_time(fn, runs, setup=None):
    """Median and every run's seconds of fn(setup()), setup untimed."""
    times = []
    for _ in range(runs):
        args = (setup(),) if setup else ()
        t0 = perf_counter()
        fn(*args)
        times.append(perf_counter() - t0)
    return {"median_s": statistics.median(times), "runs_s": times}


def codec_cases(rng, sizes):
    """Plain encode of L sources of SOURCE_BYTES, and a decode from all
    bundles but the first two."""
    out = {}
    for L in sizes:
        sources = [rng.randbytes(SOURCE_BYTES) for _ in range(L)]
        bundles = codec.smdc_encode(sources)
        survivors = bundles[2:]
        if codec.smdc_decode(survivors) != sources[: L - 2]:
            raise AssertionError(f"codec round trip failed at L={L}")
        out[f"codec.encode.L{L}"] = lambda s=sources: codec.smdc_encode(s)
        out[f"codec.decode.L{L}"] = lambda b=survivors: codec.smdc_decode(b)
    return out


def secure_cases(rng, L=30, N=2):
    """Secure encode of L - N sources of SOURCE_BYTES under N keys, and a
    decode from all bundles but the first two."""
    sources = [rng.randbytes(SOURCE_BYTES) for _ in range(L - N)]
    keys = rng.randbytes(codec.key_bytes_needed([SOURCE_BYTES] * (L - N), N))
    survivors = codec.ssmdc_encode(sources, N, keys)[2:]
    if codec.ssmdc_decode(survivors) != sources[: L - 2 - N]:
        raise AssertionError(f"secure codec round trip failed at L={L}, N={N}")
    return {
        f"codec.secure_encode.L{L}.N{N}": lambda: codec.ssmdc_encode(sources, N, keys),
        f"codec.secure_decode.L{L}.N{N}": lambda: codec.ssmdc_decode(survivors),
    }


def matrix_cases(L=30, N=2):
    """Build time of the top layer's encode and decode matrix: plain
    (alpha = L, Vandermonde) and secure (alpha = L - N, ramp), decoding
    from the first k shares."""
    specs = {"plain": rs.coefficient_spec(L, L), "secure": rs.ramp_spec(L, N, L - N)}
    out = {}
    for name, spec in specs.items():
        out[f"rs.encode_matrix.{name}.L{L}"] = lambda s=spec: rs.encode_matrix(s)
        out[f"rs.decode_matrix.{name}.L{L}"] = lambda s=spec: rs.decode_matrix(s, range(s.k))
    return out


MEMBER_QUERIES = {
    # name: (secure encoders, query of rates and entropies)
    "smdc_member": (0, region.smdc_member),
    "smdca_member": (0, lambda r, h: region.smdca_member(0, r, h)),
    "ssmdc_member": (2, lambda r, h: region.ssmdc_member(r, h, 2)),
}


def member_cases(rng, sizes):
    """Each membership query at every L of sizes: rates a little above the
    superposition point r_l = sum_a H_a / a are members, rates at 70-90%
    of it violate the all-ones hyperplane; both are decided in closed
    form.  The gap member's lowest rate is H_1 + 1/8, below the point, and
    the others are twice the point: every hyperplane of lambda = 1 on the
    k lowest rates holds, so only the LP decides it."""
    out = {}
    for L in sizes:
        h = [Fraction(rng.randint(1, 12), rng.randint(1, 4)) for _ in range(L)]
        for name, (n_secure, query) in MEMBER_QUERIES.items():
            hs = h[: L - n_secure]
            point = sum((x / a for a, x in enumerate(hs, 1)), Fraction(0))
            cases = {
                "member": [point + Fraction(rng.randint(0, 4), 8) for _ in range(L)],
                "nonmember": [point * Fraction(rng.randint(70, 90), 100) for _ in range(L)],
                "gap": [hs[0] + Fraction(1, 8)] + [2 * point] * (L - 1),
            }
            for verdict, rates in cases.items():
                if query(rates, hs).member != (verdict != "nonmember"):
                    raise AssertionError(f"{name} at L={L}: wrong {verdict} verdict")
                out[f"region.{name}.L{L}.{verdict}"] = lambda q=query, r=rates, h=hs: q(r, h)
    return out


def profile_case(rng, L):
    weights = [Fraction(rng.randint(1, 20), rng.randint(1, 3)) for _ in range(L)]
    return {f"region.f_profile.L{L}": lambda: region.f_profile(weights)}


def chain_cases(rng):
    weights = [Fraction(rng.randint(1, 20), rng.randint(1, 3)) for _ in range(7)]
    profile = [Fraction(rng.randint(1, 20), rng.randint(1, 3)) for _ in range(10)]
    return {
        "covers.yz_chain.L7": lambda: covers.yz_chain(weights),
        "covers.conditional_chain.L7": lambda: covers.conditional_chain(weights, 2),
        "region.f_profile.L10": lambda: region.f_profile(profile),
    }


def entropy_case(rng, sizes):
    """The three level checks at every level of one pmf on the alphabets
    `sizes`, each run on a fresh copy so that no entropy is cached, and
    the pmf's table."""
    pmf = entropy.random_pmf(rng, sizes)
    L = len(sizes)
    weights = [Fraction(rng.randint(1, 9)) for _ in range(L)]
    chain = covers.yz_chain(weights)
    split = covers.conditional_chain(weights, 1)
    table = pmf.probabilities

    def fresh():
        return entropy.JointPMF(sizes, table)

    def checks(p):
        for a in range(2, L + 1):
            entropy.check_han(p, a)
            entropy.check_yz(p, chain, a)
        for a in range(2, L):
            entropy.check_conditional_yz(p, split, a)

    return checks, fresh


def fresh_imports(runs):
    """Seconds of each of `runs` imports of MODULES after every smdc module
    is dropped from sys.modules, as the benchmark's set-up imports them,
    after one warm-up import whose time is dropped; the median and the
    first quartile, which the slow imports that come in bursts on a
    shared host move less.  Run in a child process: the other entries
    keep the modules they hold."""
    times = []
    for _ in range(runs + 1):
        for name in [m for m in sys.modules if m == "smdc" or m.startswith("smdc.")]:
            del sys.modules[name]
        t0 = perf_counter()
        for m in MODULES:
            importlib.import_module(f"smdc.{m}")
        times.append(perf_counter() - t0)
    times = times[1:]
    return {"median_s": statistics.median(times),
            "q1_s": statistics.quantiles(times, n=4, method="inclusive")[0], "runs_s": times}


def commit():
    """HEAD of the checkout, with "-dirty" when the tree has uncommitted
    changes, if it is a git repository; git is not asked to look above
    the checkout."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        got = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                             cwd=ROOT, env=env, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return got.stdout.strip() if got.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    size = ap.add_mutually_exclusive_group()
    size.add_argument("--quick", action="store_true", help="one run of each entry")
    size.add_argument("--full", action="store_true", help="add the codec at L=60")
    args = ap.parse_args()
    runs = 1 if args.quick else K

    rng = random.Random(SEED)
    cases = codec_cases(rng, (30, 60) if args.full else (30,))
    cases.update(member_cases(rng, (6, 12)))
    cases.update(chain_cases(rng))
    # a generator of their own, so that the other entries keep the inputs
    # of the records made before these sizes were added
    cases.update(member_cases(random.Random(SEED + 1), (20, 24)))
    cases.update(secure_cases(random.Random(SEED + 2)))
    cases.update(matrix_cases())
    # the region-exact workload's own sizes, each from a generator of its own
    cases.update(member_cases(random.Random(SEED + 3), (4,)))
    cases.update(profile_case(random.Random(SEED + 4), 8))
    results = {name: median_time(fn, runs) for name, fn in cases.items()}
    checks, fresh = entropy_case(rng, [3] * 5)
    results["entropy.checks.3^5"] = median_time(checks, runs, setup=fresh)
    results["entropy.JointPMF.3^5"] = median_time(fresh, runs)
    checks, fresh = entropy_case(random.Random(SEED + 5), [2, 3, 3, 2])
    results["entropy.checks.2x3x3x2"] = median_time(checks, runs, setup=fresh)
    with get_context("spawn").Pool(1) as pool:
        results["import.fresh"] = pool.apply(fresh_imports, (IMPORT_RUNS,))

    report = {
        "meta": {
            "backend": backend(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
            "commit": commit(),
            "seed": SEED,
            "runs": runs,
            "import_runs": IMPORT_RUNS,
            "source_bytes": SOURCE_BYTES,
        },
        "results": results,
        "kernel": {
            f"gf.kernel.{name}.{shape}.MBps": rate
            for shape, per_backend in bench_gf.rates().items()
            for name, rate in per_backend.items()
        },
    }
    print(json.dumps(report, indent=1))
    for name, r in results.items():
        q1 = f"  (first quartile {1e3 * r['q1_s']:.3f} ms)" if "q1_s" in r else ""
        print(f"{name:44s} {1e3 * r['median_s']:>12.3f} ms{q1}", file=sys.stderr)
    for name, rate in report["kernel"].items():
        print(f"{name:44s} {rate:>12.2f} MB/s", file=sys.stderr)


if __name__ == "__main__":
    main()
