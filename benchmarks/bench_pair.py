#!/usr/bin/env python3
"""Two source trees side by side on the region-exact deck, op by op.

    python3 benchmarks/bench_pair.py OLD NEW [--seed S] [--decks K] [--repeats R]

OLD and NEW are checkouts (each with src/smdc).  Both libraries are
imported into this one process, as perfbench/run.py's `load_library`
imports one, and each builds the same seeded region-exact decks from
perfbench/workloads.py.  Each pass over a deck starts from fresh
imports, prepared and warmed up as perfbench/run.py sets up a deck, so
whatever a library builds on first use is paid as in the benchmark.  The
operations then run in pairs, slot by slot, the tree that goes first
alternating from pair to pair and from pass to pass, so host drift and
warm caches fall on both trees alike.  A deck is built afresh for every pass, so
no pmf carries cached entropies into a repeat.  As the benchmark's
op_cost_refs does, each slot's times are summed up by their median
across the decks; per kind and over all slots it prints the geometric
mean of NEW's slot medians over OLD's (below 1 means NEW is faster) and
how many op pairs NEW won.  Membership queries are split into members
and non-members by the verdict each is built to have, so work moved from
one to the other shows.
Every answer goes through the workload's oracle; a wrong one stops the
run.  perfbench/ is only imported, never changed.
"""

from __future__ import annotations

import argparse
import importlib
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = ("subsets", "exactlp", "region", "covers", "entropy", "gf", "rs", "codec")


def load(root: Path) -> SimpleNamespace:
    """smdc from root/src, imported afresh; the modules stay alive through
    the namespace after sys.modules forgets them."""
    src = str(root / "src")
    if not (root / "src" / "smdc" / "__init__.py").is_file():
        sys.exit(f"bench_pair: no smdc sources under {src}")
    for name in [m for m in sys.modules if m == "smdc" or m.startswith("smdc.")]:
        del sys.modules[name]
    sys.path.insert(0, src)
    try:
        lib = SimpleNamespace(**{m: importlib.import_module(f"smdc.{m}") for m in MODULES})
    finally:
        sys.path.remove(src)
    for name in [m for m in sys.modules if m == "smdc" or m.startswith("smdc.")]:
        del sys.modules[name]
    return lib


def kind_of(op) -> str:
    """The op's kind, with membership split by its known verdict."""
    if op.kind == "member":
        return "member" if op.expected else "nonmember"
    return op.kind


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("old", type=Path)
    ap.add_argument("new", type=Path)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--decks", type=int, default=4)
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()
    if args.decks < 1 or args.repeats < 1:
        ap.error("--decks and --repeats must be at least 1")

    sys.path.insert(0, str(PERFBENCH))
    from tracing import NullTracer
    from workloads import RegionWorkload

    roots = [args.old.resolve(), args.new.resolve()]
    works = [RegionWorkload(), RegionWorkload()]
    times = defaultdict(lambda: ([], []))  # slot -> (OLD's, NEW's) seconds
    kinds, wins, pairs = {}, defaultdict(int), defaultdict(int)
    tracer = NullTracer()
    for index in range(args.decks):
        for rep in range(args.repeats):
            # a fresh set-up per pass, as the benchmark runs each deck
            libs, decks = [load(root) for root in roots], []
            for work, lib in zip(works, libs):
                work.prepare(lib, args.seed)
                decks.append(work.deck(args.seed, index, lib))
                for op in work.warmup(args.seed, lib):
                    work.run(op, lib, tracer)
            for position, ops in enumerate(zip(*decks)):
                if ops[0].slot != ops[1].slot:
                    sys.exit("bench_pair: the two trees built different decks")
                spent = [0.0, 0.0]
                for side in (0, 1) if (index + rep + position) % 2 == 0 else (1, 0):
                    op = ops[side]
                    out = works[side].run(op, libs[side], tracer)
                    if not out.ok:
                        sys.exit(f"bench_pair: wrong {op.kind} answer from "
                                 f"{(args.old, args.new)[side]}")
                    spent[side] = sum(out.times.values())
                key, kind = ops[0].slot, kind_of(ops[0])
                kinds[key] = kind
                for side in (0, 1):
                    times[key][side].append(spent[side])
                pairs[kind] += 1
                wins[kind] += spent[1] < spent[0]
    ratios = defaultdict(list)
    for key, (old, new) in times.items():
        ratios[kinds[key]].append(statistics.median(new) / statistics.median(old))
    every = [r for rs in ratios.values() for r in rs]
    print(f"{'kind':10s} {'slots':>6s} {'NEW/OLD':>9s} {'NEW wins':>12s}")
    for kind in sorted(ratios):
        print(f"{kind:10s} {len(ratios[kind]):6d} {statistics.geometric_mean(ratios[kind]):9.4f}"
              f" {wins[kind]:6d}/{pairs[kind]:<5d}")
    print(f"{'all':10s} {len(every):6d} {statistics.geometric_mean(every):9.4f}"
          f" {sum(wins.values()):6d}/{sum(pairs.values()):<5d}")


if __name__ == "__main__":
    main()
