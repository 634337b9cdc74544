#!/usr/bin/env python3
"""Throughput comparison of the finite-field stream kernels.

Runs the same GF(256) matrix-stream products through the pure-Python
loop and, when built, the compiled extension, for code shapes the three
codecs actually use.  Invoke as `python3 benchmarks/bench_gf.py`.
"""

import random
import time

from smdc.gf import GF256, matmul_python

try:
    from smdc import _gfcore
except ImportError:
    _gfcore = None

SHAPES = [
    # (rows, cols, stream length): encoder fan-out and decode shapes
    (5, 3, 1 << 12),
    (5, 3, 1 << 16),
    (10, 4, 1 << 16),
    (50, 10, 1 << 14),
]


def run(kernel, mat, rows, cols, src, n, repeats):
    start = time.perf_counter()
    for _ in range(repeats):
        kernel(mat, rows, cols, src, n, GF256.exp, GF256.log)
    elapsed = time.perf_counter() - start
    processed = repeats * rows * n / 1e6
    return processed / elapsed, elapsed


# bytes each kernel produces per shape
VOLUME = {"pure": 1 << 20, "compiled": 1 << 26}


def rates():
    """Shape label -> backend -> MB/s for every built kernel on SHAPES,
    on inputs from a generator seeded with 0."""
    kernels = {"pure": matmul_python}
    if _gfcore is not None:
        kernels["compiled"] = _gfcore.matmul
    rng = random.Random(0)
    out = {}
    for rows, cols, n in SHAPES:
        mat = bytes(rng.randrange(256) for _ in range(rows * cols))
        src = bytes(rng.randrange(256) for _ in range(cols * n))
        out[f"{rows}x{cols}x{n}"] = {
            name: run(kernel, mat, rows, cols, src, n, max(1, VOLUME[name] // (rows * n)))[0]
            for name, kernel in kernels.items()
        }
    return out


def main():
    print(f"{'shape':>16}  {'pure MB/s':>10}  {'compiled MB/s':>14}  {'speedup':>8}")
    for label, mbps in rates().items():
        pure = mbps["pure"]
        if "compiled" not in mbps:
            print(f"{label:>16}  {pure:>10.1f}  {'(not built)':>14}  {'-':>8}")
            continue
        fast = mbps["compiled"]
        print(f"{label:>16}  {pure:>10.1f}  {fast:>14.1f}  {fast / pure:>7.1f}x")
    out = matmul_python(b"\x02", 1, 1, b"\x80", 1, GF256.exp, GF256.log)
    assert out == b"\x1d"
    if _gfcore is not None:
        assert _gfcore.matmul(b"\x02", 1, 1, b"\x80", 1, GF256.exp, GF256.log) == b"\x1d"


if __name__ == "__main__":
    main()
