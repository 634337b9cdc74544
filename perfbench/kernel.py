"""GF(256) stream-kernel section: MB/s per shape for every importable backend.

The shapes and the timing loop are those of `benchmarks/bench_gf.py`,
imported rather than copied.  Each backend's output is checked at sampled
positions against a bitwise carry-less multiply, which shares nothing
with the log/antilog tables the kernels use.
"""

from __future__ import annotations

import random

import bench_gf

MIN_SECONDS = 0.2
SAMPLES = 64


def backends():
    """name -> kernel for every backend that imports; the pure loop always does."""
    out = {"pure": bench_gf.matmul_python}
    if bench_gf._gfcore is not None:
        out["compiled"] = bench_gf._gfcore.matmul
    return out


def gf_mul_bitwise(a: int, b: int, poly: int) -> int:
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        b >>= 1
        a <<= 1
        if a & 0x100:
            a ^= poly
    return acc


def kernel_ok(out, mat, rows, cols, src, n, rng, poly) -> bool:
    if len(out) != rows * n:
        return False
    for _ in range(SAMPLES):
        r, i = rng.randrange(rows), rng.randrange(n)
        want = 0
        for c in range(cols):
            want ^= gf_mul_bitwise(mat[r * cols + c], src[c * n + i], poly)
        if out[r * n + i] != want:
            return False
    return True


def measure(seed):
    """({backend: {"RxCxN": MB/s}}, all outputs correct)."""
    gf = bench_gf.GF256
    rates, ok = {}, True
    for name, kernel in backends().items():
        rates[name] = {}
        for rows, cols, n in bench_gf.SHAPES:
            rng = random.Random(f"kernel/{seed}/{rows}x{cols}x{n}")
            mat = rng.randbytes(rows * cols)
            src = rng.randbytes(cols * n)
            out = kernel(mat, rows, cols, src, n, gf.exp, gf.log)
            ok = ok and kernel_ok(out, mat, rows, cols, src, n, rng, gf.poly)
            repeats = 1
            while True:
                rate, elapsed = bench_gf.run(kernel, mat, rows, cols, src, n, repeats)
                if elapsed >= MIN_SECONDS:
                    break
                repeats = max(repeats + 1, int(repeats * 1.5 * MIN_SECONDS / max(elapsed, 1e-6)))
            rates[name][f"{rows}x{cols}x{n}"] = rate
    return rates, ok
