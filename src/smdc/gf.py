"""Finite fields of characteristic two with log/antilog tables.

GF(256) carries all production coding; GF(16) exists so secrecy tests
can enumerate the whole key space.  The stream matrix product, the one
loop that touches every payload byte, dispatches to the compiled
`_gfcore` kernel exactly when it is importable.
"""

from __future__ import annotations

from typing import Sequence

try:
    from . import _gfcore  # type: ignore[attr-defined]
except ImportError:
    _gfcore = None


def backend() -> str:
    return "compiled" if _gfcore is not None else "pure"


class GF:
    """GF(2^e) under a primitive reducing polynomial, e in {4, 8}."""

    def __init__(self, order: int, poly: int):
        self.order = order
        self.poly = poly
        exp = bytearray(2 * order)
        log = bytearray(order)
        x = 1
        for i in range(order - 1):
            exp[i] = x
            log[x] = i
            x <<= 1
            if x & order:
                x ^= poly
        if x != 1:
            raise ValueError(f"{hex(poly)} is not primitive for order {order}")
        for i in range(order - 1, 2 * order):
            exp[i] = exp[i - (order - 1)]
        self.exp = bytes(exp)
        self.log = bytes(log)

    def _check(self, *elements: int) -> None:
        for a in elements:
            if not 0 <= a < self.order:
                raise ValueError(f"{a} is not an element of GF({self.order})")

    def add(self, a: int, b: int) -> int:
        self._check(a, b)
        return a ^ b

    sub = add

    def mul(self, a: int, b: int) -> int:
        self._check(a, b)
        if a == 0 or b == 0:
            return 0
        return self.exp[self.log[a] + self.log[b]]

    def inv(self, a: int) -> int:
        self._check(a)
        if a == 0:
            raise ZeroDivisionError("zero has no inverse")
        return self.exp[self.order - 1 - self.log[a]]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, n: int) -> int:
        self._check(a)
        if n == 0:
            return 1
        if a == 0:
            if n < 0:
                raise ZeroDivisionError("zero has no inverse")
            return 0
        return self.exp[(self.log[a] * n) % (self.order - 1)]

    def poly_eval(self, coeffs: Sequence[int], x: int) -> int:
        """Evaluate sum coeffs[j] x^j by Horner's rule."""
        acc = 0
        for c in reversed(coeffs):
            acc = self.mul(acc, x) ^ c
        return acc

    # linear algebra -----------------------------------------------------

    def solve(self, matrix: Sequence[Sequence[int]], rhs: Sequence[int]) -> list[int]:
        """Exact solution of a square nonsingular system."""
        n = len(matrix)
        m = [list(row) + [v] for row, v in zip(matrix, rhs)]
        for col in range(n):
            piv = next((r for r in range(col, n) if m[r][col]), None)
            if piv is None:
                raise ValueError("singular system")
            m[col], m[piv] = m[piv], m[col]
            inv = self.inv(m[col][col])
            m[col] = [self.mul(inv, v) for v in m[col]]
            for r in range(n):
                if r != col and m[r][col]:
                    f = m[r][col]
                    m[r] = [a ^ self.mul(f, b) for a, b in zip(m[r], m[col])]
        return [m[r][n] for r in range(n)]

    def lagrange_matrix(
        self, src_points: Sequence[int], dst_points: Sequence[int]
    ) -> list[list[int]]:
        """M with M[d][s] = ell_s(dst_d), so values at src map to values
        at dst for polynomials of degree < len(src).

        Barycentric form, in the log domain: source s has the weight
        w_s = 1 / prod_{t != s} (x_s - x_t), and a destination x that is
        no source point has ell_s(x) = prod_t (x - x_t) / (x - x_s) * w_s,
        so every entry is one exp-table lookup of a sum of logs.  A
        destination that is a source point gets its unit row.  For k
        sources that is O(k^2 + |dst| k) table additions, and no `mul`.
        """
        self._check(*src_points, *dst_points)
        k = len(src_points)
        if len(set(src_points)) != k:
            raise ValueError("interpolation points must be distinct")
        log, exp, q = self.log, self.exp, self.order - 1
        weights = [-sum(log[s ^ t] for t in src_points if t != s) % q for s in src_points]
        where = {s: i for i, s in enumerate(src_points)}
        out = []
        for x in dst_points:
            if x in where:
                row = [0] * k
                row[where[x]] = 1
            else:
                logs = [log[x ^ t] for t in src_points]
                total = sum(logs)
                row = [exp[(total - lx + w) % q] for lx, w in zip(logs, weights)]
            out.append(row)
        return out

    def vandermonde(
        self, points: Sequence[int], width: int
    ) -> list[list[int]]:
        return [[self.pow(x, j) for j in range(width)] for x in points]

    # stream kernel -------------------------------------------------------

    def matmul_stream(
        self, matrix: Sequence[Sequence[int]], streams: Sequence[bytes], n: int
    ) -> list[bytes]:
        """rows x cols matrix applied to cols byte-streams of length n."""
        rows = len(matrix)
        cols = len(streams)
        if any(len(row) != cols for row in matrix):
            raise ValueError("matrix width must match the stream count")
        if any(len(s) != n for s in streams):
            raise ValueError("all streams must have the stated length")
        for row in matrix:
            self._check(*row)
        if n == 0 or rows == 0:
            return [b""] * rows
        flat_mat = bytes(v for row in matrix for v in row)
        src = b"".join(streams)
        # the log table has `order` entries; GF(256) holds every byte
        if self.order < 256 and max(src, default=0) >= self.order:
            raise ValueError(f"stream byte outside GF({self.order})")
        if _gfcore is not None:
            out = _gfcore.matmul(flat_mat, rows, cols, src, n, self.exp, self.log)
        else:
            out = matmul_python(flat_mat, rows, cols, src, n, self.exp, self.log)
        return [out[r * n : (r + 1) * n] for r in range(rows)]


def matmul_python(flat_mat, rows, cols, src, n, exp, log) -> bytes:
    """Pure-Python fallback for the stream kernel; same contract as the
    compiled version."""
    out = bytearray(rows * n)
    for r in range(rows):
        base = r * n
        for c in range(cols):
            coef = flat_mat[r * cols + c]
            if coef == 0:
                continue
            seg = src[c * n : (c + 1) * n]
            if coef == 1:
                for i, v in enumerate(seg):
                    out[base + i] ^= v
            else:
                lc = log[coef]
                for i, v in enumerate(seg):
                    if v:
                        out[base + i] ^= exp[lc + log[v]]
    return bytes(out)


GF256 = GF(256, 0x11D)
GF16 = GF(16, 0x13)
