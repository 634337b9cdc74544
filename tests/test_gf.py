import random
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from smdc.gf import GF256, backend, matmul_python

from oracles import GF16, lagrange_product, slow_mul


def slow_matmul(mat, streams, n, poly, order):
    """Row-major product of mat with the byte streams, by slow_mul."""
    out = bytearray()
    for row in mat:
        for i in range(n):
            acc = 0
            for a, s in zip(row, streams):
                acc ^= slow_mul(a, s[i], poly, order)
            out.append(acc)
    return bytes(out)


class TestScalarOps:
    def test_reduction_step(self):
        assert GF256.mul(0x02, 0x80) == 0x1D

    def test_inverses(self):
        for f in (GF16, GF256):
            for a in range(1, f.order):
                assert f.mul(a, f.inv(a)) == 1

    def test_inv_zero(self):
        with pytest.raises(ZeroDivisionError):
            GF256.inv(0)

    def test_element_range(self):
        with pytest.raises(ValueError):
            GF16.mul(16, 1)

    def test_tables_match_slow_multiplication(self):
        for a in range(16):
            for b in range(16):
                assert GF16.mul(a, b) == slow_mul(a, b, 0x13, 16)
        rng = random.Random(0)
        for _ in range(4000):
            a, b = rng.randrange(256), rng.randrange(256)
            assert GF256.mul(a, b) == slow_mul(a, b, 0x11D, 256)

    @given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
    def test_distributive(self, a, b, c):
        # addition in characteristic two is XOR
        assert GF256.mul(a, b ^ c) == GF256.mul(a, b) ^ GF256.mul(a, c)

    def test_pow(self):
        for a in range(1, 16):
            acc = 1
            for n in range(6):
                assert GF16.pow(a, n) == acc
                acc = GF16.mul(acc, a)

    def test_zero_to_a_negative_power_raises(self):
        # as inv(0) does: 0^-1 is no element
        for gf in (GF16, GF256):
            assert gf.pow(0, 3) == 0 and gf.pow(0, 0) == 1
            with pytest.raises(ZeroDivisionError):
                gf.pow(0, -1)


class TestLagrangeMatrix:
    FIELDS = ((GF16, 0x13, 12), (GF256, 0x11D, 40))  # field, poly, largest k

    def test_matches_the_product_formula(self):
        """Seeded random shapes up to each field's largest k, k = 1
        among them; the destinations are drawn from the whole field, so
        some are source points."""
        rng = random.Random(18)
        for f, poly, k_max in self.FIELDS:
            for trial in range(30):
                k = 1 if trial < 3 else rng.randint(2, k_max)
                src = rng.sample(range(f.order), k)
                dst = [rng.randrange(f.order) for _ in range(rng.randint(0, 12))]
                want = lagrange_product(src, dst, poly, f.order)
                assert f.lagrange_matrix(src, dst) == want, (f.order, src, dst)

    def test_source_destinations_get_unit_rows(self):
        rng = random.Random(19)
        for f, poly, k_max in self.FIELDS:
            src = rng.sample(range(f.order), k_max)
            others = [x for x in range(f.order) if x not in src]
            dst = rng.sample(src, 4) + rng.sample(others, 2) + src[:1]
            got = f.lagrange_matrix(src, dst)
            assert got == lagrange_product(src, dst, poly, f.order)
            for row, x in zip(got, dst):
                if x in src:
                    assert row == [int(s == x) for s in src]

    @pytest.mark.parametrize(
        "src, dst, bad", [([1], [256], 256), ([300], [2], 300), ([1, 2], [256], 256)]
    )
    def test_points_checked_first(self, src, dst, bad):
        # each once returned [[1]] or named a derived value such as 258
        with pytest.raises(ValueError, match=f"^{bad} is not an element of GF\\(256\\)$"):
            GF256.lagrange_matrix(src, dst)

    def test_repeated_source_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            GF16.lagrange_matrix([3, 5, 3], [1])


@pytest.mark.usefixtures("kernel")
class TestStreamKernel:
    def test_backends_agree(self):
        """The kernel under test and matmul_python against the bitwise
        oracle, not against one another."""
        rng = random.Random(99)
        for f, poly in ((GF16, 0x13), (GF256, 0x11D)):
            for trial in range(24):
                rows, cols = rng.randint(1, 5), rng.randint(1, 5)
                n = 0 if trial == 0 else rng.randint(1, 64)
                # the low coefficients take the kernels' 0 and 1 shortcuts
                mat = [
                    [rng.choice((0, 1, rng.randrange(f.order))) for _ in range(cols)]
                    for _ in range(rows)
                ]
                streams = [
                    bytes(rng.randrange(f.order) for _ in range(n))
                    for _ in range(cols)
                ]
                want = slow_matmul(mat, streams, n, poly, f.order)
                flat = bytes(v for row in mat for v in row)
                args = (flat, rows, cols, b"".join(streams), n, f.exp, f.log)
                assert b"".join(f.matmul_stream(mat, streams, n)) == want
                assert matmul_python(*args) == want

    def test_matches_scalar_ops(self):
        rng = random.Random(5)
        f = GF256
        mat = [[rng.randrange(256) for _ in range(3)] for _ in range(2)]
        streams = [bytes(rng.randrange(256) for _ in range(10)) for _ in range(3)]
        out = f.matmul_stream(mat, streams, 10)
        for i in range(10):
            for r in range(2):
                want = 0
                for c in range(3):
                    want ^= f.mul(mat[r][c], streams[c][i])
                assert out[r][i] == want

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            GF256.matmul_stream([[1, 2]], [b"abc"], 3)
        with pytest.raises(ValueError):
            GF256.matmul_stream([[1]], [b"ab"], 3)
        with pytest.raises(ValueError, match="GF\\(16\\)"):
            GF16.matmul_stream([[2]], [b"\xff"], 1)

    def test_backend_reported(self, kernel):
        assert backend() == kernel


@pytest.fixture
def gfcore():
    return pytest.importorskip("smdc._gfcore", reason="extension not built")


class TestCompiledKernel:
    def test_rejects_bad_calls(self, gfcore):
        e, lg = GF256.exp, GF256.log
        for args in (
            (b"\x02\x03", 1, 1, b"\x80", 1, e, lg),  # matrix longer than rows*cols
            (b"\x02", 1, 1, b"\x80\x01", 1, e, lg),  # sources longer than cols*n
            (b"\x02", 1, 1, b"", 1, e, lg),  # sources shorter
            (b"\x02", -1, 1, b"\x80", 1, e, lg),  # negative rows
            (b"", 1 << 62, 1 << 62, b"", 0, e, lg),  # rows*cols overflows
            (b"\x02", 1, 1, b"\x10", 1, GF16.exp, GF16.log),  # byte outside GF(16)
            (b"\x10", 1, 1, b"\x02", 1, GF16.exp, GF16.log),  # coefficient outside
            (b"\x02", 1, 1, b"\x80", 1, e[:300], lg),  # short exp
            (b"\x02", 1, 1, b"\x80", 1, e, lg[:128]),  # short log
        ):
            with pytest.raises(ValueError):
                gfcore.matmul(*args)

    def test_parity_with_python(self, gfcore):
        rng = random.Random(7)
        # every small shape, the empty ones among them, then random ones
        shapes = list(product(range(3), repeat=3)) + [
            (rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 80)) for _ in range(300)
        ]
        for f in (GF16, GF256):
            for rows, cols, n in shapes:
                flat = bytes(
                    rng.choice((0, 1, rng.randrange(f.order))) for _ in range(rows * cols)
                )
                src = bytes(rng.randrange(f.order) for _ in range(cols * n))
                args = (flat, rows, cols, src, n, f.exp, f.log)
                assert gfcore.matmul(*args) == matmul_python(*args)
