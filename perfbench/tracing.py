"""Spans around the calls into each layer, recorded from outside the library.

The benchmark wraps the names each calling module imports (for example
`smdc.region.feasible`, or `GF.solve`, which `rs` reaches through a field
instance) and restores them afterwards.  A span carries name, start,
end, parent span and operation id; spans stay in memory and are written
when the run ends.  Self time is a span's duration minus that of its
child spans.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter


class NullTracer:
    """Stand-in for untimed bookkeeping when tracing is off."""

    op = -1
    tag = None

    def span(self, name):
        return nullcontext()

    def add(self, name, value):
        pass

    def low(self, name, value):
        pass


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self.op = -1
        self.tag = None  # scheme of the current operation
        self.sums = defaultdict(float)
        self.lows = {}
        self._stack = []
        self._patched = []
        self._decode_keys = set()
        self._entropy_keys = set()

    # recording ----------------------------------------------------------

    @contextmanager
    def span(self, name):
        rec = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def add(self, name, value):
        self.sums[name] += value

    def high(self, name, value):
        self.sums[name] = max(self.sums[name], value)

    def low(self, name, value):
        self.lows[name] = min(self.lows.get(name, value), value)

    def wrap(self, owner, attr, name, before=None, after=None):
        """Replace owner.attr by a spanned wrapper; hooks run outside the span."""
        fn = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args)
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(result)
            return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, fn))

    def restore(self):
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    # layer hooks ----------------------------------------------------------

    def install(self, lib):
        gf, codec, region, covers, entropy = (
            lib.gf, lib.codec, lib.region, lib.covers, lib.entropy
        )
        self.wrap(gf.GF, "matmul_stream", "gf.matmul_stream", before=self._stream)
        self.wrap(gf.GF, "solve", "gf.solve")
        self.wrap(gf.GF, "lagrange_matrix", "gf.lagrange_matrix")
        self.wrap(codec, "encode_matrix", "rs.encode_matrix")
        self.wrap(codec, "decode_matrix", "rs.decode_matrix", before=self._decode)
        for name in ("feasible", "solve_max"):
            self.wrap(region, name, f"exactlp.{name}", before=self._lp)
        for module in (region, covers):
            self.wrap(module, "f_alpha", "region.f_alpha")
        self.wrap(covers, "yz_chain", "covers.yz_chain", after=self._cases)
        self.wrap(covers, "conditional_chain", "covers.conditional_chain")
        self.wrap(covers, "verify_chain", "covers.verify_chain")
        self.wrap(entropy.JointPMF, "subset_entropy", "entropy.subset_entropy",
                  before=self._entropy)
        for module in (region, covers, entropy):
            self.wrap(module, "subsets_of_size", "subsets.subsets_of_size")

    def _stream(self, gf, matrix, streams, n):
        self.add("gf.matmul_stream.bytes", len(matrix) * n)

    def _decode(self, spec, positions):
        key = (self.tag, spec.n, spec.num_keys, spec.k - spec.num_keys, tuple(positions))
        if key in self._decode_keys:
            self.add("rs.decode_matrix.repeats", 1)
        self._decode_keys.add(key)
        self.high("rs.decode_matrix.k_max", spec.k)

    def _lp(self, lp):
        self.high("exactlp.lp.rows_max", lp.num_rows)
        self.high("exactlp.lp.cols_max", lp.num_vars)
        self.add("exactlp.lp.cells_total", lp.num_rows * lp.num_vars)

    def _cases(self, chain):
        for _, case in chain.case_events:
            self.add(f"covers.{case}.count", 1)

    def _entropy(self, pmf, u):
        members = tuple(u.members) if hasattr(u, "members") else tuple(sorted(u))
        key = (self.op, id(pmf), members)
        if key in self._entropy_keys:
            self.add("entropy.cache_hits", 1)
        self._entropy_keys.add(key)

    # results ----------------------------------------------------------------

    def totals(self):
        """name -> (calls, total seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[i]
        return out

    def write(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start_s", "end_s", "parent", "op"],
                    "names": names,
                    "spans": [
                        [index[n], round(s, 7), round(e, 7), p, o]
                        for n, s, e, p, o in self.spans
                    ],
                },
                fh,
            )


@contextmanager
def count_calls(owner, attr, counter):
    """Count calls of owner.attr in counter[0], with no span and no clock."""
    fn = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        counter[0] += 1
        return fn(*args, **kwargs)

    setattr(owner, attr, wrapper)
    try:
        yield
    finally:
        setattr(owner, attr, fn)


def layer_metrics(tr, ops, mul_calls, overhead):
    """Per-layer metrics of a traced pass over `ops` operations."""
    t = tr.totals()
    s = tr.sums

    def calls(name):
        return t[name][0] if name in t else 0

    def self_s(name):
        return t[name][2] if name in t else 0.0

    def share(num, den):
        return num / den if den else 0.0

    m = {}
    for name in ("gf.matmul_stream", "gf.solve", "gf.lagrange_matrix",
                 "rs.decode_matrix", "rs.encode_matrix", "exactlp.feasible",
                 "exactlp.solve_max", "region.f_alpha", "entropy.subset_entropy",
                 "subsets.subsets_of_size"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
    for name in ("codec.encode", "codec.decode", "region.member", "covers.yz_chain",
                 "covers.conditional_chain", "covers.verify_chain"):
        m[f"{name}.self_s"] = self_s(name)
    m["gf.matmul_stream.bytes"] = s["gf.matmul_stream.bytes"]
    m["gf.matmul_stream.MBps"] = share(s["gf.matmul_stream.bytes"] / 1e6,
                                       self_s("gf.matmul_stream"))
    m["gf.mul.calls"] = mul_calls
    m["rs.decode_matrix.k_max"] = s["rs.decode_matrix.k_max"]
    m["rs.decode_matrix.repeat_share"] = share(s["rs.decode_matrix.repeats"],
                                               calls("rs.decode_matrix"))
    m["codec.bundle.to_bytes_s"] = self_s("codec.bundle.to_bytes")
    m["codec.bundle.from_bytes_s"] = self_s("codec.bundle.from_bytes")
    m["codec.bundle.bytes"] = s["codec.bundle.bytes"]
    m["codec.storage_ratio"] = share(s["codec.bundle.bytes"], s["codec.source_bytes"])
    for key in ("rows_max", "cols_max", "cells_total"):
        m[f"exactlp.lp.{key}"] = s[f"exactlp.lp.{key}"]
    m["region.member.nonmember_share"] = share(s["region.member.nonmembers"],
                                               s["region.member.queries"])
    for case in ("base", "case1", "case2", "case3"):
        m[f"covers.{case}.count"] = s[f"covers.{case}.count"]
    m["entropy.cache_hit_share"] = share(s["entropy.cache_hits"],
                                         calls("entropy.subset_entropy"))
    m["entropy.states_total"] = s["entropy.states_total"]
    m["entropy.min_slack"] = tr.lows.get("entropy.min_slack", 0.0)
    m["trace.ops"] = ops
    m["trace.op_s"] = t["op"][1] if "op" in t else 0.0
    m["trace.overhead_share"] = overhead
    return m
