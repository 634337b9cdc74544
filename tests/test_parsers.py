"""Untrusted input: every parser, and the audit the CLI runs on what it
parses, fails with ValueError (exit code 3) and never with another
exception."""

import zlib
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smdc.codec import MAGIC, VERSION, ShareBundle
from smdc.covers import (
    chain_from_text,
    conditional_from_text,
    verify_chain,
    verify_conditional,
)
from smdc.entropy import pmf_from_text
from smdc.exactlp import as_fraction

_NUM = st.sampled_from(["0", "1", "2", "3", "-1", "1/2", "1/0", "0/0", "x"])
_SUBSET = st.sampled_from(
    ["-", "1", "2", "3", "4", "1,2", "2,1", "1,3", "2,3", "1,2,3", "1,1", ","]
)
_LINE = st.one_of(
    st.tuples(st.just("c"), _NUM, _SUBSET, _NUM),
    st.tuples(st.sampled_from("gs"), _NUM, _SUBSET, _SUBSET, _NUM),
    st.tuples(st.sampled_from(["lambda", "n"]), st.lists(_NUM, max_size=3)).map(
        lambda rec: (rec[0], *rec[1])
    ),
    st.lists(st.one_of(_NUM, _SUBSET, st.text(max_size=4)), max_size=5),
).map(" ".join)


def _document(*headers):
    """A known or random header followed by record-like lines."""
    return st.tuples(
        st.one_of(st.sampled_from(headers), _LINE), st.lists(_LINE, max_size=8)
    ).map(lambda doc: "\n".join((doc[0], *doc[1])))


def _only_value_error(fn, data):
    try:
        fn(data)
    except ValueError:
        pass


_FUZZ = settings(max_examples=300, deadline=None)


@_FUZZ
@given(
    _document(
        "smdc-chain 1",
        "smdc-chain 1\nlambda 2 1 1",
        "smdc-chain 1\nlambda 1 1\nc 1 1 1\nc 1 2 1\nc 2 1,2 1",
    )
)
def test_chain_text(text):
    _only_value_error(lambda t: verify_chain(chain_from_text(t)), text)


@_FUZZ
@given(_document("smdc-cond-chain 1", "smdc-cond-chain 1\nlambda 1 1 1\nn 1"))
def test_conditional_text(text):
    _only_value_error(lambda t: verify_conditional(conditional_from_text(t)), text)


@_FUZZ
@given(_document("1 2", "2 2 2", "2 2 3"))
def test_pmf_text(text):
    _only_value_error(pmf_from_text, text)


def _with_crc(body):
    return body + zlib.crc32(body).to_bytes(4, "little")


@_FUZZ
@given(
    st.one_of(
        st.binary(max_size=80),
        st.binary(max_size=80).map(lambda tail: MAGIC + bytes([VERSION]) + tail),
        # a valid checksum takes the parse past it, into the length table
        st.binary(max_size=80).map(lambda tail: _with_crc(MAGIC + bytes([VERSION]) + tail)),
    )
)
def test_bundle_bytes(blob):
    _only_value_error(ShareBundle.from_bytes, blob)


@pytest.mark.parametrize("text", ["1e2", "1E-3", "2.5e1", "1/1e5", "1e10000000"])
def test_exponent_notation_rejected(text):
    with pytest.raises(ValueError, match="exponent"):
        as_fraction(text)
    with pytest.raises(ValueError):
        chain_from_text(f"smdc-chain 1\nlambda {text} 1\n")
    with pytest.raises(ValueError):
        pmf_from_text(f"1 2\n0 {text}\n1 0\n")


@pytest.mark.parametrize(
    "text, value",
    [("1_000", F(1000)), ("1_0.5", F(21, 2)), ("1/2_0", F(1, 20))],
)
def test_digit_groups_accepted(text, value):
    # Fraction reads these only from Python 3.11 on; the grammar must not
    # depend on the interpreter
    assert as_fraction(text) == value


@pytest.mark.parametrize("text", ["_1", "1_", "1__0", "1_/2", "1._5"])
def test_misplaced_underscore_rejected(text):
    with pytest.raises(ValueError, match="underscore"):
        as_fraction(text)


@pytest.mark.parametrize(
    "text",
    [
        "smdc-chain 1\nlambda 1 1\nc 1 - 1\nc 2 1,2 1\n",
        "smdc-chain 1\nlambda 1 1\nc 1 1 1\nc 1 2 1\nc 2 1,2 1\ng 5 1,2 1 1\n",
        "smdc-chain 1\nlambda 1 1\nc 1 1 1\nc 1 2 1\nc 2 1,2 1\ng 2 1,2 - 1\n",
    ],
)
def test_malformed_chain_fails_audit(text):
    assert not verify_chain(chain_from_text(text)).ok


def test_secrecy_threshold_out_of_range_fails_audit():
    assert not verify_conditional(
        conditional_from_text("smdc-cond-chain 1\nlambda 1 1\nn 5\n")
    ).ok
