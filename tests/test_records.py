"""The library's records: construction, equality, hash, repr, read-only
fields, copies and validation messages, each as the dataclasses they
replace had them."""

import copy
import pickle
from fractions import Fraction as F

import pytest

from smdc.codec import BundleFormatError, ShareBundle
from smdc.covers import ChainReport
from smdc.entropy import InequalityReport
from smdc.exactlp import FeasibilityResult
from smdc.gf import GF256
from smdc.region import GreedyAllocation
from smdc.rs import CodeSpec
from smdc.subsets import EncoderSet

from oracles import GF16

# (record built positionally, the same built by keyword, a record that differs
# in its last field, the expected repr)
CASES = {
    "EncoderSet": (
        EncoderSet((1, 3), 4),
        EncoderSet(members=(1, 3), ground_size=4),
        EncoderSet((1, 3), 5),
        "EncoderSet(members=(1, 3), ground_size=4)",
    ),
    "FeasibilityResult": (
        FeasibilityResult(False, None, (F(-1), F(2))),
        FeasibilityResult(feasible=False, certificate=(F(-1), F(2))),
        FeasibilityResult(False, None, (F(-1), F(3))),
        "FeasibilityResult(feasible=False, point=None, "
        "certificate=(Fraction(-1, 1), Fraction(2, 1)))",
    ),
    "GreedyAllocation": (
        GreedyAllocation((F(1), F(0)), (F(0), F(2)), 2),
        GreedyAllocation(stored_at_zero=(F(1), F(0)), residual=(F(0), F(2)), level=2),
        GreedyAllocation((F(1), F(0)), (F(0), F(2)), None),
        "GreedyAllocation(stored_at_zero=(Fraction(1, 1), Fraction(0, 1)), "
        "residual=(Fraction(0, 1), Fraction(2, 1)), level=2)",
    ),
    "ChainReport": (
        ChainReport(["level 2 total is 1, expected 2"]),
        ChainReport(failures=["level 2 total is 1, expected 2"]),
        ChainReport([]),
        "ChainReport(failures=['level 2 total is 1, expected 2'])",
    ),
    "InequalityReport": (
        InequalityReport("han", 0.0, 1.0, {}),
        InequalityReport(name="han", lhs=0.0, rhs=1.0, details={}),
        InequalityReport("han", 0.0, 1.0, {"alpha": 2}),
        "InequalityReport(name='han', lhs=0.0, rhs=1.0, details={})",
    ),
    "CodeSpec": (
        CodeSpec(3, 2, (1, 2, 3), (4,), (5,)),
        CodeSpec(n=3, k=2, eval_points=(1, 2, 3), message_points=(4,), key_points=(5,)),
        CodeSpec(3, 2, (1, 2, 3), (4,), (6,)),
        "CodeSpec(n=3, k=2, eval_points=(1, 2, 3), message_points=(4,), key_points=(5,))",
    ),
    "ShareBundle": (
        ShareBundle(2, 3, 1, 2, (3, 2), (2, 1), b"abc"),
        ShareBundle(
            scheme=2, num_encoders=3, num_keys=1, encoder_index=2,
            source_lengths=(3, 2), symbol_counts=(2, 1), payload=b"abc",
        ),
        ShareBundle(2, 3, 1, 2, (3, 2), (2, 1), b"abd"),
        "ShareBundle(scheme=2, num_encoders=3, num_keys=1, encoder_index=2, "
        "source_lengths=(3, 2), symbol_counts=(2, 1), payload=b'abc')",
    ),
}
FROZEN = [name for name in CASES if name != "ChainReport"]


@pytest.mark.parametrize("name", CASES)
class TestRecords:
    def test_positional_and_keyword_construction_agree(self, name):
        record, by_keyword, _, _ = CASES[name]
        assert record == by_keyword and not record != by_keyword
        assert type(record).__name__ == name

    def test_a_different_field_is_unequal(self, name):
        record, _, other, _ = CASES[name]
        assert record != other and not record == other
        assert record != (record,) and record.__eq__(object()) is NotImplemented

    def test_repr_names_the_fields(self, name):
        record, _, _, text = CASES[name]
        assert repr(record) == text

    def test_copies_are_equal(self, name):
        record = CASES[name][0]
        for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
            assert twin == record and type(twin) is type(record)
            assert repr(twin) == repr(record)

    def test_no_instance_dict(self, name):
        record = CASES[name][0]
        assert not hasattr(record, "__dict__")
        with pytest.raises(AttributeError):
            record.extra = 1


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_records_refuse_assignment(name):
    record = CASES[name][0]
    field = repr(record).split("(", 1)[1].split("=", 1)[0]
    before = getattr(record, field)
    with pytest.raises(AttributeError, match=field):
        setattr(record, field, before)
    with pytest.raises(AttributeError, match=field):
        delattr(record, field)
    assert getattr(record, field) is before


@pytest.mark.parametrize("name", [n for n in FROZEN if n != "InequalityReport"])
def test_frozen_records_hash_on_their_fields(name):
    record, by_keyword, other, _ = CASES[name]
    assert hash(record) == hash(by_keyword)
    assert len({record, by_keyword, other}) == 2


def test_encoder_set_keeps_its_mask_identity():
    u = EncoderSet((1, 3), 4)
    assert u.mask == 0b1010 and hash(u) == 0b1010 | 1 << 5
    with pytest.raises(AttributeError):
        u.mask = 0


def test_unhashable_fields_and_mutable_reports():
    with pytest.raises(TypeError):
        hash(InequalityReport("han", 0.0, 1.0, {}))
    report = ChainReport([])
    with pytest.raises(TypeError):
        hash(report)
    report.failures = ["a"]
    assert not report.ok and report == ChainReport(["a"])


def test_code_spec_field_takes_no_part():
    a = CodeSpec(2, 1, (1, 2))
    b = CodeSpec(2, 1, (1, 2), gf=GF16)
    assert a.gf is GF256 and b.gf is GF16
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert a.is_ramp is False and a.num_keys == 0


@pytest.mark.parametrize(
    "args, message",
    [
        (((1, 2), 0), "ground_size must be at least 1"),
        (((1, "2"), 3), "encoder index '2' is not an integer"),
        (((0, 1), 3), "encoder index 0 is below 1"),
        (((2, 2), 3), "members must be strictly increasing"),
        (((1, 4), 3), "member 4 outside ground set of size 3"),
    ],
)
def test_encoder_set_messages(args, message):
    with pytest.raises(ValueError) as err:
        EncoderSet(*args)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        ((2, 3, (1, 2)), {}, "need 1 <= k <= n"),
        ((2, 0, (1, 2)), {}, "need 1 <= k <= n"),
        ((2, 1, (1, 2, 3)), {}, "one evaluation point per share required"),
        ((2, 2, (1, 2), (2,), (3,)), {}, "evaluation, message and key points must be disjoint"),
        ((2, 1, (1, 16)), {"gf": GF16}, "points must be field elements"),
        ((2, 1, (1, 256)), {}, "points must be field elements"),
        ((3, 2, (1, 2, 3), (4,)), {}, "ramp mode needs message + key points = k"),
    ],
)
def test_code_spec_messages(args, kwargs, message):
    with pytest.raises(ValueError) as err:
        CodeSpec(*args, **kwargs)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "args, message",
    [
        ((3, 2, 0, 1, (1, 1), (1, 1), b"ab"), "unknown scheme 3"),
        ((0, 0, 0, 1, (), (), b""), "encoder count out of range"),
        ((0, 201, 0, 1, (1,) * 201, (1,) * 201, b"a" * 201), "encoder count out of range"),
        ((2, 2, 2, 1, (), (), b""), "key count out of range"),
        ((2, 2, -1, 1, (1, 1, 1), (1, 1, 1), b"abc"), "key count out of range"),
        ((1, 2, 1, 1, (1,), (1,), b"a"), "only the secure scheme carries keys"),
        ((0, 2, 0, 0, (1, 1), (1, 1), b"ab"), "encoder index out of range"),
        ((1, 2, 0, 3, (1, 1), (1, 1), b"ab"), "encoder index out of range"),
        ((2, 2, 1, 1, (1, 1), (1, 1), b"ab"), "wrong number of sources"),
        ((0, 2, 0, 1, (1, 1), (1,), b"a"), "wrong number of symbol counts"),
        ((0, 2, 0, 1, (1, -1), (1, 1), b"ab"), "negative length"),
        ((0, 2, 0, 1, (1, 1), (1, 1), b"abc"), "payload length does not match symbol counts"),
    ],
)
def test_share_bundle_messages(args, message):
    with pytest.raises(BundleFormatError) as err:
        ShareBundle(*args)
    assert str(err.value) == message
