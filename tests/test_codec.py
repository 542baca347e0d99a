"""Unit + property tests for the binary codec."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.model.transaction as transaction_module
from repro.common.codec import Reader, Writer
from repro.common.errors import CodecError
from repro.model import GENESIS_PREV_HASH, Block, Transaction


class TestVarint:
    @pytest.mark.parametrize("value", [0, 1, 127, 128, 300, 2**32, 2**63])
    def test_roundtrip(self, value):
        w = Writer()
        w.write_varint(value)
        assert Reader(w.getvalue()).read_varint() == value

    def test_negative_rejected(self):
        with pytest.raises(CodecError):
            Writer().write_varint(-1)

    def test_single_byte_for_small_values(self):
        w = Writer()
        w.write_varint(127)
        assert len(w.getvalue()) == 1

    def test_underflow_raises(self):
        with pytest.raises(CodecError):
            Reader(b"").read_varint()

    def test_unterminated_varint_raises(self):
        with pytest.raises(CodecError):
            Reader(b"\x80\x80").read_varint()

    def test_oversized_varint_rejected(self):
        with pytest.raises(CodecError):
            Reader(b"\xff" * 200 + b"\x01").read_varint()

    @given(st.integers(min_value=0, max_value=2**70))
    def test_roundtrip_property(self, value):
        w = Writer()
        w.write_varint(value)
        r = Reader(w.getvalue())
        assert r.read_varint() == value
        assert r.remaining() == 0


class TestSigned:
    @pytest.mark.parametrize("value", [0, 1, -1, 2, -2, 1000, -1000, 2**40, -(2**40)])
    def test_roundtrip(self, value):
        w = Writer()
        w.write_signed(value)
        assert Reader(w.getvalue()).read_signed() == value

    def test_zigzag_interleaves(self):
        # 0, -1, 1, -2, 2 encode to 0, 1, 2, 3, 4
        for value, encoded in [(0, 0), (-1, 1), (1, 2), (-2, 3), (2, 4)]:
            w = Writer()
            w.write_signed(value)
            assert Reader(w.getvalue()).read_varint() == encoded

    @given(st.integers(min_value=-(2**68), max_value=2**68))
    def test_roundtrip_property(self, value):
        w = Writer()
        w.write_signed(value)
        assert Reader(w.getvalue()).read_signed() == value


class TestBytesAndStrings:
    def test_bytes_roundtrip(self):
        w = Writer()
        w.write_bytes(b"hello\x00world")
        assert Reader(w.getvalue()).read_bytes() == b"hello\x00world"

    def test_empty_bytes(self):
        w = Writer()
        w.write_bytes(b"")
        assert Reader(w.getvalue()).read_bytes() == b""

    def test_str_roundtrip_unicode(self):
        w = Writer()
        w.write_str("教育 donation ✓")
        assert Reader(w.getvalue()).read_str() == "教育 donation ✓"

    def test_invalid_utf8_raises(self):
        w = Writer()
        w.write_bytes(b"\xff\xfe")
        with pytest.raises(CodecError):
            Reader(w.getvalue()).read_str()

    def test_truncated_bytes_raise(self):
        w = Writer()
        w.write_bytes(b"abcdef")
        data = w.getvalue()[:-2]
        with pytest.raises(CodecError):
            Reader(data).read_bytes()

    @given(st.binary(max_size=512))
    def test_bytes_property(self, blob):
        w = Writer()
        w.write_bytes(blob)
        assert Reader(w.getvalue()).read_bytes() == blob


class TestValues:
    @pytest.mark.parametrize(
        "value",
        [None, True, False, 0, -5, 7, 3.25, -1e300, "", "text", b"", b"\x00raw"],
    )
    def test_roundtrip(self, value):
        w = Writer()
        w.write_value(value)
        got = Reader(w.getvalue()).read_value()
        assert got == value
        assert type(got) is type(value)

    def test_unsupported_type_raises(self):
        with pytest.raises(CodecError):
            Writer().write_value({"not": "supported"})

    def test_unknown_tag_raises(self):
        with pytest.raises(CodecError):
            Reader(b"\x99").read_value()

    def test_bool_not_confused_with_int(self):
        w = Writer()
        w.write_value(True)
        w.write_value(1)
        r = Reader(w.getvalue())
        first, second = r.read_value(), r.read_value()
        assert first is True and second == 1 and second is not True

    @given(
        st.lists(
            st.one_of(
                st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
                st.text(max_size=40), st.binary(max_size=40),
            ),
            max_size=20,
        )
    )
    def test_sequence_property(self, values):
        w = Writer()
        for value in values:
            w.write_value(value)
        r = Reader(w.getvalue())
        got = [r.read_value() for _ in values]
        assert got == values
        assert r.remaining() == 0


class TestReaderPositioning:
    def test_position_tracks(self):
        w = Writer()
        w.write_varint(5)
        w.write_bytes(b"abc")
        r = Reader(w.getvalue())
        assert r.position == 0
        r.read_varint()
        assert r.position == 1
        r.read_bytes()
        assert r.remaining() == 0

    def test_offset_start(self):
        data = b"\x00\x00" + b"\x07"
        assert Reader(data, offset=2).read_varint() == 7

    def test_float_roundtrip(self):
        w = Writer()
        w.write_float(1.5e-42)
        assert Reader(w.getvalue()).read_float() == 1.5e-42


# -- the transaction decoder: fused kernel vs the Reader reference -----------

_any_value = st.one_of(
    st.none(), st.booleans(),
    st.integers(), st.integers(min_value=-(2**300), max_value=2**300),
    st.floats(),  # NaN and +-inf included: compared by re-encoding
    st.text(max_size=20), st.text(min_size=128, max_size=200),
    st.binary(max_size=20), st.binary(min_size=128, max_size=200),
)
_short_or_long = st.one_of(st.text(max_size=12), st.text(min_size=128, max_size=160))
_any_tx = st.builds(
    Transaction,
    ts=st.one_of(st.integers(0, 2**45), st.integers(min_value=0)),
    senid=_short_or_long,
    tname=_short_or_long,
    values=st.lists(_any_value, max_size=8).map(tuple),
    tid=st.integers(min_value=-1),
    pubkey=st.one_of(st.just(b""), st.binary(min_size=33, max_size=33)),
    sig=st.one_of(st.just(b""), st.binary(min_size=64, max_size=64),
                  st.binary(min_size=128, max_size=200)),
    nonce=_short_or_long,
)


def reference_decode(data):
    """``read_from`` over a Reader, plus the whole-buffer check."""
    reader = Reader(data)
    tx = Transaction.read_from(reader)
    if reader.remaining():
        raise CodecError("trailing bytes")
    return tx


def outcome(decode, data):
    """The re-encoding of what ``decode`` returns, or CodecError.  Any
    other exception escapes and fails the test."""
    try:
        return decode(data).to_bytes()
    except CodecError:
        return CodecError


def check_same_outcome(data):
    assert outcome(Transaction.from_bytes, data) == outcome(reference_decode, data)


class TestTransactionDecoder:
    @settings(deadline=None)
    @given(_any_tx)
    def test_roundtrip_every_tag(self, tx):
        raw = tx.to_bytes()
        assert Transaction.from_bytes(raw).to_bytes() == raw
        assert reference_decode(raw).to_bytes() == raw

    @settings(max_examples=40, deadline=None)
    @given(_any_tx, st.binary(min_size=1, max_size=8))
    def test_truncated_mutated_and_extended(self, tx, tail):
        """Same transaction as the reference, or CodecError from both."""
        raw = tx.to_bytes()
        for cut in range(len(raw)):
            check_same_outcome(raw[:cut])
        for i, byte in enumerate(raw):
            for mutant in {byte ^ 0x01, byte ^ 0x80, 0x00, 0x7F, 0xFF} - {byte}:
                check_same_outcome(raw[:i] + bytes([mutant]) + raw[i + 1:])
        check_same_outcome(raw + tail)

    @settings(deadline=None)
    @given(st.binary(max_size=300))
    def test_arbitrary_bytes(self, data):
        check_same_outcome(data)

    def test_trailing_bytes_rejected(self, sample_tx):
        raw = sample_tx.to_bytes()
        with pytest.raises(CodecError, match="4 trailing bytes after transaction"):
            Transaction.from_bytes(raw + b"JUNK")
        # the same refusal when the kernel hands over to the reference
        long_nonce = Transaction.create("donate", (), ts=1, nonce="n" * 200)
        with pytest.raises(CodecError, match="1 trailing bytes after transaction"):
            Transaction.from_bytes(long_nonce.to_bytes() + b"\x00")

    @pytest.mark.parametrize("site", ["tid", "ts", "value"])
    def test_varint_cap_matches_reader(self, site):
        """A value spelt in 147 bytes decodes, in 148 it is refused - at
        every varint the kernel reads inline."""
        def spelled(continuation):
            long_one = b"\x80" * continuation + b"\x01"
            tid = long_one if site == "tid" else b"\x00"
            ts = long_one if site == "ts" else b"\x00"
            values = b"\x01\x03" + long_one if site == "value" else b"\x00"
            return tid + ts + b"\x00" * 5 + values

        tx = Transaction.from_bytes(spelled(146))
        assert tx == reference_decode(spelled(146))
        assert tx.to_bytes() == spelled(146)  # minimal, so canonical
        with pytest.raises(CodecError, match="too long"):
            Transaction.from_bytes(spelled(147))

    @pytest.mark.parametrize("site", ["tid", "ts", "length", "int"])
    def test_non_minimal_varints_are_refused(self, site):
        """A number spelt with a trailing zero byte (``86 00`` for 6) is
        refused by the kernel and the reference with the same error."""
        tx = Transaction.create("donate", ("a", 7), ts=1, sender="org1")
        raw = tx.with_tid(3).to_bytes()
        minimal, longer = {
            "tid": (b"\x06\x01", b"\x86\x00\x01"),   # zig-zag 3, then ts
            "ts": (b"\x06\x01", b"\x06\x81\x00"),
            "length": (b"\x04org1", b"\x84\x00org1"),  # senid's length
            "int": (b"\x03\x0e", b"\x03\x8e\x00"),    # the value 7
        }[site]
        assert raw.count(minimal) == 1
        assert Transaction.from_bytes(raw) == tx.with_tid(3)
        bad = raw.replace(minimal, longer)
        with pytest.raises(CodecError, match="non-minimal varint") as kernel:
            Transaction.from_bytes(bad)
        with pytest.raises(CodecError) as reference:
            reference_decode(bad)
        assert str(kernel.value) == str(reference.value)

    def test_block_with_an_over_long_tid_is_refused(self):
        """Before the rule a block whose record spelt its tid in two bytes
        decoded, and passed ``verify_trans_root`` on the re-encoding."""
        tx = Transaction.create("donate", ("a",), ts=1, sender="org1").with_tid(3)
        raw = Block.package(GENESIS_PREV_HASH, 0, 5, [tx]).to_bytes()
        record = tx.to_bytes()
        longer = b"\x86\x00" + record[1:]
        framed = bytes([len(record)]) + record
        assert raw.count(framed) == 1
        bad = raw.replace(framed, bytes([len(longer)]) + longer)
        with pytest.raises(CodecError, match="non-minimal varint"):
            Block.from_bytes(bad)

    @pytest.mark.parametrize("data", [
        b"", b"\x80" * 147 + b"\x00", b"\x00\x00\x00\x00\x00\x00\x00\x01\x09",
        b"\x00\x00\x00\x00\x01\xff\x00\x00\x00",
    ], ids=["empty", "endless-varint", "unknown-tag", "bad-utf8"])
    def test_refusals_are_the_reference_errors(self, data):
        with pytest.raises(CodecError) as kernel:
            Transaction.from_bytes(data)
        with pytest.raises(CodecError) as reference:
            reference_decode(data)
        assert str(kernel.value) == str(reference.value)


class TestDecodedFootprint:
    def test_no_instance_dict(self, sample_tx):
        decoded = Transaction.from_bytes(sample_tx.to_bytes())
        assert not hasattr(decoded, "__dict__")
        decoded.values = ("tampered",)  # slots; immutable only by contract
        assert decoded.values == ("tampered",)

    def test_names_are_shared(self, monkeypatch):
        monkeypatch.setattr(transaction_module, "_names", {})
        first = Transaction.create("donate", ("a",), ts=1, sender="org-1")
        second = Transaction.create("donate", ("b",), ts=2, sender="org-1")
        one = Transaction.from_bytes(first.to_bytes())
        two = Transaction.from_bytes(second.to_bytes())
        assert one.tname == "donate" and one.senid == "org-1"
        assert one.tname is two.tname
        assert one.senid is two.senid

    def test_string_values_are_shared(self, monkeypatch):
        monkeypatch.setattr(transaction_module, "_values", {})
        first = Transaction.create("donate", ("donor7", "edu", 1.5), ts=1)
        second = Transaction.create("donate", ("donor7", "edu", 2.5), ts=2)
        one = Transaction.from_bytes(first.to_bytes())
        two = Transaction.from_bytes(second.to_bytes())
        assert one.values == ("donor7", "edu", 1.5)
        assert one.values[0] is two.values[0]
        assert one.values[1] is two.values[1]

    def test_name_cache_is_bounded(self, monkeypatch):
        monkeypatch.setattr(transaction_module, "_names", {})
        monkeypatch.setattr(transaction_module, "_NAME_CACHE_ENTRIES", 8)
        for i in range(40):
            tx = Transaction.create(f"table{i}", (), ts=i, sender=f"sender{i}")
            decoded = Transaction.from_bytes(tx.to_bytes())
            assert (decoded.tname, decoded.senid) == (f"table{i}", f"sender{i}")
            assert len(transaction_module._names) <= 8

    def test_unique_values_never_evict_names(self, monkeypatch):
        monkeypatch.setattr(transaction_module, "_names", {})
        monkeypatch.setattr(transaction_module, "_values", {})
        monkeypatch.setattr(transaction_module, "_VALUE_CACHE_ENTRIES", 8)
        first = Transaction.from_bytes(
            Transaction.create("donate", ("v0",), ts=0, sender="org-1")
            .to_bytes())
        for i in range(1, 40):
            tx = Transaction.create("donate", (f"v{i}",), ts=i, sender="org-1")
            decoded = Transaction.from_bytes(tx.to_bytes())
            assert decoded.values == (f"v{i}",)
            assert len(transaction_module._values) <= 8
            assert decoded.tname is first.tname
            assert decoded.senid is first.senid
        assert len(transaction_module._names) == 2


# -- blocks over hostile bytes -------------------------------------------------


def check_block_total(data):
    """Block.from_bytes returns a block or raises CodecError, nothing else."""
    try:
        Block.from_bytes(data)
    except CodecError:
        pass


class TestBlockHostileBytes:
    @settings(deadline=None)
    @given(st.binary(max_size=400))
    def test_arbitrary_bytes(self, data):
        check_block_total(data)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(_any_tx, max_size=3), st.binary(min_size=1, max_size=8))
    def test_truncated_mutated_and_extended(self, txs, tail):
        sequenced = [tx.with_tid(i) for i, tx in enumerate(txs)]
        raw = Block.package(GENESIS_PREV_HASH, 0, 5, sequenced).to_bytes()
        assert Block.from_bytes(raw).to_bytes() == raw
        for cut in range(len(raw)):
            check_block_total(raw[:cut])
        for i, byte in enumerate(raw):
            for mutant in {byte ^ 0x01, byte ^ 0x80, 0xFF} - {byte}:
                check_block_total(raw[:i] + bytes([mutant]) + raw[i + 1:])
        with pytest.raises(CodecError, match="trailing bytes after block"):
            Block.from_bytes(raw + tail)
