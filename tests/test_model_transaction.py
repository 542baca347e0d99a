"""Tests for transactions: signing, sequencing, serialization."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import SignatureError
from repro.crypto import KeyPair
from repro.model import (
    GENESIS_PREV_HASH,
    SCHEMA_TNAME,
    Block,
    TableSchema,
    Transaction,
    UNASSIGNED_TID,
    schema_from_sync_transaction,
    schema_sync_transaction,
)
from repro.storage.blockstore import serialize_block


class TestCreation:
    def test_unsigned_creation(self):
        tx = Transaction.create("donate", ("Jack", 1.0), ts=5, sender="org1")
        assert tx.senid == "org1"
        assert tx.tname == "donate"
        assert not tx.is_sequenced
        assert tx.tid == UNASSIGNED_TID
        assert tx.sig == b""

    def test_signed_creation(self, keypair):
        tx = Transaction.create("donate", ("Jack", 1.0), ts=5, keypair=keypair)
        assert tx.senid == keypair.address
        assert tx.verify_signature()

    def test_tname_lowercased(self):
        tx = Transaction.create("DoNate", (), ts=0, sender="s")
        assert tx.tname == "donate"

    def test_with_tid(self):
        tx = Transaction.create("t", (), ts=0, sender="s")
        sequenced = tx.with_tid(17)
        assert sequenced.tid == 17 and sequenced.is_sequenced
        assert tx.tid == UNASSIGNED_TID  # original untouched


class TestSignatures:
    def test_unsigned_does_not_verify(self):
        tx = Transaction.create("t", (), ts=0, sender="s")
        assert not tx.verify_signature()

    def test_tampered_value_fails(self, keypair):
        tx = Transaction.create("t", ("a", 1), ts=0, keypair=keypair)
        tx.values = ("a", 2)
        assert not tx.verify_signature()

    def test_tampered_sender_fails(self, keypair):
        tx = Transaction.create("t", ("a",), ts=0, keypair=keypair)
        tx.senid = "someone-else"
        assert not tx.verify_signature()

    def test_signature_survives_sequencing(self, keypair):
        tx = Transaction.create("t", ("a",), ts=0, keypair=keypair)
        assert tx.with_tid(5).verify_signature()  # tid not covered by sig

    def test_stolen_pubkey_fails(self, keypair):
        other = KeyPair.from_seed("other")
        tx = Transaction.create("t", ("a",), ts=0, keypair=keypair)
        tx.pubkey = other.public_key
        assert not tx.verify_signature()

    def test_require_valid_signature_raises(self):
        tx = Transaction.create("t", (), ts=0, sender="s")
        with pytest.raises(SignatureError):
            tx.require_valid_signature()


class TestSerialization:
    def test_roundtrip(self, keypair):
        tx = Transaction.create(
            "donate", ("Jack", "Edu", 100.0, None, True, b"raw"),
            ts=99, keypair=keypair,
        ).with_tid(3)
        restored = Transaction.from_bytes(tx.to_bytes())
        assert restored == tx
        assert restored.verify_signature()

    def test_unassigned_tid_roundtrip(self):
        tx = Transaction.create("t", (), ts=0, sender="s")
        assert Transaction.from_bytes(tx.to_bytes()).tid == UNASSIGNED_TID

    def test_hash_changes_with_content(self):
        tx1 = Transaction.create("t", ("a",), ts=0, sender="s")
        tx2 = Transaction.create("t", ("b",), ts=0, sender="s")
        assert tx1.hash() != tx2.hash()

    def test_size_bytes_matches_serialization(self):
        tx = Transaction.create("t", ("abc",), ts=0, sender="s")
        assert tx.size_bytes() == len(tx.to_bytes())

    @settings(max_examples=50, deadline=None)
    @given(
        st.text(alphabet="abcdefgh", min_size=1, max_size=8),
        st.lists(
            st.one_of(st.integers(), st.floats(allow_nan=False),
                      st.text(max_size=20), st.none()),
            max_size=8,
        ),
        st.integers(min_value=0, max_value=2**40),
    )
    def test_roundtrip_property(self, tname, values, ts):
        tx = Transaction.create(tname, values, ts=ts, sender="s")
        restored = Transaction.from_bytes(tx.to_bytes())
        assert restored.tname == tname.lower()
        assert restored.values == tuple(values)
        assert restored.ts == ts


_WIRE_KEYPAIR = KeyPair.from_seed("wire-bytes")

#: every value tag, and strings / bytes long enough for multi-byte lengths
_wire_values = st.lists(st.one_of(
    st.none(), st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(),  # NaN and infinities too: the checks compare bytes
    st.text(max_size=40), st.binary(max_size=40),
    st.text(min_size=128, max_size=160), st.binary(min_size=128, max_size=160),
), max_size=6)

_tids = st.integers(min_value=-(2**40), max_value=2**70).filter(
    lambda tid: tid != UNASSIGNED_TID)

_wire_txs = st.builds(
    lambda tname, values, ts, signed, nonce: Transaction.create(
        tname, values, ts=ts, nonce=nonce, sender="org-1",
        keypair=_WIRE_KEYPAIR if signed else None,
    ),
    tname=st.text(alphabet="abcdef", min_size=1, max_size=6),
    values=_wire_values,
    ts=st.integers(0, 2**70),
    signed=st.booleans(),
    nonce=st.text(max_size=8),
)


def fresh_bytes(tx: Transaction, **changes) -> bytes:
    """The encoding of a transaction built field by field from ``tx``."""
    fields = {name: getattr(tx, name) for name in (
        "ts", "senid", "tname", "values", "tid", "pubkey", "sig", "nonce")}
    fields.update(changes)
    return Transaction(**fields).to_bytes()


class TestWireBytes:
    """The bytes a transaction carries are always the bytes of its fields."""

    @settings(max_examples=60, deadline=None)
    @given(_wire_txs, st.booleans(), _tids, _tids)
    def test_with_tid_swaps_the_prefix(self, tx, encode_first, tid, retid):
        if encode_first:
            tx.to_bytes()
        sequenced = tx.with_tid(tid)
        assert sequenced.to_bytes() == fresh_bytes(tx, tid=tid)
        # the copy carries bytes exactly when its parent had them
        assert (sequenced.to_bytes() is sequenced.to_bytes()) == encode_first
        assert sequenced.with_tid(retid).to_bytes() == fresh_bytes(tx, tid=retid)

    @settings(max_examples=60, deadline=None)
    @given(_wire_txs, _tids, _wire_values)
    def test_replace_never_carries_old_bytes(self, tx, tid, values):
        tx.to_bytes()
        for base in (tx, tx.with_tid(tid)):
            changed = dataclasses.replace(base, values=tuple(values))
            assert changed.to_bytes() == fresh_bytes(base, values=tuple(values))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(_wire_txs, _tids, st.booleans()),
                    min_size=1, max_size=5))
    def test_decoded_block_returns_its_stored_records(self, entries):
        txs = []
        for tx, tid, encode_first in entries:
            if encode_first:
                tx.to_bytes()
            txs.append(tx.with_tid(tid))
        block = Block.package(GENESIS_PREV_HASH, 0, 0, txs)
        data, offsets = serialize_block(block)
        assert data == block.to_bytes()
        decoded = Block.from_bytes(data)
        for index, tx in enumerate(decoded.transactions):
            start, length = offsets[2 * index], offsets[2 * index + 1]
            assert tx.to_bytes() == data[start : start + length]
            assert tx.to_bytes() is tx.to_bytes()  # attached, not re-encoded
        assert decoded.verify_trans_root()


class TestRowView:
    def test_row_layout(self, donate_schema):
        tx = Transaction.create("donate", ("Jack", "Edu", 5.0), ts=7,
                                sender="org1").with_tid(2)
        row = tx.row()
        assert row[0] == 2          # tid
        assert row[1] == 7          # ts
        assert row[3] == "org1"     # senid
        assert row[4] == "donate"   # tname
        assert row[5:] == ("Jack", "Edu", 5.0)

    def test_get_by_column(self, donate_schema):
        tx = Transaction.create("donate", ("Jack", "Edu", 5.0), ts=7,
                                sender="org1")
        assert tx.get("donor", donate_schema) == "Jack"
        assert tx.get("amount", donate_schema) == 5.0
        assert tx.get("senid", donate_schema) == "org1"

    def test_as_dict_with_schema(self, donate_schema):
        tx = Transaction.create("donate", ("Jack", "Edu", 5.0), ts=7,
                                sender="org1")
        d = tx.as_dict(donate_schema)
        assert d["donor"] == "Jack" and d["tname"] == "donate"

    def test_as_dict_without_schema(self):
        tx = Transaction.create("t", ("a", "b"), ts=0, sender="s")
        d = tx.as_dict()
        assert d["v0"] == "a" and d["v1"] == "b"


class TestSchemaSync:
    def test_roundtrip(self):
        schema = TableSchema.create("x", [("a", "int"), ("b", "string")])
        tx = schema_sync_transaction(schema, ts=1)
        assert tx.tname == SCHEMA_TNAME
        assert schema_from_sync_transaction(tx) == schema

    def test_non_sync_rejected(self):
        tx = Transaction.create("donate", (b"junk",), ts=0, sender="s")
        with pytest.raises(SignatureError):
            schema_from_sync_transaction(tx)
