"""Tests for the full node, access control, contracts and the facade."""

import pytest

from repro.common.errors import AccessDenied, CatalogError, ContractError
from repro.crypto import KeyPair
from repro.model import TableSchema, Transaction
from repro.node import (
    AccessController,
    ContractRuntime,
    ForEach,
    FullNode,
    SebdbNetwork,
    SmartContract,
)


class TestFullNodeStandalone:
    def make_node(self, **kwargs) -> FullNode:
        node = FullNode("n0", **kwargs)
        node.create_table(
            TableSchema.create("donate", [("donor", "string"),
                                          ("amount", "decimal")])
        )
        return node

    def test_create_table_via_sql(self):
        node = FullNode("n0")
        node.create_table("CREATE t (a int, b string)")
        assert "t" in node.catalog

    def test_duplicate_table_rejected(self):
        node = self.make_node()
        with pytest.raises(CatalogError):
            node.create_table("CREATE donate (x int)")

    def test_insert_validates_schema(self):
        node = self.make_node()
        with pytest.raises(Exception):
            node.insert("donate", ("Jack", "not-a-number"))

    def test_insert_and_query(self):
        node = self.make_node()
        node.insert("donate", ("Jack", 5.0), sender="org1")
        node.insert("donate", ("Rose", 9.0), sender="org2")
        result = node.query("SELECT * FROM donate WHERE amount > 6")
        assert len(result) == 1
        assert result.transactions[0].values[0] == "Rose"

    def test_execute_routes_writes_and_reads(self):
        node = self.make_node()
        assert node.execute("INSERT INTO donate VALUES ('J', 4.0)") is None
        result = node.execute("SELECT * FROM donate")
        assert len(result) == 1

    def test_tids_are_sequential(self):
        node = self.make_node()
        for i in range(5):
            node.insert("donate", (f"d{i}", float(i)))
        result = node.query("SELECT tid FROM donate")
        tids = sorted(row[0] for row in result.rows)
        assert tids == list(range(tids[0], tids[0] + 5))

    def test_signature_verification_rejects_forged(self):
        node = self.make_node(verify_signatures=True)
        keypair = KeyPair.from_seed("honest")
        good = Transaction.create("donate", ("J", 1.0), ts=1, keypair=keypair)
        forged = Transaction.create("donate", ("F", 2.0), ts=2, keypair=keypair)
        forged.values = ("F", 999.0)  # tamper after signing
        node.submit_transaction(good)
        node.submit_transaction(forged)
        result = node.query("SELECT * FROM donate")
        assert len(result) == 1
        assert node.rejected_transactions == [forged]

    def test_create_index_authenticated(self):
        node = self.make_node()
        node.insert("donate", ("J", 1.0))
        index = node.create_index("amount", table="donate",
                                  authenticated=True)
        from repro.mht.mbtree import MBTree

        bid = next(iter(index.first_level_bitmap()))
        assert isinstance(index.tree(bid), MBTree)

    def test_chain_verifies(self):
        from repro.model import verify_chain

        node = self.make_node()
        for i in range(7):
            node.insert("donate", (f"d{i}", float(i)))
        assert verify_chain(node.store.iter_blocks())


class TestAccessControl:
    def make(self) -> AccessController:
        access = AccessController()
        access.create_channel(
            "private", members={"alice"}, tables={"secret"},
        )
        return access

    def test_member_allowed(self):
        access = self.make()
        access.check_read("alice", "secret")
        access.check_write("alice", "secret")

    def test_non_member_denied(self):
        access = self.make()
        with pytest.raises(AccessDenied):
            access.check_read("bob", "secret")

    def test_unprotected_table_open(self):
        access = self.make()
        access.check_read("bob", "public_table")

    def test_capability_scoping(self):
        access = AccessController()
        access.create_channel("ro", members={"bob"}, tables={"t"},
                              capabilities={"read"})
        access.check_read("bob", "t")
        with pytest.raises(AccessDenied):
            access.check_write("bob", "t")

    def test_add_remove_member(self):
        access = self.make()
        access.add_member("private", "bob")
        access.check_read("bob", "secret")
        access.remove_member("private", "bob")
        with pytest.raises(AccessDenied):
            access.check_read("bob", "secret")

    def test_duplicate_channel_rejected(self):
        access = self.make()
        with pytest.raises(AccessDenied):
            access.create_channel("private")

    def test_unknown_channel(self):
        access = self.make()
        with pytest.raises(AccessDenied):
            access.add_member("ghost", "x")

    def test_can_read_predicate(self):
        access = self.make()
        assert access.can_read("alice", "secret")
        assert not access.can_read("bob", "secret")

    def test_node_enforces_write_access(self):
        access = AccessController()
        access.create_channel("ch", members={"org1"}, tables={"donate"})
        node = FullNode("n0", access=access)
        node.catalog.register(
            TableSchema.create("donate", [("donor", "string"),
                                          ("amount", "decimal")])
        )
        node.insert("donate", ("J", 1.0), sender="org1")  # member: fine
        with pytest.raises(AccessDenied):
            node.insert("donate", ("J", 1.0), sender="intruder")


class TestChannelScopedReads:
    """``query(..., channel_member=m)`` admits a read only when ``m`` may
    read every table the statement touches."""

    def make_access(self) -> AccessController:
        access = AccessController()
        access.create_channel("private", members={"alice"}, tables={"secret"})
        return access

    def load(self, node) -> None:
        node.create_table("CREATE secret (v int)")
        node.create_table("CREATE open (v int)")
        node.insert("secret", (1,), sender="alice")
        node.insert("open", (2,), sender="bob")

    def full_node(self) -> FullNode:
        node = FullNode("n0", access=self.make_access())
        self.load(node)
        return node

    def test_member_reads_protected_table(self):
        node = self.full_node()
        result = node.query("SELECT v FROM secret", channel_member="alice")
        assert result.rows == [(1,)]

    def test_non_member_is_denied(self):
        node = self.full_node()
        with pytest.raises(AccessDenied):
            node.query("SELECT v FROM secret", channel_member="bob")

    def test_unprotected_table_stays_readable(self):
        node = self.full_node()
        result = node.query("SELECT v FROM open", channel_member="bob")
        assert result.rows == [(2,)]

    def test_explain_is_checked_like_the_statement_it_wraps(self):
        node = self.full_node()
        with pytest.raises(AccessDenied):
            node.query("EXPLAIN SELECT v FROM secret", channel_member="bob")
        assert node.query(
            "EXPLAIN SELECT v FROM secret", channel_member="alice"
        ).rows

    def test_two_shard_node_checks_reads_too(self):
        from repro.common.config import SebdbConfig
        from repro.shard import ShardedNode

        node = ShardedNode(
            "s0", config=SebdbConfig.in_memory(num_shards=2),
            access=self.make_access(),
        )
        self.load(node)
        assert node.query(
            "SELECT v FROM secret", channel_member="alice"
        ).rows == [(1,)]
        assert node.query(
            "SELECT v FROM open", channel_member="bob"
        ).rows == [(2,)]
        with pytest.raises(AccessDenied):
            node.query("SELECT v FROM secret", channel_member="bob")
        with pytest.raises(AccessDenied):
            node.query("EXPLAIN SELECT v FROM secret", channel_member="bob")


class TestSmartContracts:
    def make_node(self) -> FullNode:
        node = FullNode("n0")
        node.create_table(
            TableSchema.create("donate", [("donor", "string"),
                                          ("amount", "decimal")])
        )
        node.create_table(
            TableSchema.create("distribute", [("donee", "string"),
                                              ("amount", "decimal")])
        )
        return node

    def test_simple_contract(self):
        node = self.make_node()
        runtime = ContractRuntime(node)
        contract = SmartContract(
            name="record_donation",
            params=("donor", "amount"),
            steps=("INSERT INTO donate VALUES (:donor, :amount)",),
        )
        runtime.deploy(contract)
        runtime.invoke("record_donation", ("Jack", 75.0))
        result = node.query("SELECT * FROM donate WHERE donor = 'Jack'")
        assert len(result) == 1 and result.transactions[0].values[1] == 75.0

    def test_foreach_contract(self):
        node = self.make_node()
        for i in range(3):
            node.insert("donate", (f"donor{i}", 100.0))
        runtime = ContractRuntime(node)
        contract = SmartContract(
            name="match_donations",
            params=("bonus",),
            steps=(
                ForEach(
                    query="SELECT donor FROM donate",
                    template="INSERT INTO distribute VALUES (:donor, :bonus)",
                ),
            ),
        )
        runtime.deploy(contract)
        executed = runtime.invoke("match_donations", (10.0,))
        assert executed == 3
        assert len(node.query("SELECT * FROM distribute")) == 3

    def test_wrong_arity(self):
        node = self.make_node()
        runtime = ContractRuntime(node)
        runtime.deploy(SmartContract("c", ("a",), ("GET BLOCK ID = :a",)))
        with pytest.raises(ContractError):
            runtime.invoke("c", (1, 2))

    def test_unknown_contract(self):
        runtime = ContractRuntime(self.make_node())
        with pytest.raises(ContractError):
            runtime.invoke("ghost", ())

    def test_unbound_parameter(self):
        node = self.make_node()
        runtime = ContractRuntime(node)
        runtime.deploy(
            SmartContract("c", (), ("INSERT INTO donate VALUES (:who, 1.0)",))
        )
        with pytest.raises(ContractError):
            runtime.invoke("c", ())

    def test_sql_injection_via_string_param_is_safe(self):
        node = self.make_node()
        runtime = ContractRuntime(node)
        runtime.deploy(
            SmartContract("c", ("donor",),
                          ("INSERT INTO donate VALUES (:donor, 1.0)",))
        )
        evil = "x', 999.0); INSERT INTO donate VALUES ('pwned"
        runtime.invoke("c", (evil,))
        rows = node.query("SELECT * FROM donate")
        assert len(rows) == 1          # exactly one insert happened
        assert rows.transactions[0].values[0] == evil

    def test_duplicate_deploy_rejected(self):
        runtime = ContractRuntime(self.make_node())
        contract = SmartContract("c", (), ())
        runtime.deploy(contract)
        with pytest.raises(ContractError):
            runtime.deploy(contract)


class TestSebdbNetworkFacade:
    def test_single_node_roundtrip(self):
        net = SebdbNetwork.single_node()
        net.execute("CREATE t (a string, b int)")
        net.execute("INSERT INTO t VALUES ('x', 1)")
        net.execute("INSERT INTO t VALUES ('y', 2)")
        net.commit()
        assert len(net.execute("SELECT * FROM t")) == 2

    def test_pending_batched_into_one_block(self):
        net = SebdbNetwork.single_node()
        net.execute("CREATE t (a int)")
        height_before = net.height()
        for i in range(5):
            net.execute(f"INSERT INTO t VALUES ({i})")
        net.commit()
        assert net.height() == height_before + 1  # one block for all 5

    @pytest.mark.parametrize("consensus", ["kafka", "pbft", "tendermint"])
    def test_multi_node_consistency(self, consensus):
        net = SebdbNetwork(num_nodes=4, consensus=consensus, batch_txs=8,
                           timeout_ms=30)
        net.execute("CREATE t (a int)")
        for i in range(21):
            net.execute(f"INSERT INTO t VALUES ({i})")
        net.commit()
        assert net.chains_consistent()
        for node_index in range(4):
            result = net.execute("SELECT * FROM t", node=node_index)
            assert len(result) == 21

    def test_unknown_consensus_rejected(self):
        from repro.common.errors import ConfigError

        with pytest.raises(ConfigError):
            SebdbNetwork(consensus="paxos")

    def test_attach_offchain(self):
        from repro.offchain import OffChainDatabase

        net = SebdbNetwork.single_node()
        net.execute("CREATE distribute (donee string, amount decimal)")
        net.execute("INSERT INTO distribute VALUES ('tom', 5.0)")
        net.commit()
        db = OffChainDatabase()
        db.create_table("info", [("donee", "string"), ("name", "string")])
        db.insert("info", [("tom", "Tom")])
        net.attach_offchain(db)
        result = net.execute(
            "SELECT * FROM onchain.distribute, offchain.info "
            "ON distribute.donee = info.donee"
        )
        assert len(result) == 1
