"""Known-bad query-boundary fixture: all seven bodies below are flagged."""


class Op:
    def run(self):
        return self._store.read_transaction(1, 2)  # BAD: bypasses scanner


def scan(store):
    return store.read_block(0)  # BAD: bare-name receiver, same bypass


def filtered(store):
    return store.scan_block(0, ("donate",))  # BAD: the filtered read, same bypass


def positions(store):
    return list(store.read_positions(0, [2, 0]))  # BAD: the positional read, same bypass


def records(store):
    return store.read_records(0)  # BAD: the undecoded whole-block read, same bypass


def shipped(store):
    return store.read_records_at(0, [1])  # BAD: the undecoded point read, same bypass


def peek(store):
    return store._blocks  # BAD: private BlockStore attribute
