"""Known-bad query-boundary fixture: all three bodies below are flagged."""


class Op:
    def run(self):
        return self._store.read_transaction(1, 2)  # BAD: bypasses scanner


def scan(store):
    return store.read_block(0)  # BAD: bare-name receiver, same bypass


def peek(store):
    return store._blocks  # BAD: private BlockStore attribute
