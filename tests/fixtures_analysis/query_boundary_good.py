"""Known-good query-boundary fixture: zero diagnostics expected."""


class Leaf:
    def rows(self):
        block = self.scanner.read_block(3)
        read, tracker = self.scanner.positional_read()
        yield from read(3, [2, 0], tracker)
        yield from self.scanner.scan_block(3, ("donate",))
        del block


def build(store, tracker):
    scanner = store.scanner(tracker)
    t = store.cost.tracker()
    h = store.height
    return scanner, t, h
