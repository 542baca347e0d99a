"""Known-good query-boundary fixture: zero diagnostics expected."""


class Leaf:
    def rows(self):
        block = self.scanner.read_block(3)
        yield from self.scanner.read_positions(3, [2, 0])
        yield from self.scanner.scan_block(3, ("donate",))
        del block


def build(store, tracker):
    scanner = store.scanner(tracker)
    t = store.cost.tracker()
    h = store.height
    return scanner, t, h
