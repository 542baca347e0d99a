class Base:
    def __init__(self, size, limit=8):
        self.size = size
        self.limit = limit


class Engine(Base):
    def __init__(self, size, depth=2, mode="fast", verbose=False):
        super().__init__(size)
        self.depth = depth
        self.mode = mode
        self.verbose = verbose

    @classmethod
    def small(cls):
        return cls(1)

    def run(self):
        return self.size * self.depth

    def orphan(self):
        return self.mode


def open_engine(**options):
    return Engine(**options)
