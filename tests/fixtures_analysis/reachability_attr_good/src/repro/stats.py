class Histogram:
    def __init__(self, bounds):
        self._bounds = list(bounds)

    @property
    def bounds(self):
        return list(self._bounds)

    def bucket_of(self, value):
        bounds = self.bounds  # the property, read as an attribute
        return sum(1 for bound in bounds if bound < value)
