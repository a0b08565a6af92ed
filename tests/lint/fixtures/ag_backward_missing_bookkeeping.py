# lint-fixture-module: repro.nn.fixture
"""backward closures must be wired into the graph via _record."""

from repro.nn.tensor import _record


class FixtureTensor:
    def wired(self, other):
        na, nb = self._node, other._node

        def backward(grad):
            na.accumulate(grad)

        return _record(self.data + other.data, (na, nb), backward)

    def dead_closure(self, other):
        out_data = self.data + other.data

        def backward(grad):  # BAD
            self._node.accumulate(grad)

        return FixtureTensor(out_data)

    def records_something_else(self, other):
        na = self._node

        def backward(grad):  # BAD
            na.accumulate(grad)

        return _record(self.data * other.data, (na,), na.backward)

    def keyword_wired(self, other):
        nb = other._node

        def backward(grad):
            nb.accumulate(grad)

        return _record(self.data * other.data, parents=(None, nb), backward=backward)
