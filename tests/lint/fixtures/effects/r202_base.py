"""R202 fixture, base half: the entry lives here and the base
implementation's core saves each pre-image before it writes, so the
reference backend alone is clean."""


class BaseTree:
    def __init__(self):
        self._journal = None
        self.left = {}

    def batch_link(self, edges):
        return self._link_core(list(edges))

    def _link_core(self, edges):
        for u, v in edges:
            self._journal.record(u, self.left.get(u))
            self.left[u] = v
        return len(edges)
