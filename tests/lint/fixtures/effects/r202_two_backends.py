"""R202 fixture, callback edges: two backends hand their batch cores to
one shared runner.  Only ``FlatBackend._fast_core`` stores without a
pre-image, and only ``FlatBackend.batch_link`` can run it; the plant must
be reported via that entry, never via ``RefBackend.batch_link`` and the
runner."""


def run_batch(tree, edges, apply):
    return apply(list(edges))


class RefBackend:
    def __init__(self):
        self._journal = None
        self.left = {}

    def batch_link(self, edges):
        return run_batch(self, edges, self._slow_core)

    def _slow_core(self, edges):
        for u, v in edges:
            self._journal.record(u, self.left.get(u))
            self.left[u] = v


class FlatBackend:
    def __init__(self):
        self.left = {}

    def batch_link(self, edges):
        return run_batch(self, edges, self._fast_core)

    def _fast_core(self, edges):
        for u, v in edges:
            self.left[u] = v  # planted: unjournaled column store
