"""Planted fixture: a pinned-read entry point whose duck-typed fold
call also resolves to a live-structure fold that writes two columns
with no seam on the path (R202).  Both findings share one owner, so
the pass must order them without comparing effect atoms blindly."""


class MiniReadShard:
    def read(self, reader, i, j):
        return reader.span_fold(i, j)


class LiveTree:
    def __init__(self):
        self.parent = {}
        self.left = {}

    def span_fold(self, i, j):
        self.parent[i] = j
        self.left[j] = i
        return i + j
