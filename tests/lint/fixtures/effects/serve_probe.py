"""Planted fixture: a quarantine-style prober.

``bisect`` is registered as a *module-level* entry point (empty
``class_name``), which the effects pass resolves like a method entry.
Two findings are planted:

* ``probe``'s broad except swallows the taxonomy (R204) — an
  outcome-classification boundary carries an allowlist justification
  for exactly this shape; the fixture test checks the finding fires
  *without* the allowlist and is dropped *with* it.
* ``probe`` mutates the ``parent`` column with no seam on the path
  from ``bisect`` (R202): a probe that commits instead of rolling
  back.
"""


def bisect(tree, payload):
    good = []
    for i, entry in enumerate(payload):
        if probe(tree, entry):
            good.append(i)
    return good


def probe(tree, entry):
    try:
        tree.parent[entry[0]] = entry[1]
        return True
    except Exception:
        return False
