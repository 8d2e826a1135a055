"""Empty module, kept only for the benchmark harness.

The benchmark's module-to-layer map (``RULES`` in ``bench/layers.py``)
still names this module path, and the harness's own test requires
every path it names to exist.  No code lives here and nothing imports
it.  Delete this file together with that ``RULES`` entry.
"""
