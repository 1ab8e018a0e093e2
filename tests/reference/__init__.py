"""Pinned slow references for production fast paths.

Each module keeps the straightforward implementation a fast path replaced,
so the equivalence tests can compare the two.  Nothing under ``src/``
imports from here.
"""
