"""Object-state reference implementations for differential tests.

Production code in :mod:`repro` runs every automaton and graph-evaluation
hot path on the integer-indexed bitset kernels of
:mod:`repro.automata.indexed` and :mod:`repro.graphdb.snapshot`.  The
modules here keep the straightforward dict-and-frozenset versions of the
same operations, written directly from the textbook constructions, so
the test suite can hold the kernels to them:

- :mod:`tests.oracles.automata` — subset construction, Hopcroft
  minimization, product, trim, shortest word, epsilon elimination, the
  materialized Lemma 1 containment pipeline, and the object-tuple BFS
  for on-the-fly product emptiness over implicit machines;
- :mod:`tests.oracles.evaluation` — per-source product BFS for 2RPQ
  evaluation and witness semipaths, and UC2RPQ evaluation built on it.

Nothing under ``src/`` imports this package.
"""
