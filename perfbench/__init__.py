"""End-to-end benchmark of the containment service and the graph library.

Run ``python3 perfbench/run.py --help`` from the repository root; see
``perfbench/README.md`` for the workloads, metrics and traced run.
"""
