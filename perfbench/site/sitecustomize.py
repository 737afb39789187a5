"""Installs the benchmark's timing wrappers in a traced server's processes.

Only the traced run puts this directory on the server's ``PYTHONPATH``,
together with ``PERFBENCH_TRACE_DIR``.  Python imports it at start-up in
the server, its forkserver and (by inheritance) every pool worker.
"""

import os
import sys

_directory = os.environ.get("PERFBENCH_TRACE_DIR")
if _directory:
    _root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    sys.path.insert(0, _root)
    try:
        from perfbench import tracing

        tracing.install(_directory, server=True)
    finally:
        sys.path.remove(_root)
