"""Start the span tracer in every interpreter that has this directory on
PYTHONPATH and PERFBENCH_TRACE_DIR set.

Python imports ``sitecustomize`` at start-up, so the tracer is in place
before any ``uniboost`` module loads. That covers each CLI process the
benchmark launches and any worker process those commands start.
"""

import os

if os.environ.get("PERFBENCH_TRACE_DIR"):
    import perfbench_tracer

    perfbench_tracer.install(os.environ["PERFBENCH_TRACE_DIR"])
