"""Child-process entry points of the benchmark.

``child.py setup --workload W --seed N``
    Time, in a fresh process, the import of qnlse and the building of the
    workload's inputs; print ``{"import_s": ..., "setup_s": ...}``.

``child.py cli --trace-out PATH -- ARGS...``
    Run ``qnlse ARGS...`` with the tracer installed, write the trace
    aggregates to PATH and exit with the command's exit code.

Both expect ``PYTHONPATH`` to hold the package's ``src`` directory.
"""

import json
import sys
import time
from pathlib import Path


def setup(workload: str, seed: int) -> None:
    start = time.perf_counter()
    import qnlse.cli  # noqa: F401  (the import is what is timed)

    import_s = time.perf_counter() - start
    from workloads import WORKLOADS  # the benchmark's own modules: not timed

    start = time.perf_counter()
    WORKLOADS[workload](seed, Path(__file__).resolve().parent / "work").build_inputs()
    build_s = time.perf_counter() - start
    print(json.dumps({"import_s": import_s, "setup_s": import_s + build_s}))


def traced_cli(trace_out: str, args) -> int:
    import qnlse.cli
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return qnlse.cli.main(args)
    finally:
        tracer.uninstall()
        Path(trace_out).write_text(json.dumps(tracer.snapshot()), encoding="utf-8")


def main(argv) -> int:
    if len(argv) == 5 and argv[0] == "setup" and argv[1] == "--workload" and argv[3] == "--seed":
        setup(argv[2], int(argv[4]))
        return 0
    if len(argv) >= 4 and argv[0] == "cli" and argv[1] == "--trace-out" and argv[3] == "--":
        return traced_cli(argv[2], argv[4:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
