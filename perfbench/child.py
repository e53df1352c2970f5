"""Child processes of the benchmark; run.py starts them with a pinned environment.

    python perfbench/child.py setup WORKLOAD SEED
        Import the package and build an in-process workload's state, as a
        fresh process would; print {"import_s": ..., "setup_s": ...}.

    python perfbench/child.py verify
        The traced verify-cold op: install the spans, call
        ``avchow.cli.main(["verify", "--scope", "all"])`` and print one
        JSON object with its exit status, its standard output and the
        span totals.
"""

import io
import json
import sys
from contextlib import redirect_stdout
from time import perf_counter


def setup(workload, seed):
    start = perf_counter()
    import avchow  # noqa: F401

    import_s = perf_counter() - start
    import workloads

    workloads.IN_PROCESS[workload](seed)
    return {"import_s": import_s, "setup_s": perf_counter() - start}


def traced_verify():
    start = perf_counter()
    import avchow  # noqa: F401

    import_s = perf_counter() - start
    import avchow.cli
    import spans

    tracer = spans.Tracer()
    tracer.install()
    captured = io.StringIO()
    with redirect_stdout(captured):
        status = avchow.cli.main(["verify", "--scope", "all"])
    return {"import_s": import_s, "exit": status, "stdout": captured.getvalue(), "totals": tracer.totals()}


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        result = setup(sys.argv[2], int(sys.argv[3]))
    else:
        result = traced_verify()
    print(json.dumps(result))
