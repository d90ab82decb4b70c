"""Benchmark worker: runs CLI jobs in this process, one at a time, on request.

Started by ``run.py``; it speaks one JSON object per line.  It first writes
``{"ready": true}`` once ``relbelief.cli`` is imported.  Then, for each
``{"argv": [...]}`` it reads, it calls ``relbelief.cli.main(argv)`` and
answers with the exit code, wall and CPU seconds of the call, and the
traceback of any exception.  ``{"finish": PATH}`` ends the session: the
answer carries the process's peak RSS and, with ``--trace``, the per-layer
metrics, after the spans are written to PATH.  With ``--probe`` the worker
exits right after ``ready``; the set-up time is measured that way.
"""

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def main():
    proto = sys.stdout
    sys.stdout = sys.stderr  # anything the program prints stays off the protocol channel
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from relbelief import cli

    proto.write('{"ready": true}\n')
    proto.flush()
    if "--probe" in sys.argv:
        return
    tracer = None
    if "--trace" in sys.argv:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    for line in sys.stdin:
        request = json.loads(line)
        if "finish" in request:
            layers = tracer.finish(request["finish"]) if tracer else None
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            proto.write(json.dumps({"peak_rss_kb": peak_kb, "layers": layers}) + "\n")
            proto.flush()
            return
        if tracer:
            tracer.job += 1
        error = None
        cpu0, wall0 = time.process_time(), time.perf_counter()
        try:
            code = cli.main(request["argv"])
        except Exception:  # a crashing job is reported as a failure, and the loop goes on
            code, error = None, traceback.format_exc(limit=-3)
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        proto.write(json.dumps({"code": code, "wall_s": wall, "cpu_s": cpu, "error": error}) + "\n")
        proto.flush()


if __name__ == "__main__":
    main()
