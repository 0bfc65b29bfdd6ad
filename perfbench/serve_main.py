"""``repro serve`` under the benchmark's tracer, for the traced run only.

    python3 perfbench/serve_main.py TOTALS.json serve --port 0

Installs the same entry-point wrappers and GC accounting as the
in-process workloads and runs the ordinary ``repro`` command line.  Two
signals bracket the measured requests, and are sent when none is in
flight: SIGUSR1 drops everything recorded so far (boot and warm-up) and
SIGUSR2 writes the span and count totals since then to TOTALS.json, so
the requests after it (the final checks) are left out.  Each signal is
acknowledged by rewriting TOTALS.json with its ``phase``.  Work the
daemon ships to its pool workers runs in other processes and is not
traced.
"""

import json
import os
import signal
import sys

from tracing import Tracer, layer_metrics


def _write(path, payload):
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(payload, fh)
    os.replace(tmp, path)


def main(argv):
    from repro.__main__ import main as repro_main

    out = argv[0]
    tracer = Tracer()

    def start(signum, frame):
        tracer.reset()
        _write(out, {"phase": "started"})

    def stop(signum, frame):
        # every span carries op None: one "operation" gives totals
        _write(out, {"phase": "stopped", "totals": layer_metrics(tracer, {None})})

    signal.signal(signal.SIGUSR1, start)
    signal.signal(signal.SIGUSR2, stop)
    tracer.install()
    try:
        return repro_main(argv[1:])
    finally:
        tracer.uninstall()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
