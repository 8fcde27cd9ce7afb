"""Start ``python -m repro <args>`` with the traced-pass wrappers on.

The traced pass starts the serve daemon and the dist worker through this
file instead of ``-m repro`` so that their spans are recorded with the
same patch points as the benchmark child's (layers.py) and written, at
exit, into the directory named by ``E2E_SPANS_DIR``.  ``DistSweep.stop``
ends its workers with SIGTERM, which skips ``atexit`` unless it is turned
into a normal exit first.
"""

import atexit
import os
import signal
import sys

import layers


def main() -> int:
    recorder = layers.Recorder(os.environ.get(layers.PREFIX_ENV, ""))
    with recorder.span("proc.import"):   # most of a sub-process's boot
        layers.install(recorder)
    atexit.register(recorder.dump, os.environ[layers.SPANS_ENV])
    if sys.argv[1:2] != ["serve"]:  # the daemon drains on SIGTERM itself
        signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    from repro.__main__ import main as repro_main

    with recorder.span(f"proc.repro_{sys.argv[1]}"):
        return repro_main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
