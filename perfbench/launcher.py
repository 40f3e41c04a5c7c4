"""Traced start of one `wyinfo` CLI call.

    python3 launcher.py TRACE_FILE CLI_ARGS...

Imports ``wyinfo.cli`` (timing the import), installs the benchmark's
wrappers, runs ``wyinfo.cli.main(CLI_ARGS)`` and writes its spans and totals
to TRACE_FILE.  Exits with the CLI's exit code.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    trace_file, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import wyinfo.cli
    import_s = time.perf_counter() - t0
    sys.path.insert(0, HERE)
    import tracing

    tracer = tracing.Tracer()
    tracer.import_s = import_s
    restore = tracing.install(tracer)
    try:
        code = wyinfo.cli.main(argv)
    finally:
        restore()
        sys.stdout.flush()
        tracer.dump(trace_file)
    return code


if __name__ == "__main__":
    sys.exit(main())
