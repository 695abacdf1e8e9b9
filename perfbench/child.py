"""Traced ``repro-si`` process: ``python3 child.py TRACE_DIR ARGS...``.

Runs ``repro.cli.main(ARGS)`` exactly as the ``repro-si`` entry point
does, with the probes of ``probes.py`` installed.  The process writes
``TRACE_DIR/spans-<pid>.json`` when ``main`` returns; batch workers it
forks write their own file when they exit.
"""

import time

_STARTED = time.perf_counter()

import sys  # noqa: E402

from spans import SpanRecorder  # noqa: E402


def main(argv) -> int:
    trace_dir, cli_args = argv[0], argv[1:]
    recorder = SpanRecorder()
    recorder.started = _STARTED
    with recorder.span("import"):
        import repro.cli
        import probes

        probes.install(recorder)
    recorder.dump_in_forked_children(trace_dir)
    try:
        code = repro.cli.main(cli_args)
    finally:
        sys.stdout.flush()
        recorder.dump(trace_dir)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
