"""One tubewalk CLI invocation, as the ``tubewalk`` console script runs it.

Usage: python3 child.py SIDECAR TRACE CLI_ARG...

Runs ``tubewalk.cli.main(CLI_ARG...)`` and exits with its code.  It also
notes the ``time.monotonic()`` instant at which the config has been
validated (the end of set-up), and with TRACE=1 records spans around the
calls into each layer.  Both are written as JSON to SIDECAR when the
process ends.  ``time.monotonic`` reads the system-wide monotonic clock,
so the parent can subtract its own spawn instant.
"""

import json
import sys
import time


def main(argv) -> int:
    sidecar, trace, cli_args = argv[0], argv[1] == "1", argv[2:]
    t0 = time.perf_counter()
    import tubewalk.cli as cli

    import_s = time.perf_counter() - t0
    info = {"import_s": import_s, "setup_done": None, "spans": None}
    validate = cli.validate

    def marked_validate(raw):
        cfg = validate(raw)
        info["setup_done"] = time.monotonic()
        return cfg

    cli.validate = marked_validate
    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    try:
        return cli.main(cli_args)
    finally:
        if tracer is not None:
            info["spans"] = tracer.spans
        with open(sidecar, "w", encoding="utf-8") as fh:
            json.dump(info, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
