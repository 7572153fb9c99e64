"""Run the otce CLI with layer spans and write the spans to a JSON file.

Usage: python3 perfbench/cli_trace.py SPANS_JSON <otce arguments...>

The CLI's stdout, stderr and exit code are passed through unchanged.
"""

import json
import sys
from pathlib import Path

import tracing


def main() -> int:
    spans_path, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.enabled = True
    code = 0
    try:
        with tracer.span("cli.import"):
            import otce.cli
        tracing.install(tracer, tracing.LIBRARY_CALL_SITES + tracing.CLI_CALL_SITES)
        with tracer.span("cli.main"):
            otce.cli.main(argv, prog_name="otce")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        spans_path.write_text(json.dumps([span.to_json() for span in tracer.spans]))
    return code


if __name__ == "__main__":
    sys.exit(main())
