"""Score one FTRS pair with f-otce and print the value and Sinkhorn time.

Usage: OPENBLAS_NUM_THREADS=1 python3 perfbench/one_thread.py SOURCE TARGET

Prints one JSON line: the score as a float hex string (for a bitwise
comparison with another thread count) and the Sinkhorn time in ms.
"""

import json
import sys

import tracing
from otce import f_otce, read_feature_file


def main() -> None:
    src, tgt = (read_feature_file(path) for path in sys.argv[1:3])
    tracer = tracing.Tracer()
    tracer.enabled = True
    tracing.install(tracer, tracing.LIBRARY_CALL_SITES)
    value = f_otce(src, tgt).value
    sinkhorn_ns = sum(s.end - s.start for s in tracer.spans if s.name == "ot.sinkhorn")
    print(json.dumps({"value": value.hex(), "sinkhorn_ms": sinkhorn_ns / 1e6}))


if __name__ == "__main__":
    main()
