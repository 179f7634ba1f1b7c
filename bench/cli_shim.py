"""Run factorlab's command line with the benchmark's tracer installed.

Usage: python cli_shim.py TRACE_FILE [factorlab arguments...]

Writes the process's span totals and its start, import and command times
(``time.monotonic``, which is comparable across processes) to TRACE_FILE.
"""

import json
import sys
import time

start = time.monotonic()
import factorlab.cli  # noqa: E402

imported = time.monotonic()
from tracing import Tracer, install  # noqa: E402

tracer = install(Tracer())
t0 = time.monotonic()
try:
    code = factorlab.cli.main(sys.argv[2:])
except SystemExit as exc:
    code = exc.code
finally:
    main_s = time.monotonic() - t0
    tracer.uninstall()
    with open(sys.argv[1], "w", encoding="utf-8") as handle:
        json.dump({"start": start, "imported": imported, "main_s": main_s,
                   "stats": tracer.stats, "counts": tracer.counts}, handle)
sys.exit(code)
