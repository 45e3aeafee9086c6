"""Start a traced hcc child: python3 cli_entry.py SPANS_FILE HCC_ARGS...

Records a start-up span from the parent's clock reading at spawn
(PERFBENCH_SPAWN) until `hopfcyclic.cli` is imported, installs the same
wrappers as the parent, runs the command, and writes its spans and counters
to SPANS_FILE for the parent to merge.  Standard output is the command's own.
"""

import json
import os
import sys
import time

spawned = float(os.environ["PERFBENCH_SPAWN"])
import hopfcyclic.cli  # noqa: E402  (the import is what start-up measures)

imported = time.monotonic()

from tracer import STARTUP, Tracer  # noqa: E402

tracer = Tracer()
tracer.install()
tracer.add_span(STARTUP, spawned, imported)
try:
    code = hopfcyclic.cli.main(sys.argv[2:])
finally:
    with open(sys.argv[1], "w", encoding="utf-8") as out:
        json.dump(tracer.dump(), out)
sys.exit(code)
