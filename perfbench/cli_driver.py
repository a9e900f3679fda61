"""Traced CLI process: ``cli_driver.py SPANS_FILE ARG...``

Does what ``python -m trivalent.cli ARG...`` does, with the benchmark's
span wrappers installed and ``cli.run`` inside a span of its own; the
spans are written to SPANS_FILE before the process exits.  Expects
``trivalent`` on PYTHONPATH.
"""
import sys

import spans
from trivalent import cli

tracer = spans.Tracer()
spans.install(tracer)
run = tracer.wrap("cli.run", cli.run)
try:
    code = run(sys.argv[2:])
finally:
    tracer.dump(sys.argv[1])
sys.exit(code)
