"""Set-up probe, run as a fresh process by ``run.py``.

Usage: ``setup_probe.py SRC LOGIC[,LOGIC...] [SPANS_FILE]``

Imports ``trivalent`` from SRC, looks up every named logic and builds its
rule catalog, then prints ``ready``.  With SPANS_FILE, the loading of the
registry, the tables and the catalogs is traced and the spans are
written there first.
"""
import sys

src, names = sys.argv[1], sys.argv[2].split(",")
spans_file = sys.argv[3] if len(sys.argv) > 3 else None
sys.path.insert(0, src)

import trivalent  # noqa: E402

if spans_file:
    import spans

    tracer = spans.Tracer()
    spans.install(tracer, setup=True)
for name in names:
    trivalent.catalog(trivalent.lookup_logic(name))
if spans_file:
    tracer.dump(spans_file)
print("ready", flush=True)
