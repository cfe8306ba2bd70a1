"""Time sawlab's set-up in a fresh process.

Usage: python3 setup_probe.py SRC_DIR MODELS_JSON

MODELS_JSON is a list of [model, with_height] pairs. The CPU clock of
this process starts before `import sawlab`, then every model is resolved
and, where asked, its default height too (which runs increase_repair or
choose_ghf). Prints the CPU seconds (user + system) this took.
"""

import json
import sys
import time

src, models = sys.argv[1], json.loads(sys.argv[2])
t0 = time.process_time()
sys.path.insert(0, src)
from sawlab import cli, graphs  # noqa: E402

for model, with_height in models:
    g = graphs.resolve_model(model)
    if with_height:
        cli.resolve_height(g, None, model)
print(repr(time.process_time() - t0))
