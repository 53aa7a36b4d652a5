"""Set-up probe: import ``freesum.cli`` and validate configs read from stdin.

Every ``freesum`` invocation pays this before it computes anything.  The
parent times this process from spawn to exit.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import freesum.cli as cli  # noqa: E402

for config in json.load(sys.stdin):
    # validation without execution; run() would also execute the config
    cli._validate(config, json.dumps(config), "<benchmark>")
