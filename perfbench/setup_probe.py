"""Time ballwalk's set-up in this fresh interpreter: import, parse, one tiny call.

Usage: python3 perfbench/setup_probe.py SRC_DIR CLI_ARG...
Prints one JSON line: {"setup_s": seconds, "code": exit code of the call}.
"""

import contextlib
import io
import json
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from ballwalk import cli  # noqa: E402  (the import is what is being timed)

with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[2:])
print(json.dumps({"setup_s": time.perf_counter() - t0, "code": code}))
