"""``python -m ledger run|compare …`` — see ``ledger/README.md``."""

import os
import sys

# String hashes decide dict probe sequences and set iteration order, and a
# different random hash seed moves a whole run by a few percent.  Pin it
# (children inherit the environment) before anything is imported.
if os.environ.get("PYTHONHASHSEED") != "0":
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable, "-m", "ledger", *sys.argv[1:]])

# The program under test lives in ``src/`` next to this package; in a tree
# without it the import of ``repro`` below fails and the command exits non-zero.
sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from ledger.cli import main  # noqa: E402 - after the path is set

if __name__ == "__main__":
    sys.exit(main())
