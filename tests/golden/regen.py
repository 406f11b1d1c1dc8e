"""Rewrite the golden files that tests/test_cli.py compares whole replies
with, from the same pinned runs (test_cli.PINNED_RUNS):

    python tests/golden/regen.py

Each file is the stdout of its runs, with the temporary directory written as
<tmp>; the script prints the name of each file whose bytes it changed. A
change that re-records lists each changed file and why it changed in
CHANGES.md. Importing this module runs nothing.
"""

import sys
from pathlib import Path


def main() -> None:
    tests = Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(tests.parent / "src"), str(tests)]
    import test_cli

    for runs in test_cli.PINNED_RUNS:
        for name, (_, out, _) in test_cli.pinned_replies(runs):
            path = test_cli.GOLDEN / name
            if not path.exists() or path.read_bytes() != out.encode():
                path.write_bytes(out.encode())
                print(f"re-recorded {name}")


if __name__ == "__main__":
    main()
