"""Replay the golden CLI cases that need no numpy, under the running interpreter.

Every case of `golden_cases.GOLDEN_CASES` runs with numpy blocked, and its
output is compared with `cli_golden.json`. A case of `sample` or `simulate`,
the commands that draw random numbers, is skipped when it reaches numpy; a
usage error of theirs ends before that and is replayed. Any other case that
reaches numpy is a failure. Stdlib only, so it runs unchanged on every
interpreter that `requires-python` admits:

    python3.10 tests/replay_golden.py

It prints one line per differing case and a summary, and exits 1 on a
difference.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

sys.path.append(str(Path(__file__).resolve().parents[1] / "src"))
sys.modules["numpy"] = None  # an import of numpy now raises ImportError

from golden_cases import GOLDEN_CASES, GOLDEN_FILE, golden_output  # noqa: E402

NUMPY_COMMANDS = ("sample", "simulate")


def main() -> int:
    expected = json.loads(GOLDEN_FILE.read_text(encoding="utf-8"))
    replayed, skipped, differ = 0, 0, []
    with tempfile.TemporaryDirectory() as tmp:
        for case, argv in GOLDEN_CASES.items():
            try:
                output = golden_output(case, Path(tmp))
            except ImportError:
                if argv[0] not in NUMPY_COMMANDS:
                    raise
                skipped += 1
                continue
            replayed += 1
            if output != expected[case]:
                differ.append(case)
                print(f"differs: {case}")
    version = ".".join(map(str, sys.version_info[:3]))
    print(f"Python {version}: {replayed} replayed, {len(differ)} differ, "
          f"{skipped} skipped for numpy")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
