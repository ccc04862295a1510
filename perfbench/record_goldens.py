"""Record the cli-cold goldens from the program in this checkout's src/.

    python3 perfbench/record_goldens.py

Only rerun this when a change is meant to alter the CLI's output, and say
which fields changed and why.
"""

import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from clicold import GOLDEN_DIR, record_goldens  # noqa: E402

if __name__ == "__main__":
    workdir = ROOT / ".perfbench_out" / "record-goldens"
    try:
        record_goldens(ROOT / "src", workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"wrote {len(list(GOLDEN_DIR.glob('*.json')))} goldens to {GOLDEN_DIR}")
