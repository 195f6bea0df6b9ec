"""One benchmark set-up in a fresh process: import the CLI, write the specs.

Usage: ``python3 perfbench/prepare.py WORKLOAD SEED OUTDIR``, run from
the repository root. Prints one JSON line with the import time of
``realcalc.cli`` and the sha256 of the spec bytes, then exits.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    workload, seed, out = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import realcalc.cli  # noqa: F401  (the import is what is timed)

    import_s = time.perf_counter() - t0
    import gen

    manifest = gen.write_specs(workload, seed, ROOT, out)
    print(json.dumps({"import_s": import_s, "spec_sha256": manifest["spec_sha256"]}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
