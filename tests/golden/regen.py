"""Regenerate the golden reports under tests/golden/.

Two jobs have golden reports: ``nevlab demo`` in tests/golden/demo/, and
the document tests/golden/kinds.json, which reaches the task kinds and
sweep sequences the demo does not, in tests/golden/kinds/.  Run from the
repository root:

    PYTHONPATH=src python tests/golden/regen.py

It also records the host in tests/golden/host.json: the numpy version and
the name and version of the BLAS and LAPACK numpy was built against.
``tests/test_golden.py`` compares fresh runs against these files, byte for
byte on a host that matches that record.  A change that regenerates them
says why in CHANGES.md.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

# report directory -> the nevlab command line that writes it (--out follows)
JOBS = {
    "demo": ["demo"],
    "kinds": ["run", str(HERE / "kinds.json")],
}


def host() -> dict:
    """The numpy version and the BLAS and LAPACK it was built against, by name and version."""
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):  # a numpy before 1.26 only prints its configuration
        deps = {}
    return {"numpy": np.__version__,
            **{lib: {key: deps.get(lib, {}).get(key) for key in ("name", "version")}
               for lib in ("blas", "lapack")}}


def main() -> int:
    from nevlab import cli

    for name, argv in JOBS.items():
        out = HERE / name
        shutil.rmtree(out, ignore_errors=True)
        code = cli.main(argv + ["--out", str(out)])
        print(f"nevlab {argv[0]} exited {code}; reports in {out}")
    (HERE / "host.json").write_text(json.dumps(host(), indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
