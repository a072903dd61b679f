"""Golden digests: the sha256 of every file a fixed set of ``isacfl`` commands writes.

The commands generate small datasets and run every strategy on them through
``cli.main``, writing ``metrics.csv``, ``summary.json`` and every
``round_<t>/*.bin`` checkpoint file:

- all six strategies on all four scenario variants, desk-shaped (4x4
  antennas, hidden 32, the desk preset's learning rate), 70 samples/BS
  (one training batch per epoch, which keeps the set near 3 s), 3 rounds, a
  checkpoint every round;
- ``em_pfl``, ``fedper`` and ``pfedme`` on the full-scale network (8x8
  antennas, hidden 256, the default settings but one local epoch), 170
  samples/BS (an evaluation pool of 17, so pool gathers wrap unevenly),
  2 rounds;
- one desk run made as 2 rounds and then ``--resume`` to 3, which must write
  the bytes of the straight 3-round run.

``tests/golden.json`` holds the digests and the environment they were made
in; ``tests/test_golden.py`` repeats the commands and compares. A change that
alters the program's numbers on purpose rewrites the file with

    PYTHONPATH=src python tests/make_golden.py

and says so.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from isacfl.cli import main
from isacfl.datagen import SCENARIO_VARIANTS
from isacfl.fl import STRATEGIES

GOLDEN = Path(__file__).with_name("golden.json")

FULL_STRATEGIES = ("em_pfl", "fedper", "pfedme")
RESUMED = "desk-heterogeneous-resumed"
STRAIGHT = "desk-heterogeneous-em_pfl"


def environment() -> dict:
    """What the digests depend on beyond the source: interpreter, numpy and its BLAS."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "machine": platform.machine(),
    }


def _cli(*argv) -> None:
    rc = main([str(a) for a in argv])
    if rc != 0:
        raise RuntimeError(f"isacfl {' '.join(map(str, argv))} exited {rc}")


def produce() -> dict[str, str]:
    """Run every command in a fresh directory; the sha256 of each written file, keyed by its path there."""
    with tempfile.TemporaryDirectory() as work, contextlib.redirect_stdout(io.StringIO()):
        return _produce(Path(work))


def _produce(root: Path) -> dict[str, str]:
    data, runs = root / "data", root / "runs"
    for variant in SCENARIO_VARIANTS:
        _cli("gen-data", "--scenario", variant, "--seed", 1, "--samples", 70, "--n-t", 4, "--n-r", 4,
             "--out", data / f"desk-{variant}")
        for strategy in STRATEGIES:
            _cli("run", "--preset", "desk", "--dataset", data / f"desk-{variant}", "--out", runs / f"desk-{variant}-{strategy}",
                 "--strategy", strategy, "--rounds", 3, "--seed", 1, "--checkpoint-every", 1, "--keep-checkpoints", "--quiet")
    _cli("gen-data", "--scenario", "heterogeneous", "--seed", 1, "--samples", 170, "--out", data / "full")
    for strategy in FULL_STRATEGIES:
        _cli("run", "--dataset", data / "full", "--out", runs / f"full-{strategy}", "--strategy", strategy,
             "--rounds", 2, "--local-epochs", 1, "--seed", 1, "--checkpoint-every", 1, "--keep-checkpoints", "--quiet")
    for rounds, extra in ((2, ()), (3, ("--resume",))):
        _cli("run", "--preset", "desk", "--dataset", data / "desk-heterogeneous", "--out", runs / RESUMED,
             "--strategy", "em_pfl", "--rounds", rounds, "--seed", 1, "--checkpoint-every", 1, "--keep-checkpoints",
             "--quiet", *extra)
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


if __name__ == "__main__":
    digests = produce()
    GOLDEN.write_text(json.dumps({"environment": environment(), "digests": digests}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}", file=sys.stderr)
