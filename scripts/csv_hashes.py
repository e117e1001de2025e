"""Print the sha256 of ``trajectory.csv`` for the four pinned scenarios.

Each scenario is written to a temporary directory and run through
``canonflow propagate``; one ``name sha256`` line is printed per scenario.
Trajectory CSVs are byte-stable for identical inputs, so a change that
keeps these four hashes keeps every row of every propagation method.  Run
from any checkout; the script imports canonflow from that checkout's src/:

    OPENBLAS_NUM_THREADS=1 python3 scripts/csv_hashes.py
"""

import contextlib
import copy
import hashlib
import io
import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from canonflow.cli import main  # noqa: E402

# the README's Caldirola-Kanai family, m = e^(0.2 t), at full size
FAMILY = {
    "system": {"kind": "oscillator",
               "family": {"m0": 1.0, "mu": 1.0, "nu": 0.0, "alpha": 0.1,
                          "Omega0": 1.0}},
    "initial_state": {"kind": "gaussian", "width_re": 1.0, "center": 1.0,
                      "momentum": 0.0},
    "grid": {"xmin": -12.0, "xmax": 12.0, "n": 2048},
    "propagator": {"method": "exact", "dt": 0.001, "t_final": 5.0,
                   "output_stride": 250},
}


def _scenarios():
    exact = copy.deepcopy(FAMILY)
    split = copy.deepcopy(FAMILY)
    split["propagator"]["method"] = "split_step"
    # the same oscillator as explicit profiles
    profiles = copy.deepcopy(split)
    profiles["system"] = {
        "kind": "oscillator",
        "mass": {"type": "exponential", "m0": 1.0, "rate": 0.2},
        "frequency": {"type": "matched", "Omega0": 1.0}}
    curved = {
        "system": {"kind": "curved", "mass": 1.0,
                   "metric": {"type": "from_generator", "eps": 0.4,
                              "generator": {"type": "exp_decay", "rate": 1.0}}},
        "initial_state": {"kind": "gaussian", "width_re": 1.0, "center": 4.0,
                          "momentum": 0.5},
        "grid": {"xmin": -4.0, "xmax": 20.0, "n": 2048},
        "propagator": {"method": "crank_nicolson", "dt": 0.001, "t_final": 1.0,
                       "output_stride": 50},
    }
    return {"family_exact": exact, "family_split_step": split,
            "profiles_split_step": profiles, "curved_exp_decay": curved}


def print_hashes():
    with tempfile.TemporaryDirectory() as tmp:
        for name, scenario in _scenarios().items():
            scenario["outputs"] = {"directory": os.path.join(tmp, name),
                                   "formats": ["csv"]}
            path = os.path.join(tmp, name + ".json")
            with open(path, "w") as fh:
                json.dump(scenario, fh)
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(["propagate", path])
            if code != 0:
                raise SystemExit(f"{name}: propagate exited {code}")
            with open(os.path.join(tmp, name, "trajectory.csv"), "rb") as fh:
                print(name, hashlib.sha256(fh.read()).hexdigest())


if __name__ == "__main__":
    print_hashes()
