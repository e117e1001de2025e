"""Check the sha256 of six pinned outputs: four scenarios and two tables.

Each scenario is written to a temporary directory and run through
``canonflow propagate``; its ``trajectory.csv`` is hashed.  The two
``canonflow solvable`` tables are hashed from stdout.  One ``name sha256
ok`` line is printed per output whose hash equals its entry in ``PINNED``,
and ``name sha256 changed`` (with the pinned value) per output whose hash
does not; the script exits 1 if any changed.  The outputs are byte-stable
for identical inputs, so a change that keeps the four scenario hashes keeps
every row of every propagation method, and the two table hashes keep the
reduction's m, omega and Omega columns.  A commit that changes the bytes of
one of these outputs updates its ``PINNED`` entry in the same commit, and
names the changed hash and the largest change per column in CHANGES.md.
Run from any checkout; the script imports canonflow from that checkout's
src/:

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

PINNED = {
    "family_exact": "05b0085a786c111c06e7af0bdc298f1b9c36613467d266a57657fd700bcbbec8",
    "family_split_step": "76fc7fc298362e510110d8377cbb2dd0898124d4b6c648e852da834b3cbea071",
    "profiles_split_step": "db8e357deb6cbaeb68043e5cd652aebfc3d538a49d70407505f53be26c06fcc3",
    "curved_exp_decay": "f279e5f30ed5b2cf93b4851b310655e36861dda3b2208e7022acabcbb10c540f",
    "solvable_readme": "f578d1c7090d70e7dbcb29020838d38b2df3da514055630ca1774bce1e46d64f",
    "solvable_family_21": "42a7777b56860d7f7f413c37e83982bca2daf7c2660b8949e8287b4356fb72aa",
}

# ``canonflow solvable`` arguments: the README example, and the family
# mu = nu = 0.5, alpha = 0.3, Omega0 = 2 at 21 samples
TABLES = {
    "solvable_readme": ["--m0", "1", "--mu", "1", "--nu", "0", "--alpha", "0.1",
                        "--Omega0", "1"],
    "solvable_family_21": ["--m0", "1", "--mu", "0.5", "--nu", "0.5", "--alpha",
                           "0.3", "--Omega0", "2", "--samples", "21"],
}

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


def _run(name, argv):
    """stdout of ``canonflow argv``; a nonzero exit stops the check."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"{name}: {argv[0]} exited {code}")
    return out.getvalue()


def _outputs(tmp):
    """(name, bytes) of every pinned output, scenarios first."""
    for name, scenario in _scenarios().items():
        scenario["outputs"] = {"directory": os.path.join(tmp, name),
                               "formats": ["csv"]}
        path = os.path.join(tmp, name + ".json")
        with open(path, "w") as fh:
            json.dump(scenario, fh)
        _run(name, ["propagate", path])
        with open(os.path.join(tmp, name, "trajectory.csv"), "rb") as fh:
            yield name, fh.read()
    for name, args in TABLES.items():
        yield name, _run(name, ["solvable", *args]).encode()


def check_hashes():
    """Print one line per output; returns the number of changed hashes."""
    changed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in _outputs(tmp):
            digest = hashlib.sha256(data).hexdigest()
            if digest == PINNED[name]:
                print(name, digest, "ok")
            else:
                print(name, digest, f"changed (pinned {PINNED[name]})")
                changed += 1
    return changed


if __name__ == "__main__":
    sys.exit(1 if check_hashes() else 0)
