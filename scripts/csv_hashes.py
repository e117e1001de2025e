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

Every grid norm, moment and overlap, and the exact chain's projection, is
one numpy pairwise sum, so ``profiles_split_step``, ``curved_exp_decay``
and both tables hash the same under every OpenBLAS kernel: they were taken
under OpenBLAS 0.3.31's SkylakeX kernel and stay ``ok`` with
``OPENBLAS_CORETYPE`` set to Haswell, Sandybridge or Prescott.  The two
``family_*`` pins hold on the FMA kernels SkylakeX and Haswell: the exact
chain still sums its Hermite rows per stored state with a BLAS product,
which the non-FMA kernels Sandybridge and Prescott round differently (at
most 4.4e-16 per column), and the script exits 1.  A tier-1 test checks all
six pins under Haswell and the other four under Prescott.  Every pin
but ``solvable_family_21`` also assumes numpy's AVX-512 (X86_V4) dispatch:
its exp, log, tan and power differ in the last bit from the AVX2 path.

Those per-column numbers come from two more modes.  ``--save DIR`` writes
the six outputs to DIR as ``<name>.csv``; ``--diff DIR`` runs them again
and prints, per output, the largest absolute change of each column against
the set saved in DIR (0 where the column is NaN in both, nan where it is
NaN in one only):

    python3 scripts/csv_hashes.py --save /tmp/before    # on the parent
    python3 scripts/csv_hashes.py --diff /tmp/before    # on the change
"""

import argparse
import contextlib
import copy
import hashlib
import io
import json
import os
import sys
import tempfile

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from canonflow.cli import main  # noqa: E402

PINNED = {
    "family_exact": "90e90c07be70f8ead5c473f4a284be3814abdc96ff6559cbadaead32005fc0be",
    "family_split_step": "bd5ff4358b8a50286b98598517e0bace2053a5bd27f7882cb94058862da01b71",
    "profiles_split_step": "650c35b1415d094afd5a52819fb75c56ebd3f6fe83438c89fa29642e4048ae07",
    "curved_exp_decay": "94917744d21eda0fd0c300d97dc0e63237f85e2f79a7f099831c85aef22506de",
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


def save_outputs(directory):
    """Write every pinned output to ``directory``/<name>.csv."""
    os.makedirs(directory, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in _outputs(tmp):
            with open(os.path.join(directory, name + ".csv"), "wb") as fh:
                fh.write(data)


def _table(data):
    """(header, rows) of a CSV whose cells are all numbers."""
    header, *lines = data.decode().splitlines()
    return header.split(","), np.array([line.split(",") for line in lines], dtype=float)


def diff_outputs(directory):
    """{name: {column: largest |change|}} against the outputs saved in
    ``directory``; prints one line per output."""
    changes = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in _outputs(tmp):
            with open(os.path.join(directory, name + ".csv"), "rb") as fh:
                saved_header, saved = _table(fh.read())
            header, rows = _table(data)
            if header != saved_header or rows.shape != saved.shape:
                raise SystemExit(f"{name}: the header or the row count changed")
            gap = np.where(np.isnan(rows) & np.isnan(saved), 0.0, np.abs(rows - saved))
            changes[name] = dict(zip(header, np.max(gap, axis=0).tolist()))
            print(name, " ".join(f"{col} {val:.2g}" for col, val in changes[name].items()))
    return changes


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--save", metavar="DIR", help="write the six outputs to DIR")
    mode.add_argument("--diff", metavar="DIR",
                      help="print the largest change per column against DIR")
    args = parser.parse_args()
    if args.save:
        save_outputs(args.save)
    elif args.diff:
        diff_outputs(args.diff)
    else:
        sys.exit(1 if check_hashes() else 0)
