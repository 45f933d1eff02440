"""Golden lock: every shipped scenario's outputs against committed values.

Each file in `tests/golden/` holds the numbers one shipped scenario writes
(every cell of `trajectory.csv`, and `decay.json` when the method writes
one).  A run must reproduce each number x_ref within

    |x - x_ref| <= RTOL * |x_ref| + ATOL,

the tolerance of the benchmark's golden records.  The absolute floor covers
cells that are round-off by construction (projection residuals, the
mismatch of matched starts).  Empty cells must stay empty.

Two closed forms are checked as well: the OU expectation coordinates
eta(t) = (0.5 e^{-t}, 1 + 0.25 e^{-2t}) of `ou_ep2_ada`, and the generator
eigenvalues 1 and 2 that `ou_hermite_decay` fits its rates against.

After an intended numerical change, regenerate the records with

    PYTHONPATH=src python tests/test_golden.py

and state the change and its size where the change is described.
"""

import csv
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from fpkproj.runner import run_scenario
from fpkproj.scenario import load_scenario

RTOL = 1e-8
ATOL = 1e-11

ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = ROOT / "scenarios"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
SCENARIOS = sorted(p.stem for p in SCENARIO_DIR.glob("*.yaml"))


def _cell(text):
    return None if text == "" else float(text)


def capture(out_dir: Path) -> dict:
    """The numbers a run wrote: the trajectory table and the decay report."""
    with open(out_dir / "trajectory.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    record = {"trajectory.csv": {"header": rows[0],
                                 "rows": [[_cell(v) for v in row] for row in rows[1:]]}}
    decay = out_dir / "decay.json"
    if decay.exists():
        record["decay.json"] = json.loads(decay.read_text())
    return record


def run_all(out_root: Path) -> dict:
    records = {}
    for name in SCENARIOS:
        out_dir = out_root / name
        run_scenario(load_scenario(SCENARIO_DIR / f"{name}.yaml"), out_dir, quiet=True)
        records[name] = capture(out_dir)
    return records


def mismatches(got, want, path: str) -> list:
    """Paths of every value in `got` outside the tolerance around `want`."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys differ"]
        return [m for key in sorted(want) for m in mismatches(got[key], want[key], f"{path}.{key}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: length differs"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in mismatches(g, w, f"{path}[{i}]")]
    if isinstance(want, str) or want is None or got is None:
        return [] if got == want else [f"{path}: {got!r} != {want!r}"]
    if abs(got - want) <= RTOL * abs(want) + ATOL:
        return []
    return [f"{path}: {got!r} differs from golden {want!r}"]


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    return run_all(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", SCENARIOS)
def test_outputs_match_golden(records, name):
    want = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    bad = mismatches(records[name], want, name)
    assert not bad, f"{len(bad)} values outside the golden tolerance, first: {bad[:3]}"


def _columns(record, prefix):
    table = record["trajectory.csv"]
    idx = [i for i, col in enumerate(table["header"]) if col.startswith(prefix)]
    return np.array([[row[i] for i in idx] for row in table["rows"]], dtype=float)


def test_ou_ep2_ada_follows_the_closed_form(records):
    rec = records["ou_ep2_ada"]
    t = _columns(rec, "t")[:, 0]
    eta = _columns(rec, "eta_or_m_")
    exact = np.column_stack([0.5 * np.exp(-t), 1.0 + 0.25 * np.exp(-2.0 * t)])
    assert t[-1] == pytest.approx(1.0)
    assert np.max(np.abs(eta - exact)) <= 1e-9


def test_ou_hermite_decay_rates_are_the_eigenvalues(records):
    decay = records["ou_hermite_decay"]["decay.json"]
    assert decay["eigenvalues"] == pytest.approx([1.0, 2.0], abs=1e-9)
    assert decay["fitted_rates"] == pytest.approx([1.0, 2.0], rel=0.03)


def main():
    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, record in run_all(Path(tmp)).items():
            (GOLDEN_DIR / f"{name}.json").write_text(
                json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(SCENARIOS)} golden records to {GOLDEN_DIR}")


if __name__ == "__main__":
    sys.exit(main())
