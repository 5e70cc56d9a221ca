"""Golden records: canonical experiment JSONL pinned across commits.

Each file under tests/golden/ holds one line,
`run_experiment(name, config, MASTER_SEED).to_json_line()`, for the config
listed below.  A fresh run must reproduce it byte for byte; a change that
alters these bytes on purpose declares it and rewrites the file.
"""

from pathlib import Path

import pytest

from bimult.experiments import run_experiment

MASTER_SEED = 20260824  # the acceptance gate's seed
GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN = {
    "growth-A.jsonl": ("growth-A", {"block_b": [4, 16], "pool": 4}),
    "growth-B.jsonl": ("growth-B", {"mode": "desk", "N": [1, 2], "pool": 4}),
    "khintchine.jsonl": (
        "khintchine",
        {"sizes": [1, 2, 3], "trials": 20000, "equal_weight_trials": 20000},
    ),
    "boundedness-lattice.jsonl": ("boundedness", {"f_mode": "lattice", "trials": 4}),
    "boundedness-besov.jsonl": ("boundedness", {"f_mode": "besov", "trials": 4}),
    "boundedness-fourier_compact.jsonl": (
        "boundedness",
        {"f_mode": "fourier_compact", "trials": 4},
    ),
    "counting.jsonl": ("counting", {"M": [2, 3, 32]}),
    "levelset.jsonl": ("levelset", {"mode": "desk", "N": [2], "resolution": 10}),
    "levelset-paper.jsonl": ("levelset", {"mode": "paper", "N": [2, 4]}),  # bench, acceptance
}


@pytest.mark.parametrize("fname", sorted(GOLDEN))
def test_golden_record_byte_identical(fname):
    name, config = GOLDEN[fname]
    expected = (GOLDEN_DIR / fname).read_text()
    assert run_experiment(name, config, MASTER_SEED).to_json_line() + "\n" == expected
