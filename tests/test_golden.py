"""Golden answers: the answer digest and the README demo reports, byte for byte.

``tests/golden`` holds the answer digest (``answer_digest.txt``), one SHA-256
per file the demo reports write (``demo_reports.sha256``, as ``sha256sum``
prints them) and the environment both were written on (``environment.json``).
Rounding may differ with the Python, the numpy or the machine, so on any other
environment the comparison is skipped, and the skip names what differs. A
change that means to move an answer rewrites the files and says which moved:

    PYTHONPATH=src python3 scripts/answer_digest.py --out tests/golden/answer_digest.txt
    PYTHONPATH=src python3 scripts/demo_reports.py --out reports
    (cd reports && find . -type f -printf '%P\\n' | LC_ALL=C sort | xargs sha256sum) \\
        > tests/golden/demo_reports.sha256

The digest and the reports are the smoke tests' own outputs, written once per
session.
"""

import hashlib
import json
import platform

import numpy as np
import pytest

from conftest import ROOT

GOLDEN = ROOT / "tests" / "golden"


def environment() -> dict:
    return {"machine": platform.machine(), "numpy": np.__version__,
            "python": ".".join(platform.python_version_tuple()[:2])}


def report_hashes(directory) -> list[str]:
    """``sha256sum``'s line for each file under ``directory``, by its sorted relative path."""
    files = sorted(p.relative_to(directory).as_posix() for p in directory.rglob("*") if p.is_file())
    return [f"{hashlib.sha256((directory / f).read_bytes()).hexdigest()}  {f}" for f in files]


def test_answers_equal_the_golden_answers(answer_digest_out, demo_reports_out):
    want = json.loads((GOLDEN / "environment.json").read_text())
    have = environment()
    differ = [f"{key} {have[key]} (golden: {want[key]})" for key in want if have[key] != want[key]]
    if differ:
        pytest.skip("golden answers were written on another environment: " + ", ".join(differ))
    assert answer_digest_out.read_text() == (GOLDEN / "answer_digest.txt").read_text()
    golden_reports = (GOLDEN / "demo_reports.sha256").read_text().splitlines()
    assert report_hashes(demo_reports_out) == golden_reports
