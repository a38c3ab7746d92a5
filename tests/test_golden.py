"""Golden outputs: the sha256 of CLI stdout for fixed seeds.

Transcripts and sweep CSVs must stay byte-identical across refactors; a
change here means a seeded run now plays or reports something else.
"""

import hashlib

import pytest

from edgegames.cli import main

GOLDEN = [
    (
        "play --n 60 --avoider turan:2 --enforcer random --property subgraph:C5 --seed 7",
        "e287fdbf0b6e84a71348978d1a4137c140ffe458c4e88843c34765dd2f85a15b",
    ),
    (
        "play --n 40 --avoider random --enforcer jumbleg:1/10 --property nc:40 --seed 3",
        "dc8084fa9faeb47f771efd00e1f18cd78b49f5c99ffe2e2ef67c1aa813782539",
    ),
    (
        "sweep --n 8,10,12 --trials 3 --avoider random --enforcer jumbleg:1/5 "
        "--property nc:3 --eps 0.15 --seed 4",
        "d4de24bf409445ee59a9d645a574366eea379744124127b8663c41aa7a9e6740",
    ),
    (
        "sweep --n 10:20:5 --trials 2 --avoider turan:2 --enforcer random "
        "--property subgraph:C5 --seed 9",
        "ce3f7e62ac4a02cb5065177bce2833ec0891a4dae12e25e528bcf4e02ffb7b63",
    ),
]


@pytest.mark.parametrize(
    "argv, digest", GOLDEN, ids=["play-c5", "play-nc", "sweep-nc", "sweep-c5"]
)
def test_cli_stdout_digest(capsys, argv, digest):
    assert main(argv.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
