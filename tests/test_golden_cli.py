"""The canonical CLI output, byte for byte.

Each case runs one verb on a small spec file and compares its stdout with
`tests/golden/<case>.txt`.  The specs are the two golden fixtures (the mixed
join and its subset-constrained variant), a small corona spec and a
lexicographic spec with Laplacian parameters; the files are written into the
working directory, so `verify` names them by their bare file names.
"""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from joinspectra.cli import main
from joinspectra.fixtures import mixed_join_spec, subset_join_spec

GOLDEN = Path(__file__).parent / "golden"

SPECS = {
    "mixed.json": mixed_join_spec().to_json_obj(),
    "subset.json": subset_join_spec().to_json_obj(),
    # a 3-path host whose vertices carry an edge, a point and a 3-path
    "corona.json": {"host": "3; 0-1,1-2", "components": ["2; 0-1", "1;", "3; 0-1,1-2"]},
    # the 4-cycle of triangles, Laplacian: one inner graph stands for a copy per host vertex
    "lex.json": {
        "host": "4; 0-1,1-2,2-3,0-3",
        "components": ["3; 0-1,0-2,1-2"],
        "universal": {"alpha": "-1", "delta": "1"},
    },
}

CASES = {
    "charpoly-mixed": ["charpoly", "mixed.json"],
    "charpoly-subset": ["charpoly", "subset.json"],
    "charpoly-corona-spec": ["charpoly", "corona.json"],
    "charpoly-universal-mixed": ["charpoly", "mixed.json", "--route", "universal"],
    "spectrum-verify-mixed": ["spectrum", "mixed.json", "--verify"],
    "spectrum-verify-subset": ["spectrum", "subset.json", "--verify"],
    "spectrum-verify-corona-spec": ["spectrum", "corona.json", "--verify"],
    "gcp-half-mixed": ["gcp", "mixed.json", "--t", "1/2"],
    "corona-verify": ["corona", "corona.json", "--verify"],
    "lex-verify": ["lex", "lex.json", "--verify"],
    "verify-json-mixed": ["verify", "mixed.json", "--json"],
    "verify-json-subset": ["verify", "subset.json", "--json"],
    "verify-json-corona-spec": ["verify", "corona.json", "--json"],
    "fixtures-json": ["fixtures", "--json"],
}


def cli_stdout(argv: list[str], directory: Path) -> tuple[int, str]:
    """(exit code, stdout) of `joinspectra argv` run in directory, after
    writing every spec of SPECS there."""
    for name, obj in SPECS.items():
        (directory / name).write_text(json.dumps(obj))
    out = io.StringIO()
    here = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    finally:
        os.chdir(here)
    return code, out.getvalue()


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, tmp_path):
    code, out = cli_stdout(CASES[case], tmp_path)
    assert code == 0
    assert out == (GOLDEN / f"{case}.txt").read_text(encoding="utf-8")
