"""The canonical CLI output, byte for byte.

Each case runs one verb on a small spec file and compares its stdout with
`tests/golden/<case>.txt`.  The specs are the two golden fixtures (the mixed
join and its subset-constrained variant), a small corona spec, two
lexicographic specs (Laplacian parameters and none), a join of regular
components, the mixed join with Laplacian parameters, three joins whose
blocks have repeated eigenvalues (a main eigenvalue of multiplicity above 1,
and a zero subset vector), a join under rational parameters whose
components repeat at distinct host weights, one whose components are
relabelings of two graphs, a subset join of relabeled (graph, subset)
pairs, two joins of components of 12 to 14 vertices (regular ones, and
irregular ones under Laplacian parameters), and a rational-parameter join of
a 14- and a 15-vertex component, whose blocks fall on both sides of the
kernel's threshold between its fraction-free pass and its Lanczos pass.  The
files are written into the working directory, so `verify` names them by
their bare file names.  One
case runs no spec: the first 20 cases of the seeded random suite, so that
its seeded draws stay where they are; all 200 cases of that seed are pinned
by the sha256 of their output.
"""

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

import pytest

from helpers import json_obj
from joinspectra.cli import main
from joinspectra.fixtures import mixed_join_spec, subset_join_spec

GOLDEN = Path(__file__).parent / "golden"

REPEATED = {
    "host": "4; 0-1,1-2,2-3,0-3",
    "components": ["4;", "5; 0-1,0-2,0-3,0-4", "6; 0-1,1-2,2-3,3-4,4-5,0-5", "6; 0-1,1-2,3-4,4-5"],
}

SPECS = {
    "mixed.json": json_obj(mixed_join_spec()),
    "subset.json": json_obj(subset_join_spec()),
    # a 3-path host whose vertices carry an edge, a point and a 3-path
    "corona.json": {"host": "3; 0-1,1-2", "components": ["2; 0-1", "1;", "3; 0-1,1-2"]},
    # the 4-cycle of triangles, Laplacian: one inner graph stands for a copy per host vertex
    "lex.json": {
        "host": "4; 0-1,1-2,2-3,0-3",
        "components": ["3; 0-1,0-2,1-2"],
        "universal": {"alpha": "-1", "delta": "1"},
    },
    # the 3-path of edges, adjacency by default
    "lex-plain.json": {"host": "3; 0-1,1-2", "components": ["2; 0-1"]},
    # K3 and K2 joined on a K2 host: regular components, adjacency by default
    "regular.json": {"host": "2; 0-1", "components": ["3; 0-1,1-2,0-2", "2; 0-1"], "universal": {}},
    # the mixed join with Laplacian parameters: alpha + delta = 0
    "laplacian.json": dict(json_obj(mixed_join_spec()), universal={"alpha": "-1", "delta": "1"}),
    # repeated eigenvalues on a 4-cycle host: an edgeless graph, a star, a hexagon
    # and two 3-paths, so that a main eigenvalue of a block has multiplicity above 1
    "repeated.json": REPEATED,
    # the same join with Laplacian parameters
    "repeated-laplacian.json": dict(REPEATED, universal={"alpha": "-1", "delta": "1"}),
    # subsets on a 3-path host, one of them empty (a zero vector)
    "repeated-subset.json": {
        "host": "3; 0-1,1-2",
        "components": ["4;", "5; 0-1,0-2,0-3,0-4", "6; 0-1,1-2,3-4,4-5"],
        "subsets": [[0, 1, 2, 3], [], [0, 3]],
    },
    # a 5-vertex host whose 3-paths sit at host weights 5, 7 and 4 and whose
    # edgeless graphs sit at 9 and 6, under rational parameters with delta = -5/7:
    # every block of one component is another's translate by delta times a weight
    "shifted.json": {
        "host": "5; 0-1,1-2,2-3,3-4,0-2,1-4",
        "components": ["3; 0-1,1-2", "2;", "3; 0-1,1-2", "2;", "3; 0-1,1-2"],
        "universal": {"alpha": "2/3", "gamma": "1/2", "delta": "-5/7"},
    },
    # three relabelings of the 4-path (host weights 20, 12 and 4) and three of the
    # paw (16, 12 and 8) under rational parameters with gamma and delta nonzero:
    # every block is one of two isomorphism classes translated by delta times a weight
    "relabeled.json": {
        "host": "6; 0-1,0-2,0-3,0-4,0-5,1-2,2-3,3-4,1-3",
        "components": [
            "4; 0-1,1-2,2-3",
            "4; 1-3,0-3,0-2",
            "4; 0-1,1-2,0-2,2-3",
            "4; 1-3,0-3,0-1,0-2",
            "4; 0-3,1-3,2-3,0-2",
            "4; 0-2,0-3,1-3",
        ],
        "universal": {"alpha": "3/2", "beta": "1/4", "gamma": "-2/3", "delta": "1/2"},
    },
    # subsets on relabeled pairs: an end of the 3-path twice (relabeled), its
    # centre once, and both ends of the 4-path twice (relabeled)
    "relabeled-subset.json": {
        "host": "5; 0-1,1-2,2-3,3-4,0-4,0-2",
        "components": ["3; 0-1,1-2", "3; 0-2,1-2", "3; 0-1,1-2", "4; 0-1,1-2,2-3", "4; 1-3,0-3,0-2"],
        "subsets": [[0], [1], [1], [0, 3], [1, 2]],
    },
    # C12 and the 3-regular circulant C12(1, 6): all-ones is an eigenvector of
    # both 12-vertex blocks, whose forms come from the kernel's fraction-free pass
    "regular-12.json": {
        "host": "2; 0-1",
        "components": [
            "12; 0-1,1-2,2-3,3-4,4-5,5-6,6-7,7-8,8-9,9-10,10-11,0-11",
            "12; 0-1,0-6,0-11,1-2,1-7,2-3,2-8,3-4,3-9,4-5,4-10,5-6,5-11,6-7,7-8,8-9,9-10,10-11",
        ],
    },
    # irregular components of 13 and 14 vertices under Laplacian parameters:
    # all-ones is an eigenvector of each Laplacian block
    "laplacian-13-14.json": {
        "host": "2; 0-1",
        "components": [
            "13; 0-1,1-2,2-3,3-4,4-5,5-6,6-7,7-8,8-9,9-10,10-11,11-12,0-5,2-9,3-11,4-7,6-12",
            "14; 0-1,0-2,0-3,1-4,2-5,3-6,4-7,5-8,6-9,7-10,8-11,9-10,10-11,1-2,11-12,12-13,3-13",
        ],
        "universal": {"alpha": "-1", "delta": "1"},
    },
    # irregular components of 14 and 15 vertices under rational parameters: the
    # 14-vertex block takes the kernel's fraction-free pass, the 15-vertex one
    # its Lanczos pass
    "rational-14-15.json": {
        "host": "2; 0-1",
        "components": [
            "14; 0-1,0-9,0-12,1-2,1-5,1-9,2-3,2-11,2-12,2-13,3-4,3-5,3-6,3-10,3-13,4-5,4-7,4-8,5-6,5-7,5-10,5-11,6-7,6-10,7-8,8-9,8-10,9-10,9-13,10-11,11-12,12-13",
            "15; 0-1,0-2,0-3,0-8,0-11,1-2,1-8,2-3,2-7,2-13,3-4,3-6,3-9,4-5,5-6,5-7,5-8,5-9,5-10,5-13,5-14,6-7,6-10,6-13,7-8,7-10,7-13,8-9,8-12,9-10,9-11,10-11,10-12,11-12,12-13,13-14",
        ],
        "universal": {"alpha": "1/2", "beta": "-1/3", "gamma": "2/3", "delta": "1/3"},
    },
}

CASES = {
    "charpoly-mixed": ["charpoly", "mixed.json"],
    "charpoly-subset": ["charpoly", "subset.json"],
    "charpoly-corona-spec": ["charpoly", "corona.json"],
    "charpoly-universal-mixed": ["charpoly", "mixed.json", "--route", "universal"],
    "charpoly-adjacency-mixed": ["charpoly", "mixed.json", "--route", "adjacency"],
    "charpoly-subset-route": ["charpoly", "subset.json", "--route", "subset"],
    "spectrum-verify-mixed": ["spectrum", "mixed.json", "--verify"],
    "spectrum-verify-subset": ["spectrum", "subset.json", "--verify"],
    "spectrum-verify-corona-spec": ["spectrum", "corona.json", "--verify"],
    "spectrum-regular-verify": ["spectrum", "regular.json", "--route", "regular", "--verify"],
    "spectrum-balanced-verify-laplacian": ["spectrum", "laplacian.json", "--route", "balanced", "--verify"],
    "spectrum-verify-repeated": ["spectrum", "repeated.json", "--verify"],
    "spectrum-verify-repeated-laplacian": ["spectrum", "repeated-laplacian.json", "--verify"],
    "spectrum-verify-repeated-subset": ["spectrum", "repeated-subset.json", "--verify"],
    "charpoly-shifted": ["charpoly", "shifted.json"],
    "verify-json-shifted": ["verify", "shifted.json", "--json"],
    "charpoly-relabeled": ["charpoly", "relabeled.json"],
    "verify-json-relabeled": ["verify", "relabeled.json", "--json"],
    "charpoly-relabeled-subset": ["charpoly", "relabeled-subset.json"],
    "verify-json-relabeled-subset": ["verify", "relabeled-subset.json", "--json"],
    "charpoly-regular-12": ["charpoly", "regular-12.json"],
    "spectrum-verify-regular-12": ["spectrum", "regular-12.json", "--verify"],
    "charpoly-laplacian-13-14": ["charpoly", "laplacian-13-14.json"],
    "spectrum-verify-laplacian-13-14": ["spectrum", "laplacian-13-14.json", "--verify"],
    "charpoly-rational-14-15": ["charpoly", "rational-14-15.json", "--route", "universal"],
    "spectrum-verify-rational-14-15": ["spectrum", "rational-14-15.json", "--verify"],
    "verify-json-rational-14-15": ["verify", "rational-14-15.json", "--json"],
    "gcp-half-mixed": ["gcp", "mixed.json", "--t", "1/2"],
    "corona-verify": ["corona", "corona.json", "--verify"],
    "lex-verify": ["lex", "lex.json", "--verify"],
    "lex-verify-plain": ["lex", "lex-plain.json", "--verify"],
    "verify-json-mixed": ["verify", "mixed.json", "--json"],
    "verify-json-subset": ["verify", "subset.json", "--json"],
    "verify-json-corona-spec": ["verify", "corona.json", "--json"],
    "fixtures-json": ["fixtures", "--json"],
    # the seeded random suite: raw blocks, universal joins and subset joins
    "verify-json-seed-0": ["verify", "--seed", "0", "--cases", "20", "--json"],
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


def test_seeded_suite_of_200_cases_matches_its_digest(tmp_path):
    code, out = cli_stdout(["verify", "--seed", "0", "--cases", "200", "--json"], tmp_path)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == "4541d9f5740d3d3b7ebfa8665a5fa2a4e515b67a871fba9387a80acbcd8eccbc"
