import json
import os
import random
import re
import stat
import subprocess
import sys

import pytest

from helpers import graph_text, json_obj
from joinspectra import (
    Graph,
    JoinSpec,
    UniversalParams,
    coupled_spectrum,
    require_balanced,
    require_regular,
    subset_blocks,
    universal_blocks,
)
from joinspectra import cli
from joinspectra.cli import dumps_result, main
from joinspectra.errors import PreconditionError
from joinspectra.fixtures import (
    mixed_join_charpoly_factors,
    mixed_join_spec,
    product,
    subset_join_charpoly_factors,
    subset_join_spec,
)
from joinspectra.verification import random_graph, random_universal_params


@pytest.fixture()
def mixed_path(tmp_path):
    p = tmp_path / "mixed.json"
    p.write_text(json.dumps(json_obj(mixed_join_spec())))
    return str(p)


@pytest.fixture()
def subset_path(tmp_path):
    p = tmp_path / "subset.json"
    p.write_text(json.dumps(json_obj(subset_join_spec())))
    return str(p)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_charpoly_mixed(capsys, mixed_path):
    code, obj = run_json(capsys, ["charpoly", mixed_path])
    assert code == 0
    assert obj["route"] == "adjacency-join"
    assert obj["charpoly"] == product(mixed_join_charpoly_factors()).to_strings()
    assert any(f["multiplicity"] == 3 for f in obj["factored_hint"])  # the x^3 factor


def test_charpoly_subset(capsys, subset_path):
    code, obj = run_json(capsys, ["charpoly", subset_path])
    assert code == 0
    assert obj["route"] == "subset-join"
    assert obj["charpoly"] == product(subset_join_charpoly_factors()).to_strings()


def test_charpoly_output_file_round_trips(tmp_path, mixed_path):
    out = tmp_path / "result.json"
    assert main(["charpoly", mixed_path, "-o", str(out)]) == 0
    text = out.read_text()
    assert dumps_result(json.loads(text)) + "\n" == text


@pytest.mark.parametrize("before", [None, b"", b"{}", b"stale " * 20000], ids=["new", "empty", "shorter", "longer"])
def test_output_file_holds_exactly_the_stdout_bytes(capsys, tmp_path, mixed_path, before):
    assert main(["charpoly", mixed_path]) == 0
    expected = capsys.readouterr().out.encode("utf-8")
    out = tmp_path / "result.json"
    if before is not None:
        out.write_bytes(before)
    assert main(["charpoly", mixed_path, "-o", str(out)]) == 0
    assert capsys.readouterr() == ("", "")
    assert out.read_bytes() == expected


@pytest.mark.parametrize(
    "argv",
    [["verify", "--seed", "0", "--cases", "3"], ["fixtures", "--no-oracle"]],
    ids=["verify", "fixtures"],
)
def test_text_mode_output_goes_to_the_output_file(capsys, tmp_path, argv):
    assert main(argv) == 0
    expected = capsys.readouterr().out
    out = tmp_path / "out.txt"
    assert main(argv + ["-o", str(out)]) == 0
    assert capsys.readouterr() == ("", "")
    assert out.read_text(encoding="utf-8") == expected


def test_output_to_the_null_device(capsys, mixed_path):
    assert main(["charpoly", mixed_path, "-o", os.devnull]) == 0
    assert capsys.readouterr() == ("", "")


def test_output_to_dev_stdout_on_a_pipe(mixed_path):
    # a pipe has no length to cut: the writer must not try
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)

    def run(*extra):
        argv = [sys.executable, "-m", "joinspectra.cli", "charpoly", mixed_path, *extra]
        return subprocess.run(argv, capture_output=True, env=env, check=True).stdout

    assert run("-o", "/dev/stdout") == run()


def test_a_new_output_file_gets_mode_0o666_under_the_umask(tmp_path, mixed_path):
    out = tmp_path / "new.json"
    umask = os.umask(0o027)
    try:
        assert main(["charpoly", mixed_path, "-o", str(out)]) == 0
    finally:
        os.umask(umask)
    assert stat.S_IMODE(out.stat().st_mode) == 0o640


def test_output_path_errors_exit_2_with_the_os_message(capsys, tmp_path, mixed_path):
    missing = tmp_path / "no-such-dir" / "out.json"
    assert main(["charpoly", mixed_path, "-o", str(tmp_path)]) == 2
    assert capsys.readouterr() == ("", f"input error: [Errno 21] Is a directory: '{tmp_path}'\n")
    assert main(["charpoly", mixed_path, "-o", str(missing)]) == 2
    assert capsys.readouterr() == ("", f"input error: [Errno 2] No such file or directory: '{missing}'\n")


def test_output_is_never_opened_with_o_trunc(monkeypatch, tmp_path, mixed_path):
    # truncating to zero before the write makes ext4 flush the file on close,
    # a cost every call would pay
    opened = []
    os_open = cli.os.open

    def guarded(path, flags, *args, **kwargs):
        assert not flags & os.O_TRUNC, f"{path} opened with O_TRUNC"
        opened.append(path)
        return os_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(cli.os, "open", guarded)
    out = tmp_path / "out.json"
    out.write_text("stale " * 20000)
    assert main(["charpoly", mixed_path, "-o", str(out)]) == 0
    assert main(["verify", "--seed", "0", "--cases", "3", "-o", str(out)]) == 0
    assert opened == [str(out)] * 2


def test_route_override(capsys, mixed_path, subset_path):
    code, obj = run_json(capsys, ["charpoly", mixed_path, "--route", "universal"])
    assert code == 0 and obj["route"] == "universal-join"
    # forcing the subset route on a plain spec violates its precondition
    assert main(["charpoly", mixed_path, "--route", "subset"]) == 3
    assert main(["charpoly", subset_path, "--route", "adjacency"]) == 3


def test_spectrum_verb(capsys, subset_path):
    code, obj = run_json(capsys, ["spectrum", subset_path, "--verify"])
    assert code == 0
    assert obj["route"] == "subset-join"
    assert obj["oracle"]["equal"] is True
    assert len(obj["eigenvalues"]) == 10
    zeros = [v for v in obj["eigenvalues"] if abs(v) < 1e-9]
    assert len(zeros) == 4


def test_spectrum_shortcut_routes(capsys, tmp_path):
    spec = json_obj(mixed_join_spec().with_universal(None))
    spec["universal"] = {"alpha": "-1", "delta": "1"}
    p = tmp_path / "lap.json"
    p.write_text(json.dumps(spec))
    code, obj = run_json(capsys, ["spectrum", str(p), "--route", "balanced"])
    assert code == 0
    assert obj["route"] == "balanced-shortcut"
    # regular shortcut must refuse (the star component is not regular)
    assert main(["spectrum", str(p), "--route", "regular"]) == 3


def _shortcut_spec(tmp_path, universal, rho=None) -> str:
    spec = {"host": "2; 0-1", "components": ["3; 0-1,0-2,1-2", "2; 0-1"], "universal": universal}
    if rho is not None:
        spec["rho"] = rho
    p = tmp_path / "shortcut.json"
    p.write_text(json.dumps(spec))
    return str(p)


@pytest.mark.parametrize("route, universal", [("regular", {}), ("balanced", {"alpha": "-1", "delta": "1"})])
def test_spectrum_shortcut_verify(capsys, tmp_path, route, universal):
    code, obj = run_json(capsys, ["spectrum", _shortcut_spec(tmp_path, universal), "--route", route, "--verify"])
    assert code == 0
    assert obj["route"] == f"{route}-shortcut"
    assert obj["oracle"] == {"equal": True, "first_mismatch": None, "detail": "exact match"}


@pytest.mark.parametrize("verify", [[], ["--verify"]])
@pytest.mark.parametrize("route, universal", [("regular", {}), ("balanced", {"alpha": "-1", "delta": "1"})])
def test_spectrum_shortcut_matches_auto_route(capsys, tmp_path, route, universal, verify):
    path = _shortcut_spec(tmp_path, universal)
    code, auto = run_json(capsys, ["spectrum", path, *verify])
    assert code == 0 and auto["route"] == "universal-join"
    code, shortcut = run_json(capsys, ["spectrum", path, "--route", route, *verify])
    assert code == 0 and shortcut["route"] == f"{route}-shortcut"
    assert dict(shortcut, route=auto["route"]) == auto
    assert ("oracle" in auto) == bool(verify)


def test_spectrum_shortcuts_read_a_plain_spec_as_adjacency(capsys, tmp_path):
    # as `charpoly --route universal` does, the shortcuts default to the adjacency matrix
    p = tmp_path / "plain.json"
    p.write_text(json.dumps({"host": "2; 0-1", "components": ["3; 0-1,1-2,0-2", "2; 0-1"]}))
    code, auto = run_json(capsys, ["spectrum", str(p), "--verify"])
    assert code == 0 and auto["route"] == "adjacency-join"
    code, shortcut = run_json(capsys, ["spectrum", str(p), "--route", "regular", "--verify"])
    assert code == 0 and shortcut["route"] == "regular-shortcut"
    assert dict(shortcut, route=auto["route"]) == auto
    assert main(["spectrum", str(p), "--route", "balanced"]) == 3
    assert capsys.readouterr().err == "precondition violated: shortcut needs alpha + delta = 0, got 1 + 0\n"


@pytest.mark.parametrize("route, universal", [("regular", {}), ("balanced", {"alpha": "-1", "delta": "1"})])
def test_spectrum_shortcut_rejects_asymmetric_rho(capsys, tmp_path, route, universal):
    # an asymmetric coupling violates the classification's precondition on every spectrum route
    path = _shortcut_spec(tmp_path, universal, rho=[["0", "-5"], ["7", "0"]])
    for argv in (["spectrum", path], ["spectrum", path, "--route", route]):
        assert main(argv) == 3
        assert capsys.readouterr().err == (
            "precondition violated: spectrum classification needs symmetric blocks, u = v and symmetric coupling\n"
        )


def test_spectrum_shortcut_verify_mismatch_exits_1(capsys, monkeypatch, tmp_path):
    import joinspectra.oracle as oracle

    exact = oracle.oracle_charpoly
    monkeypatch.setattr(oracle, "oracle_charpoly", lambda m: exact(m) + 1)
    code, obj = run_json(capsys, ["spectrum", _shortcut_spec(tmp_path, {}), "--route", "regular", "--verify"])
    assert code == 1
    assert obj["oracle"]["equal"] is False


def test_spectrum_verify_checks_eigenvalues(capsys, monkeypatch, subset_path):
    # a wrong eigenvalue of a right charpoly must fail --verify
    import joinspectra.spectra as spectra

    exact = spectra.real_roots
    perturbed = []

    def one_root_off(p, *args):
        roots = exact(p, *args)
        if roots and not perturbed:
            perturbed.append(roots[0])
            roots[0] += 1e-3
        return roots

    monkeypatch.setattr(spectra, "real_roots", one_root_off)
    code, obj = run_json(capsys, ["spectrum", subset_path, "--verify"])
    assert code == 1 and perturbed
    assert obj["oracle"]["equal"] is False and obj["oracle"]["first_mismatch"] is None
    assert re.fullmatch(r"eigenvalue \d+ differs: formula \S+, oracle \S+", obj["oracle"]["detail"])
    # without --verify the same wrong root is not checked
    assert main(["spectrum", subset_path]) == 0


def test_spectrum_tol_is_the_eigenvalue_tolerance_of_verify(capsys, monkeypatch, subset_path):
    import joinspectra.spectra as spectra

    exact = spectra.real_roots
    monkeypatch.setattr(spectra, "real_roots", lambda p: [r + 1e-6 for r in exact(p)])
    assert main(["spectrum", subset_path, "--verify"]) == 1
    capsys.readouterr()
    code, obj = run_json(capsys, ["spectrum", subset_path, "--verify", "--tol", "1e-5"])
    assert code == 0
    assert obj["oracle"] == {"equal": True, "first_mismatch": None, "detail": "exact match"}


@pytest.mark.parametrize("verb", [["spectrum", "spec.json", "--verify"], ["fixtures"]])
def test_tol_must_be_finite_and_non_negative(capsys, verb):
    # nan and inf would accept any eigenvalues, a negative tolerance none
    for tol in ("nan", "inf", "-1", "1e400", "x"):
        with pytest.raises(SystemExit) as exc:
            main([*verb, "--tol", tol])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith(f"error: argument --tol: tolerance must be a finite number >= 0, got {tol!r}\n")
    from joinspectra.cli import build_parser

    assert build_parser().parse_args([*verb, "--tol", "0"]).tol == 0.0


def test_spectrum_tiny_tol_gives_a_verdict_not_an_internal_error(capsys, subset_path):
    # --tol tightens the eigenvalue comparison only, never the eigensolver's residual check
    code = main(["spectrum", subset_path, "--verify", "--tol", "1e-17"])
    captured = capsys.readouterr()
    assert code == 1
    assert "internal error" not in captured.err
    verdict = json.loads(captured.out)["oracle"]
    assert verdict["equal"] is False and verdict["first_mismatch"] is None
    assert re.fullmatch(r"eigenvalue \d+ differs: formula \S+, oracle \S+", verdict["detail"])


def test_spectrum_verify_truth_is_built_without_the_route_blocks(capsys, monkeypatch, tmp_path):
    # dropping the delta * w_i shift from the Laplacian blocks must not also drop it from the truth
    import joinspectra.spectra as spectra

    spec = json_obj(mixed_join_spec())
    spec["universal"] = {"alpha": "-1", "delta": "1"}
    p = tmp_path / "lap.json"
    p.write_text(json.dumps(spec))
    assert run_json(capsys, ["spectrum", str(p), "--verify"])[0] == 0
    monkeypatch.setattr(spectra, "join_weights", lambda s: tuple(0 for _ in s.components))
    code, obj = run_json(capsys, ["spectrum", str(p), "--verify"])
    assert code == 1
    assert obj["oracle"]["equal"] is False


def test_spectrum_verify_and_verify_agree_on_a_foreign_rho(capsys, tmp_path):
    # a symmetric override that is not the host's pattern fails both checks the same way
    spec = json_obj(mixed_join_spec())
    spec["rho"] = [["0", "2", "1"], ["2", "0", "1"], ["1", "1", "0"]]
    p = tmp_path / "rho.json"
    p.write_text(json.dumps(spec))
    code, obj = run_json(capsys, ["spectrum", str(p), "--verify"])
    assert code == 1 and obj["oracle"]["equal"] is False
    code, cases = run_json(capsys, ["verify", str(p), "--json"])
    assert code == 1 and cases[0]["passed"] is False
    assert cases[0]["detail"] == f"route {obj['route']}: {obj['oracle']['detail']}"


def test_cli_start_up_generates_no_code_and_loads_no_numpy():
    # numpy serves the oracle alone, the records are plain classes that generate no
    # code, and only the fixtures verb needs the fixtures: none of it loads at start-up
    from pathlib import Path

    import joinspectra

    src = str(Path(joinspectra.__file__).resolve().parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {src!r}); before = set(sys.modules); "
        "import joinspectra.cli as c; c.build_parser(); "
        "import json; print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    out = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True).stdout
    loaded = set(json.loads(out))
    assert "joinspectra.cli" in loaded
    assert loaded.isdisjoint({"dataclasses", "inspect", "ast", "dis", "tokenize", "numpy", "joinspectra.fixtures"})


def test_route_verbs_load_numpy_only_for_a_block_past_the_lanczos_dimension(tmp_path):
    # the kernel imports numpy inside its word-prime Lanczos pass alone: charpoly
    # and gcp on a join whose blocks all lie below its threshold load none, and
    # one block at the threshold loads it
    from pathlib import Path

    import joinspectra
    from joinspectra.kernel import _LANCZOS_DIM

    src = str(Path(joinspectra.__file__).resolve().parent.parent)
    rng = random.Random(31)

    def graph(n):
        return {"n": n, "edges": [[i, j] for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]}

    laplacian = {"alpha": "-1", "beta": "0", "gamma": "0", "delta": "1"}
    for sizes, loads in (((_LANCZOS_DIM - 1, _LANCZOS_DIM - 3), False), ((_LANCZOS_DIM, 4), True)):
        spec = tmp_path / f"join-{sizes[0]}.json"
        spec.write_text(json.dumps({"host": {"n": 2, "edges": [[0, 1]]}, "components": [graph(n) for n in sizes]}))
        lap = tmp_path / f"laplacian-{sizes[0]}.json"
        lap.write_text(json.dumps({"host": {"n": 2, "edges": [[0, 1]]}, "components": [graph(n) for n in sizes], "universal": laplacian}))
        for argv in (["charpoly", str(lap)], ["charpoly", str(spec)], ["gcp", str(spec), "--t", "1/2"]):
            argv += ["-o", str(tmp_path / "out.json")]
            code = (
                f"import sys; sys.path.insert(0, {src!r}); import joinspectra.cli as c; "
                f"code = c.main({argv!r}); print(code, 'numpy' in sys.modules)"
            )
            out = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True).stdout
            assert out.split() == ["0", str(loads)], (argv, out)


@pytest.mark.parametrize(
    "verb, message",
    [
        ("corona", "corona route reads host + companion components only"),
        ("lex", "lexicographic route takes a plain host + one inner graph"),
    ],
)
def test_corona_and_lex_reject_rho(capsys, tmp_path, verb, message):
    p = tmp_path / "rho.json"
    p.write_text(json.dumps({"host": "2; 0-1", "components": ["2; 0-1", "2; 0-1"], "rho": [["0", "5"], ["7", "0"]]}))
    assert main([verb, str(p), "--verify"]) == 3
    assert capsys.readouterr().err == f"precondition violated: {message}\n"


def test_gcp_verb(capsys, mixed_path):
    code, obj = run_json(capsys, ["gcp", mixed_path, "--t", "0"])
    assert code == 0
    assert obj["t"] == "0"
    assert obj["charpoly"] == product(mixed_join_charpoly_factors()).to_strings()
    assert main(["gcp", mixed_path, "--t", "nonsense"]) == 2


def test_corona_verb(capsys, tmp_path):
    spec = {"host": "2; 0-1", "components": ["1;", "1;"]}
    p = tmp_path / "corona.json"
    p.write_text(json.dumps(spec))
    code, obj = run_json(capsys, ["corona", str(p), "--verify"])
    assert code == 0
    assert obj["charpoly"] == ["1", "0", "-3", "0", "1"]  # the 4-path
    assert obj["oracle"]["equal"] is True


def test_corona_verify_catches_a_fault_in_the_corona_graph(capsys, monkeypatch, tmp_path):
    # the blocks are built without generalized_corona, so a fault in it is a mismatch, not reproduced on both sides
    import sys

    from joinspectra.joins import corona_family

    def corona_without_last_apex_edge(host, family):
        family = corona_family(host, family)
        offs, acc = [], host.n
        for g in family:
            offs.append(acc)
            acc += g.n
        edges = list(host.edges)
        for i, g in enumerate(family):
            edges.extend((offs[i] + u, offs[i] + v) for u, v in g.edges)
            edges.extend((i, offs[i] + u) for u in range(g.n - 1))
        return Graph(acc, edges)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "joinspectra" and hasattr(module, "generalized_corona"):
            monkeypatch.setattr(module, "generalized_corona", corona_without_last_apex_edge)
    p = tmp_path / "corona.json"
    p.write_text(json.dumps({"host": "3; 0-1,1-2", "components": ["2; 0-1", "1;", "3; 0-1,1-2"]}))
    code, obj = run_json(capsys, ["corona", str(p), "--verify"])
    assert code == 1
    assert obj["oracle"]["equal"] is False


def test_lex_verb(capsys, tmp_path):
    p = tmp_path / "lex.json"
    p.write_text(json.dumps({"host": "2; 0-1", "components": ["1;"]}))
    code, obj = run_json(capsys, ["lex", str(p), "--verify"])
    assert code == 0
    assert obj["charpoly"] == ["-1", "0", "1"]
    assert obj["oracle"]["equal"] is True
    # delta != 0: H[G] is still the join whose components are all G
    rng = random.Random(62)
    for case in range(6):
        host, inner = random_graph(rng, rng.randint(2, 4)), random_graph(rng, rng.randint(1, 4))
        params = json_obj(random_universal_params(rng))
        params["delta"] = rng.choice(["-2", "-1", "1/2", "1", "3"])
        p2 = tmp_path / f"lex_delta_{case}.json"
        p2.write_text(json.dumps({"host": graph_text(host), "components": [graph_text(inner)], "universal": params}))
        code, obj = run_json(capsys, ["lex", str(p2), "--verify"])
        assert code == 0
        assert obj["oracle"]["equal"] is True


def test_lex_malformed_spec(capsys, tmp_path):
    bad = tmp_path / "lex_broken.json"
    bad.write_text('{"host": "2; 0-1",\n "components": [}')
    assert main(["lex", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err == f"input error: {bad}: invalid JSON at line 2 column 17: Expecting value\n"
    assert main(["charpoly", str(bad)]) == 2
    assert capsys.readouterr().err == err
    assert main(["lex", str(tmp_path / "nope.json")]) == 2
    # a single inner graph under an object host still stands for one copy per host vertex
    p = tmp_path / "lex_obj.json"
    p.write_text(json.dumps({"host": {"n": 2, "edges": [[0, 1]]}, "components": [{"n": 1}]}))
    code, obj = run_json(capsys, ["lex", str(p), "--verify"])
    assert code == 0 and obj["charpoly"] == ["-1", "0", "1"]


def test_verify_spec_and_corrupted_coupling(capsys, mixed_path, tmp_path):
    assert main(["verify", mixed_path]) == 0
    capsys.readouterr()
    corrupted = json_obj(mixed_join_spec())
    corrupted["rho"] = [["0", "1", "0"], ["1", "0", "2"], ["0", "2", "0"]]
    p = tmp_path / "corrupted.json"
    p.write_text(json.dumps(corrupted))
    assert main(["verify", str(p)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "coefficient" in out


def test_verify_random_suite(capsys):
    assert main(["verify", "--seed", "42", "--cases", "8"]) == 0
    out = capsys.readouterr().out
    assert "8/8 passed" in out


@pytest.mark.parametrize("cases", ["0", "-3", "x"])
def test_verify_cases_must_be_positive(capsys, monkeypatch, cases):
    # zero cases would run no check and still exit 0
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--cases", cases])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        "usage: joinspectra verify [-h] [-o OUTPUT] [--seed SEED] [--cases CASES]\n"
        "                          [--json]\n"
        "                          [spec]\n"
        f"joinspectra verify: error: argument --cases: case count must be a positive integer, got {cases!r}\n"
    )


def test_verify_json_output(capsys):
    code, obj = run_json(capsys, ["verify", "--seed", "1", "--cases", "3", "--json"])
    assert code == 0
    assert len(obj) == 3 and all(c["passed"] for c in obj)


def test_fixtures_verb(capsys):
    assert main(["fixtures"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_fixtures_json_and_no_oracle(capsys):
    code, obj = run_json(capsys, ["fixtures", "--json", "--no-oracle"])
    assert code == 0
    assert all(r["passed"] for r in obj)
    names = {r["name"] for r in obj}
    assert "mixed-join charpoly" in names


def test_error_exit_codes(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["charpoly", missing]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["charpoly", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({"host": {"n": 2}, "components": [{"n": 1}]}))
    assert main(["charpoly", str(schema)]) == 2
    capsys.readouterr()
    # malformed values are rejected where the spec is read, on every verb that reads one
    base = {"host": "2; 0-1", "components": ["2; 0-1", "1;"]}
    subsets_error = "input error: 'subsets' must list one index array per component\n"
    malformed = [
        (dict(base, subsets=[5, [0]]), subsets_error),
        (dict(base, subsets=[["0"], [0]]), subsets_error),
        (dict(base, subsets=[[True], [0]]), subsets_error),
        (dict(base, rho=[[0, "1/0"], [1, 0]]), "input error: bad coupling override: Fraction(1, 0)\n"),
        (dict(base, universal={"alpha": "1/0"}), "input error: bad universal parameters: Fraction(1, 0)\n"),
        (dict(base, components=["-2;", "1;"]), "input error: bad vertex count in '-2;'\n"),
        (dict(base, host={"n": True, "edges": []}, components=["1;"]), "input error: bad vertex count True\n"),
        (dict(base, host={"n": 2, "edges": [[True, 0]]}), "input error: bad edge [True, 0]\n"),
        # only a JSON boolean turns the alpha = 0 guard off
        (
            dict(base, universal={"alpha": "0", "allow_zero_alpha": "false"}),
            "input error: bad universal parameters: allow_zero_alpha must be true or false, got 'false'\n",
        ),
        # a misspelt key would leave its parameter at the default
        (dict(base, universal={"alpah": "2", "delta": "1"}), "input error: unknown universal keys: ['alpah']\n"),
        # a JSON boolean is not a rational, and a string row is not a row
        (dict(base, rho=[[0, True], [True, 0]]), "input error: bad coupling override: not an exact rational: True\n"),
        (dict(base, universal={"alpha": True}), "input error: bad universal parameters: not an exact rational: True\n"),
        (dict(base, rho=["01", "10"]), "input error: 'rho' must be a list of rows, each a list of rationals\n"),
    ]
    for case, (obj, message) in enumerate(malformed):
        p = tmp_path / f"malformed_{case}.json"
        p.write_text(json.dumps(obj))
        for verb in ("charpoly", "spectrum", "verify"):
            assert main([verb, str(p)]) == 2
            assert capsys.readouterr().err == message


PLAIN_ONLY = "universal route applies to plain joins (no subsets)"
NEEDS_SUBSETS = "subset-join route needs per-component subsets"
ADJACENCY_ONLY = "subset-join route is stated for the adjacency matrix only"
ADJACENCY_PLAIN_ONLY = "adjacency route applies to plain joins; drop 'subsets' or use --route subset"


def _subset_spec(universal=None) -> JoinSpec:
    return subset_join_spec().with_universal(universal)


def _empty_component_spec() -> JoinSpec:
    return JoinSpec(Graph.path(2), (Graph(0), Graph.complete(3)), universal=UniversalParams.adjacency())


@pytest.mark.parametrize(
    "build, spec, message",
    [
        (universal_blocks, lambda: _subset_spec(UniversalParams.adjacency()), PLAIN_ONLY),
        # a spec without parameters is read as the adjacency spec
        pytest.param(require_regular, _subset_spec, PLAIN_ONLY, id="require_regular-plain_subset_spec"),
        (require_regular, lambda: _subset_spec(UniversalParams.adjacency()), PLAIN_ONLY),
        pytest.param(
            require_balanced,
            mixed_join_spec,
            "shortcut needs alpha + delta = 0, got 1 + 0",
            id="require_balanced-mixed_join_spec-adjacency",
        ),
        (require_balanced, lambda: _subset_spec(UniversalParams.laplacian()), PLAIN_ONLY),
        (require_regular, _empty_component_spec, "every component needs at least one vertex"),
        (subset_blocks, mixed_join_spec, NEEDS_SUBSETS),
        (subset_blocks, lambda: _subset_spec(UniversalParams.adjacency()), ADJACENCY_ONLY),
        (subset_blocks, lambda: mixed_join_spec().with_universal(UniversalParams.adjacency()), NEEDS_SUBSETS),
    ],
)
def test_route_precondition_messages(build, spec, message):
    with pytest.raises(PreconditionError) as exc:
        build(spec())
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "build, spec, message",
    [
        (universal_blocks, lambda: _subset_spec(UniversalParams.adjacency()), PLAIN_ONLY),
        (subset_blocks, lambda: _subset_spec(UniversalParams.adjacency()), ADJACENCY_ONLY),
    ],
)
def test_route_precondition_messages_through_spectrum(build, spec, message):
    # the spectrum path stops at the same precondition as the builder alone
    with pytest.raises(PreconditionError) as exc:
        coupled_spectrum(build(spec()))
    assert str(exc.value) == message


@pytest.mark.parametrize("run", [lambda cb: cb, coupled_spectrum], ids=["blocks", "spectrum"])
def test_plain_spec_reads_as_adjacency(run):
    # universal_blocks takes a spec without parameters as the adjacency spec,
    # on the builder alone and through the spectrum path
    plain = mixed_join_spec()
    assert plain.universal is None
    assert run(universal_blocks(plain)) == run(universal_blocks(plain.with_universal(UniversalParams.adjacency())))


@pytest.mark.parametrize(
    "argv, universal, message",
    [
        (["charpoly", "--route", "universal"], None, PLAIN_ONLY),
        (["charpoly"], UniversalParams.adjacency(), ADJACENCY_ONLY),
        (["spectrum"], UniversalParams.adjacency(), ADJACENCY_ONLY),
        # the shortcuts read a spec without parameters as an adjacency spec
        (["spectrum", "--route", "regular"], None, PLAIN_ONLY),
        (["spectrum", "--route", "balanced"], UniversalParams.laplacian(), PLAIN_ONLY),
        (["charpoly", "--route", "adjacency"], None, ADJACENCY_PLAIN_ONLY),
    ],
)
def test_route_precondition_exit_code(capsys, tmp_path, argv, universal, message):
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(json_obj(_subset_spec(universal))))
    assert main([argv[0], str(p), *argv[1:]]) == 3
    assert capsys.readouterr().err == f"precondition violated: {message}\n"


def test_plain_spec_on_subset_route_exits_3(capsys, mixed_path):
    assert main(["charpoly", mixed_path, "--route", "subset"]) == 3
    assert capsys.readouterr().err == f"precondition violated: {NEEDS_SUBSETS}\n"


PLAIN = {"host": "2; 0-1", "components": ["2; 0-1", "1;"]}
LAPLACIAN = dict(PLAIN, universal={"alpha": "-1", "delta": "1"})
SUBSETS = dict(PLAIN, subsets=[[0], [0]])
BROKEN = "input error: {path}: invalid JSON at line 1 column 2: Expecting property name enclosed in double quotes"
BAD_T = "input error: bad t value: 'x' is not a rational p/q"
OWN_PARAMS = "precondition violated: degree-shift route fixes its own matrix parameters"
CORONA_ONLY = "precondition violated: corona route reads host + companion components only"
LEX_PLAIN_ONLY = "precondition violated: lexicographic route takes a plain host + one inner graph"
LEX_IDENTICAL = "precondition violated: lexicographic route needs all components identical (or a single one)"


@pytest.mark.parametrize(
    "argv, spec, code, err",
    [
        # a bad spec first, then a bad --t, then the route's preconditions
        (["gcp", "--t", "x"], None, 2, BROKEN),
        (["gcp", "--t", "x"], LAPLACIAN, 2, BAD_T),
        (["gcp", "--t", "1/2"], LAPLACIAN, 3, OWN_PARAMS),
        (["gcp", "--t", "1/2"], SUBSETS, 3, f"precondition violated: {PLAIN_ONLY}"),
        (["corona"], LAPLACIAN, 3, CORONA_ONLY),
        (["corona", "--verify"], SUBSETS, 3, CORONA_ONLY),
        (["lex", "--verify"], SUBSETS, 3, LEX_PLAIN_ONLY),
        (["lex"], PLAIN, 3, LEX_IDENTICAL),
    ],
)
def test_verb_error_order_and_preconditions(capsys, tmp_path, argv, spec, code, err):
    p = tmp_path / "spec.json"
    p.write_text("{broken" if spec is None else json.dumps(spec))
    assert main([argv[0], str(p), *argv[1:]]) == code
    captured = capsys.readouterr()
    assert captured.err == err.format(path=p) + "\n"
    assert captured.out == ""


@pytest.mark.parametrize("verb", ["charpoly", "spectrum", "verify"])
def test_a_spec_that_is_not_utf8_is_an_input_error(capsys, tmp_path, verb):
    p = tmp_path / "spec.json"
    p.write_bytes(b"\xff\xfe" + json.dumps(PLAIN).encode())
    assert main([verb, str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"input error: {p}: not UTF-8 text: invalid start byte at byte 0\n"
    assert captured.out == ""


def test_parser_is_shared_and_argv_errors_still_exit_2(capsys):
    from joinspectra.cli import build_parser

    assert build_parser() is build_parser()
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["charpoly"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: joinspectra charpoly")
        assert err.endswith("joinspectra charpoly: error: the following arguments are required: spec\n")
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: joinspectra")


def test_main_calls_the_handler_the_module_binds_when_it_runs(monkeypatch):
    # the cached parser holds the handlers it was built with; a handler
    # replaced on the module afterwards must still be the one main calls
    cli.build_parser()
    seen = []
    monkeypatch.setattr(cli, "cmd_spectrum", lambda args: seen.append(("spectrum", args.spec)) or 7)
    monkeypatch.setattr(cli, "cmd_charpoly", lambda args: seen.append((args.route, args.spec)) or 5)
    assert main(["spectrum", "a.json"]) == 7
    assert main(["corona", "b.json"]) == 5
    assert main(["gcp", "c.json", "--t", "1"]) == 5
    assert seen == [("spectrum", "a.json"), ("corona", "b.json"), ("degree-shift", "c.json")]
