import json
import random
import re

import pytest

from joinspectra import (
    Graph,
    JoinSpec,
    UniversalParams,
    hgen_join_charpoly,
    hgen_join_spectrum,
    hjoin_universal_charpoly,
    hjoin_universal_spectrum,
    hjoin_universal_spectrum_alpha_delta_zero,
    hjoin_universal_spectrum_regular,
)
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
    p.write_text(json.dumps(mixed_join_spec().to_json_obj()))
    return str(p)


@pytest.fixture()
def subset_path(tmp_path):
    p = tmp_path / "subset.json"
    p.write_text(json.dumps(subset_join_spec().to_json_obj()))
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
    spec = mixed_join_spec().with_universal(None).to_json_obj()
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

    spec = mixed_join_spec().to_json_obj()
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
    spec = mixed_join_spec().to_json_obj()
    spec["rho"] = [["0", "2", "1"], ["2", "0", "1"], ["1", "1", "0"]]
    p = tmp_path / "rho.json"
    p.write_text(json.dumps(spec))
    code, obj = run_json(capsys, ["spectrum", str(p), "--verify"])
    assert code == 1 and obj["oracle"]["equal"] is False
    code, cases = run_json(capsys, ["verify", str(p), "--json"])
    assert code == 1 and cases[0]["passed"] is False
    assert cases[0]["detail"] == f"route {obj['route']}: {obj['oracle']['detail']}"


def test_cli_import_leaves_numpy_unloaded():
    import subprocess
    import sys
    from pathlib import Path

    import joinspectra

    src = str(Path(joinspectra.__file__).resolve().parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {src!r}); "
        "import joinspectra.cli as c; c.build_parser(); print('numpy' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True).stdout
    assert out == "False\n"


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
        params = random_universal_params(rng).to_json_obj()
        params["delta"] = rng.choice(["-2", "-1", "1/2", "1", "3"])
        p2 = tmp_path / f"lex_delta_{case}.json"
        p2.write_text(json.dumps({"host": host.to_text(), "components": [inner.to_text()], "universal": params}))
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
    corrupted = mixed_join_spec().to_json_obj()
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
    ]
    for case, (obj, message) in enumerate(malformed):
        p = tmp_path / f"malformed_{case}.json"
        p.write_text(json.dumps(obj))
        for verb in ("charpoly", "spectrum", "verify"):
            assert main([verb, str(p)]) == 2
            assert capsys.readouterr().err == message


NEEDS_PARAMS = "universal route needs universal parameters"
PLAIN_ONLY = "universal route applies to plain joins (no subsets)"
NEEDS_SUBSETS = "subset-join route needs per-component subsets"
ADJACENCY_ONLY = "subset-join route is stated for the adjacency matrix only"


def _subset_spec(universal=None) -> JoinSpec:
    return subset_join_spec().with_universal(universal)


def _empty_component_spec() -> JoinSpec:
    return JoinSpec(Graph.path(2), (Graph(0), Graph.complete(3)), universal=UniversalParams.adjacency())


@pytest.mark.parametrize(
    "route, spec, message",
    [
        (hjoin_universal_charpoly, mixed_join_spec, NEEDS_PARAMS),
        (hjoin_universal_charpoly, lambda: _subset_spec(UniversalParams.adjacency()), PLAIN_ONLY),
        (hjoin_universal_spectrum, mixed_join_spec, NEEDS_PARAMS),
        (hjoin_universal_spectrum, lambda: _subset_spec(UniversalParams.adjacency()), PLAIN_ONLY),
        (hjoin_universal_spectrum_regular, lambda: _subset_spec(), NEEDS_PARAMS),
        (hjoin_universal_spectrum_regular, lambda: _subset_spec(UniversalParams.adjacency()), PLAIN_ONLY),
        (hjoin_universal_spectrum_alpha_delta_zero, mixed_join_spec, NEEDS_PARAMS),
        (hjoin_universal_spectrum_alpha_delta_zero, lambda: _subset_spec(UniversalParams.laplacian()), PLAIN_ONLY),
        (hjoin_universal_spectrum_regular, _empty_component_spec, "every component needs at least one vertex"),
        (hgen_join_charpoly, mixed_join_spec, NEEDS_SUBSETS),
        (hgen_join_charpoly, lambda: _subset_spec(UniversalParams.adjacency()), ADJACENCY_ONLY),
        (hgen_join_spectrum, lambda: mixed_join_spec().with_universal(UniversalParams.adjacency()), NEEDS_SUBSETS),
        (hgen_join_spectrum, lambda: _subset_spec(UniversalParams.adjacency()), ADJACENCY_ONLY),
    ],
)
def test_route_precondition_messages(route, spec, message):
    with pytest.raises(PreconditionError) as exc:
        route(spec())
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "argv, universal, message",
    [
        (["charpoly", "--route", "universal"], None, PLAIN_ONLY),
        (["charpoly"], UniversalParams.adjacency(), ADJACENCY_ONLY),
        (["spectrum"], UniversalParams.adjacency(), ADJACENCY_ONLY),
        (["spectrum", "--route", "regular"], None, NEEDS_PARAMS),
        (["spectrum", "--route", "balanced"], UniversalParams.laplacian(), PLAIN_ONLY),
    ],
)
def test_route_precondition_exit_code(capsys, tmp_path, argv, universal, message):
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(_subset_spec(universal).to_json_obj()))
    assert main([argv[0], str(p), *argv[1:]]) == 3
    assert capsys.readouterr().err == f"precondition violated: {message}\n"


def test_plain_spec_on_subset_route_exits_3(capsys, mixed_path):
    assert main(["charpoly", mixed_path, "--route", "subset"]) == 3
    assert capsys.readouterr().err == f"precondition violated: {NEEDS_SUBSETS}\n"


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
