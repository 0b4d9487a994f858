"""Command-line surface: exit codes, workspace storage, output shapes."""

import json
import os
import subprocess
import sys
import time

import pytest

from semispec import cli
from semispec.kernel import semiring_to_dict
from semispec import corpus


@pytest.fixture()
def ws(tmp_path, monkeypatch):
    monkeypatch.setenv("SEMISPEC_WORKSPACE", str(tmp_path / "ws"))
    return tmp_path


def table_file(tmp_path, name="chain3"):
    p = tmp_path / f"{name}.json"
    p.write_text(json.dumps(semiring_to_dict(corpus.get(name))))
    return str(p)


def test_load_and_axioms(ws, capsys):
    assert cli.main(["load", table_file(ws), "--name", "c3"]) == 0
    assert cli.main(["axioms", "c3"]) == 0
    out = capsys.readouterr().out
    assert "c3" in out


def test_spec_listing_builtin(capsys):
    assert cli.main(["spec", "boolx"]) == 0
    out = capsys.readouterr().out
    assert "3 prime ideals" in out


def test_sp_listing_builtin(capsys):
    assert cli.main(["sp", "boolx"]) == 0
    out = capsys.readouterr().out
    assert "2 prime kernels" in out


def test_unknown_name_exit_code(ws, capsys):
    assert cli.main(["spec", "nosuch"]) == 4


# malformed: not JSON at all, then well-formed JSON of the wrong shape
BAD_BODIES = ['{"oops": [1,'] + [json.dumps(d) for d in (
    {"size": 2, "zero": 0, "one": 1, "label": "t", "add": 5,
     "mul": [[0, 0], [0, 1]]},
    {"size": 2, "zero": 0, "one": 1, "label": "t", "add": [1, 2],
     "mul": [[0, 0], [0, 1]]},
    {"size": 2, "zero": 0, "one": 1, "label": "t", "add": [[0, 1], [1, 1]],
     "mul": [[0, 0], [0, 1]], "names": [[1], [2]]},
    {"size": True, "zero": False, "one": False, "label": "b", "add": [[False]],
     "mul": [[False]]},
    {"gens": "xy", "rels": []},
    {"gens": ["x"], "rels": 5},
    {"gens": ["x"], "rels": [["x"]]},
    {"gens": ["x", "y"], "rels": [["x^2", "x", "y"]]},
)]


def test_bad_json_exit_code(ws, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    for body in BAD_BODIES:
        bad.write_text(body)
        assert cli.main(["load", str(bad), "--name", "x"]) == 3, body


def test_a_file_that_is_not_utf8_exits_3(ws, tmp_path, capsys):
    body = b'{"size": 1, "label": "\xff"}'
    bad = tmp_path / "latin1.json"
    bad.write_bytes(body)
    assert cli.main(["load", str(bad), "--name", "x"]) == 3
    # the same bytes in a workspace entry, read back by name
    assert cli.main(["load", table_file(ws), "--name", "c3"]) == 0
    (ws / "ws" / "c3.json").write_bytes(body)
    assert cli.main(["spec", "c3"]) == 3
    assert "cannot read" in capsys.readouterr().err


def test_missing_file_exit_code(ws, capsys):
    assert cli.main(["load", "/nonexistent/q.json", "--name", "x"]) == 3


def test_load_rejects_axiom_violations(ws, tmp_path, capsys):
    # validation happens at load time, so the workspace never holds junk
    d = semiring_to_dict(corpus.get("chain3"))
    d["add"][0][1] = 2  # break commutativity
    p = tmp_path / "broken.json"
    p.write_text(json.dumps(d))
    assert cli.main(["load", str(p), "--name", "broken"]) == 3
    assert cli.main(["axioms", "broken"]) == 4


def test_presentation_load_and_spec(ws, capsys):
    pres = ws / "pres.json"
    pres.write_text(json.dumps(
        {"gens": ["x"], "rels": [["x*x", "x"]], "idempotent": True}
    ))
    assert cli.main(["load", str(pres), "--name", "q"]) == 0
    out = capsys.readouterr().out
    assert "4 elements" in out
    assert cli.main(["spec", "q"]) == 0
    out = capsys.readouterr().out
    assert "3 prime ideals" in out


def test_presentations_without_a_name_are_stored_under_their_file_names(ws, capsys):
    qx, nil = ws / "qx.json", ws / "nil.json"
    qx.write_text(json.dumps({"gens": ["x"], "rels": [["x*x", "x"]], "idempotent": True}))
    nil.write_text(json.dumps({"gens": ["x"], "rels": [["x^2", "0"]], "idempotent": True}))
    assert cli.main(["load", str(qx)]) == 0
    assert cli.main(["load", str(nil)]) == 0
    out = capsys.readouterr().out
    assert "loaded qx: 4 elements" in out and "loaded nil: 4 elements" in out
    assert sorted(os.listdir(ws / "ws")) == ["nil.json", "qx.json"]


def test_presentation_with_relation_to_zero(ws, capsys):
    pres = ws / "pres.json"
    pres.write_text(json.dumps(
        {"gens": ["x", "y"], "rels": [["x*y", "0"], ["x^2", "x"], ["y^2", "y"]],
         "idempotent": True}
    ))
    assert cli.main(["load", str(pres), "--name", "q", "--degree", "1",
                     "--coeff", "1"]) == 0
    assert "8 elements" in capsys.readouterr().out
    # without idempotent addition the quotient contains N: refused, exit 5
    pres.write_text(json.dumps({"gens": ["x"], "rels": [["x^2", "0"]]}))
    assert cli.main(["load", str(pres), "--name", "q"]) == 5


def test_presentation_exits_5_only_when_proved_infinite(ws, capsys):
    pres = ws / "pres.json"
    pres.write_text(json.dumps({"gens": ["x"], "rels": [["x^2", "0"]]}))
    assert cli.main(["load", str(pres), "--name", "q"]) == 5
    assert "quotient is infinite: x = 0 in the naturals" in capsys.readouterr().err
    # 2x = 0 and x^2 = 2 give 4 = 0: eight elements, whose normal forms
    # 3 and 3 + x lie outside coefficient 2
    pres.write_text(json.dumps({"gens": ["x"], "rels": [["0", "2*x"], ["2", "x*x"]]}))
    assert cli.main(["load", str(pres), "--name", "q"]) == 0
    assert "loaded q: 8 elements" in capsys.readouterr().out
    # 128 elements, with no infinite model: refused, exit 8
    pres.write_text(json.dumps({
        "gens": ["x", "y", "z"],
        "rels": [["x^2", "x"], ["y^2", "y"], ["z^2", "z"], ["x*y*z", "0"]],
        "idempotent": True,
    }))
    assert cli.main(["load", str(pres), "--name", "q", "--coeff", "1"]) == 8
    assert "more than 64" in capsys.readouterr().err


@pytest.mark.parametrize("bounds", [["--coeff", "0"], ["--coeff", "-1"], ["--degree", "-1"]])
def test_presentation_bounds_that_cannot_hold_0_and_1_exit_5(ws, capsys, bounds):
    pres = ws / "pres.json"
    pres.write_text(json.dumps({"gens": ["x"], "rels": []}))
    assert cli.main(["load", str(pres), "--name", "q"] + bounds) == 5
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_presentation_enumeration_bound_exit_code(ws, capsys):
    cases = [
        # 11^11 candidate terms: refused before any congruence search
        ({"gens": ["x"], "rels": [["x*x", "x"]]}, "10", "10"),
        # 3^(about 5 * 10^17) terms: refused without computing that power
        ({"gens": ["x", "y"], "rels": [["x*y", "0"], ["x^2", "x"], ["y^2", "y"]]},
         "1000000000", "2"),
    ]
    pres = ws / "pres.json"
    for spec, degree, coeff in cases:
        pres.write_text(json.dumps(dict(spec, idempotent=True)))
        start = time.perf_counter()
        code = cli.main(["load", str(pres), "--name", "q", "--degree", degree,
                         "--coeff", coeff])
        assert code == 8
        assert time.perf_counter() - start < 1.0
        assert "enumeration bound" in capsys.readouterr().err


def test_a_large_exponent_is_refused_in_bounded_time(ws, capsys):
    # x^1000000 is evaluated in the infinite models by square and multiply:
    # 2^1000000 in the naturals takes about 20 products, not a million
    pres = ws / "pres.json"
    pres.write_text(json.dumps(
        {"gens": ["x"], "rels": [["x^1000000", "x"]], "idempotent": True}
    ))
    start = time.perf_counter()
    assert cli.main(["load", str(pres), "--name", "q"]) == 8
    assert time.perf_counter() - start < 1.0
    assert "outside degree" in capsys.readouterr().err


class _RecordingEnviron(dict):
    """A copy of the environment that remembers every name looked up."""

    def __init__(self, env):
        super().__init__(env)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


def test_spectra_of_a_32_element_table(ws, monkeypatch, capsys):
    A = corpus.product_semiring(corpus.get("z4"), corpus.get("satnat8"), "z4*satnat8")
    path = ws / "big.json"
    path.write_text(json.dumps(semiring_to_dict(A)))
    env = _RecordingEnviron(os.environ)
    monkeypatch.setattr(os, "environ", env)
    assert cli.main(["load", str(path), "--name", "big"]) == 0
    assert cli.main(["spec", "big"]) == 0
    assert cli.main(["sp", "big"]) == 0
    out = capsys.readouterr().out
    assert "3 prime ideals" in out and "2 prime kernels" in out
    # the workspace is the only setting read from the environment
    assert {k for k in env.read if k.startswith("SEMISPEC_")} == {"SEMISPEC_WORKSPACE"}


def test_topology_json(ws, capsys):
    assert cli.main(["topology", "boolx", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["kind"] == "spec"
    assert len(data["points"]) == 3


def test_topology_dot_to_file(ws, tmp_path, capsys):
    out = tmp_path / "g.dot"
    assert cli.main(["topology", "chain3", "--dot", "--output", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("digraph")


def test_sheaf_report(ws, capsys):
    assert cli.main(["sheaf", "boolx", "--cover", "x,1+x",
                     "--target", "1+x"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["sections"] == 3
    assert data["localization_comparison_iso"] is True


def test_sheaf_non_cover_exit_code(ws, capsys):
    assert cli.main(["sheaf", "boolx", "--cover", "x,1+x"]) == 5


def test_harden_stores_result(ws, capsys):
    assert cli.main(["harden", "boolx"]) == 0
    out = capsys.readouterr().out
    assert "3" in out
    assert cli.main(["spec", "boolx-hard"]) == 0


def test_mra_stores_result(ws, capsys):
    assert cli.main(["mra", "chain3"]) == 0
    out = capsys.readouterr().out
    assert "4" in out
    assert cli.main(["axioms", "chain3-modules"]) == 0


def test_verify_single_criterion(ws, capsys):
    assert cli.main(["verify", "ktt"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "ktt" in out


def test_verify_unknown_criterion(ws, capsys):
    assert cli.main(["verify", "nosuch"]) == 4


def test_element_parsing_by_index(ws, capsys):
    # elements may be named by table index when names are awkward to type
    assert cli.main(["sheaf", "boolx", "--cover", "2,3",
                     "--target", "3"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["sections"] == 3


def test_cover_names_may_hold_commas_inside_parentheses(ws, capsys):
    # chain3xbool names its elements (1,0), (h,1), ...: the names that
    # spec prints select the same cover as their table indices
    names = corpus.get("chain3xbool").names
    assert cli.main(["sheaf", "chain3xbool", "--cover", "(1,0),(h,1)"]) == 0
    by_name = capsys.readouterr().out
    indices = f"{names.index('(1,0)')},{names.index('(h,1)')}"
    assert cli.main(["sheaf", "chain3xbool", "--cover", indices]) == 0
    assert capsys.readouterr().out == by_name
    assert json.loads(by_name)["cover"] == ["(1,0)", "(h,1)"]


def test_usage_error_exit_code(ws, capsys):
    assert cli.main(["spec", "chain3xbool"]) == 0
    before = capsys.readouterr().out
    with pytest.raises(SystemExit) as e:
        cli.main(["load"])  # missing required argument
    assert e.value.code == 2
    # the parser the error went through serves the next call as before
    capsys.readouterr()
    assert cli.main(["spec", "chain3xbool"]) == 0
    assert capsys.readouterr().out == before


def test_the_parser_is_built_once_per_process():
    assert cli.build_parser() is cli.build_parser()


def test_the_shared_parser_prints_the_help_of_a_fresh_one(capsys):
    cli.main(["spec", "bool2"])  # the shared parser has served a command
    fresh = cli.build_parser.__wrapped__()
    assert cli.build_parser().format_help() == fresh.format_help()
    helps = []
    for parse in (cli.main, fresh.parse_args):
        capsys.readouterr()
        with pytest.raises(SystemExit) as e:
            parse(["sheaf", "--help"])
        assert e.value.code == 0
        helps.append(capsys.readouterr().out)
    assert "--cover" in helps[0] and helps[0] == helps[1]


def test_workspace_default_location(tmp_path, monkeypatch):
    monkeypatch.delenv("SEMISPEC_WORKSPACE", raising=False)
    monkeypatch.chdir(tmp_path)
    assert cli.workspace_dir() == os.path.join(str(tmp_path), ".semispec")


def test_mra_refuses_a_large_lattice(ws, capsys):
    # boolxy has 2,480 submodules, over the table cap of 64
    assert cli.main(["mra", "boolxy"]) == 8
    assert "64" in capsys.readouterr().err


def _files_under(root):
    return {os.path.join(d, f) for d, _dirs, files in os.walk(root) for f in files}


@pytest.mark.parametrize("label", ["../escaped", "a\u0000b", "sub/dir"])
def test_registry_names_stay_in_the_workspace(ws, capsys, label):
    # the label names the entry when --name is absent
    d = semiring_to_dict(corpus.get("chain3"))
    d["label"] = label
    src = ws / "in.json"
    src.write_text(json.dumps(d))
    before = _files_under(ws)
    assert cli.main(["load", str(src)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert _files_under(ws) == before
    assert not (ws / "escaped.json").exists()


def test_load_refuses_an_empty_name(ws, capsys):
    # an explicit empty --name is refused, not replaced by the label
    src = table_file(ws)
    before = _files_under(ws)
    assert cli.main(["load", src, "--name", ""]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert _files_under(ws) == before


def test_closed_stdout_exits_141_silently(ws):
    # the reader is gone before the command writes: no error line, no
    # traceback, no message at interpreter exit
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "semispec.cli", "spec", "boolxy"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""


@pytest.mark.parametrize("name", ["../escaped", ""])
def test_registry_lookup_refuses_a_path(ws, capsys, name):
    assert cli.main(["spec", name]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err


@pytest.mark.parametrize("flag", ["false", "true", 1, None])
def test_presentation_idempotent_must_be_a_boolean(ws, capsys, flag):
    pres = ws / "pres.json"
    pres.write_text(json.dumps({"gens": ["x"], "rels": [["x*x", "x"]], "idempotent": flag}))
    assert cli.main(["load", str(pres), "--name", "q"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    # a JSON false is the absent flag: x*x = x without 1 + 1 = 1 contains N
    pres.write_text(json.dumps({"gens": ["x"], "rels": [["x*x", "x"]], "idempotent": False}))
    assert cli.main(["load", str(pres), "--name", "q"]) == 5


@pytest.mark.parametrize("lhs", ["x*²", "²*x", "x^²"])
def test_a_non_ascii_digit_is_no_coefficient_or_exponent(ws, capsys, lhs):
    # "²".isdigit() holds, but int("²") raises ValueError
    pres = ws / "pres.json"
    pres.write_text(json.dumps({"gens": ["x"], "rels": [[lhs, "x"]], "idempotent": True}))
    assert cli.main(["load", str(pres), "--name", "q"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err


def test_import_loads_no_module_it_does_not_use(ws):
    # start-up: records are NamedTuples or slotted classes, not dataclasses,
    # and criterion 5 (KTT) computes in integers, so neither import nor
    # `verify ktt` loads fractions; a fresh process shows what is loaded
    probe = (
        "import sys\n"
        "import semispec.cli as cli\n"
        "print(sorted({'dataclasses', 'inspect', 'fractions', 'decimal'} & set(sys.modules)))\n"
        "code = cli.main(['verify', 'ktt'])\n"
        "print(code, sorted({'fractions', 'decimal'} & set(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    loaded, verdict, after = proc.stdout.splitlines()
    assert loaded == "[]"
    assert verdict.startswith("[PASS]  5 ktt:")
    assert after == "0 []"
