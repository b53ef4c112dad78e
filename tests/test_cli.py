import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from t2mc.cli import main

JORDAN3_FILE = """3
[["2","3","7"],["0","2","5"],["0","0","2"]]
[["1","0","0"],["0","1","0"],["0","0","1"]]
"""

TWOGEN_FILE = """3
[["1","1","0"],["0","1","0"],["0","0","1"]]
[["1","0","1"],["0","1","0"],["0","0","1"]]
"""

# g1 = 1 - E01 and g2 = 1 - E01 + E02: both generators twist, and the (0, 1)
# entry carries s1 and s2 together
TWOGEN_S1_S2_FILE = """3
[["1","-1","0"],["0","1","0"],["0","0","1"]]
[["1","-1","1"],["0","1","0"],["0","0","1"]]
"""

BENCH_INPUTS = Path(__file__).resolve().parents[1] / "bench" / "inputs.py"

NONCOMMUTING = """2
[["1","1"],["0","1"]]
[["0","1"],["1","0"]]
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_ssify_jordan3(tmp_path, capsys):
    path = _write(tmp_path, "v3.rep", JORDAN3_FILE)
    assert main(["ssify", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == 1
    assert payload["characters"] == [["2", "1"]] * 3
    assert payload["eta_dt1"] == [["0", "-3/2", "-13/8"],
                                  ["0", "0", "-5/2"],
                                  ["0", "0", "0"]]
    assert payload["eta_s"][0][1] == "-3/2*s1"
    assert payload["eta_s"][1][2] == "-5/2*s1"


def test_ssify_eta_s_with_both_generators(tmp_path, capsys):
    path = _write(tmp_path, "v3s.rep", TWOGEN_S1_S2_FILE)
    assert main(["ssify", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["eta_dt1"] == [["0", "1", "0"], ["0", "0", "0"],
                                  ["0", "0", "0"]]
    assert payload["eta_dt2"] == [["0", "1", "-1"], ["0", "0", "0"],
                                  ["0", "0", "0"]]
    assert payload["eta_s"] == [["0", "s1+s2", "-s2"], ["0", "0", "0"],
                                ["0", "0", "0"]]


def test_ssify_diagonal(tmp_path, capsys):
    path = _write(tmp_path, "diag.rep",
                  '2\n[["2","0"],["0","3"]]\n[["1","0"],["0","1"]]\n')
    assert main(["ssify", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["eta_dt1"] == [["0", "0"], ["0", "0"]]
    assert payload["eta_dt2"] == [["0", "0"], ["0", "0"]]


def test_ssify_noncommuting_exits_2(tmp_path, capsys):
    path = _write(tmp_path, "bad.rep", NONCOMMUTING)
    assert main(["ssify", path]) == 2
    assert "commute" in capsys.readouterr().err


def test_ssify_parse_error_exits_3(tmp_path, capsys):
    path = _write(tmp_path, "garbage.rep", "not a rep\n")
    assert main(["ssify", path]) == 3
    capsys.readouterr()


def test_t2_cohomology_zero_denominator_exits_3(tmp_path, capsys):
    path = _write(tmp_path, "zero_den.rep", '1\n[["1/0"]]\n[["1"]]\n')
    assert main(["t2-cohomology", path]) == 3
    assert capsys.readouterr().err.startswith("error:")


def test_t2_cohomology_trivial(tmp_path, capsys):
    path = _write(tmp_path, "triv.rep", '1\n[["1"]]\n[["1"]]\n')
    assert main(["t2-cohomology", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["betti_cellular"] == [1, 2, 1]
    assert payload["betti_model"] == [1, 2, 1]
    assert payload["agree"] is True


def test_t2_cohomology_character(tmp_path, capsys):
    path = _write(tmp_path, "char.rep", '1\n[["2"]]\n[["1"]]\n')
    assert main(["t2-cohomology", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["betti_cellular"] == [0, 0, 0]
    assert payload["agree"] is True


def test_t2_cohomology_v5_unipotent(tmp_path, capsys):
    path = _write(tmp_path, "v5.rep", TWOGEN_FILE)
    assert main(["t2-cohomology", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["betti_cellular"][0] == 1
    assert payload["agree"] is True


def test_t2_cohomology_single_backend(tmp_path, capsys):
    path = _write(tmp_path, "triv.rep", '1\n[["1"]]\n[["1"]]\n')
    assert main(["t2-cohomology", path, "--backend", "cellular"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "betti_model" not in payload


def test_verify_passes_and_is_deterministic(tmp_path, capsys):
    out1 = str(tmp_path / "r1.json")
    out2 = str(tmp_path / "r2.json")
    assert main(["verify", "--out", out1]) == 0
    first_stdout = capsys.readouterr().out
    assert main(["verify", "--out", out2]) == 0
    second_stdout = capsys.readouterr().out
    assert first_stdout == second_stdout
    b1 = open(out1, "rb").read()
    b2 = open(out2, "rb").read()
    assert b1 == b2
    # the report is pinned byte for byte: a change that alters it updates
    # this digest and says why in CHANGES.md
    assert hashlib.sha256(b1).hexdigest() == (
        "98278952c54c3961b2bbfda0e34fef09f29968892eebd0a6509fd4178febbdd8")
    payload = json.loads(b1)
    assert payload["pass"] is True
    assert payload["sections"]["chain_map"]["s1"]["failing"] == ["xb"]
    assert payload["sections"]["chain_map"]["s2"]["failing"] == []


def test_verify_computes_each_normal_form_once(monkeypatch):
    import t2mc.cli as cli

    calls = []
    real = cli.rep_to_mc
    monkeypatch.setattr(cli, "rep_to_mc", lambda r, bound=4: calls.append(
        (r.g1.entries, r.g2.entries, bound)) or real(r, bound=bound))
    cli.build_verification_report((2, 3, 5, 7))
    # 10 family pairs, shared by three sections, and 4 used once
    assert len(calls) == len(set(calls)) == 14


def test_iso_section_rejects_a_map_that_is_not_invertible(monkeypatch):
    import t2mc.cli as cli
    from t2mc.mcdg import ExtensionIsoResult, HomElement
    from t2mc.t2forms import sq

    real = cli.extension_iso

    def singular(e1, e2):
        iso = real(e1, e2)
        rows = [list(row) for row in iso.map]
        rows[1][1] = sq(0)
        return ExtensionIsoResult(HomElement(rows, 0), iso.gamma)

    assert cli._iso_section()["invertible"] is True
    monkeypatch.setattr(cli, "extension_iso", singular)
    section = cli._iso_section()
    assert section["invertible"] is False and section["pass"] is False


def test_t2_cohomology_disagreement_exits_4(tmp_path, capsys, monkeypatch):
    import t2mc.cli as cli
    monkeypatch.setattr(cli, "_model_betti", lambda rep, bound: (9, 9, 9))
    path = _write(tmp_path, "triv.rep", '1\n[["1"]]\n[["1"]]\n')
    assert main(["t2-cohomology", path]) == 4
    err = capsys.readouterr().err
    # the message names both witnesses of the disagreement
    assert "cellular [1, 2, 1]" in err
    assert "model [9, 9, 9]" in err


def test_t2_cohomology_both_validates_the_parsed_rep_once(tmp_path,
                                                          monkeypatch):
    # the cellular backend validates it; semisimplify finds that recorded,
    # and the triangular pair it builds is valid by inheritance
    import t2mc.cli as cli
    import t2mc.torus_rep as torus_rep

    parsed, checked = [], []
    real_parse, real_validate = cli.parse_rep, torus_rep.validate
    monkeypatch.setattr(cli, "parse_rep", lambda text: parsed.append(
        real_parse(text)) or parsed[-1])
    monkeypatch.setattr(torus_rep, "validate", lambda r: checked.append(r)
                        or real_validate(r))
    path = _write(tmp_path, "a.rep", '3\n[["1","1","2"],["0","1","3"],'
                  '["0","0","2"]]\n[["1","0","0"],["0","1","0"],'
                  '["0","0","1"]]\n')
    out = str(tmp_path / "a.json")
    assert main(["t2-cohomology", path, "--backend", "both", "--out",
                 out]) == 0
    assert len(parsed) == 1
    assert [r is parsed[0] for r in checked] == [True]


def test_t2_cohomology_straightening_failure_names_its_system(tmp_path,
                                                              capsys):
    n = 6  # the unipotent J6 needs polynomial degree 5; the default is 4
    rows1 = [[str(int(j in (i, i + 1))) for j in range(n)] for i in range(n)]
    rows2 = [[str(int(i == j)) for j in range(n)] for i in range(n)]
    path = _write(tmp_path, "j6.rep",
                  f"{n}\n{json.dumps(rows1)}\n{json.dumps(rows2)}\n")
    assert main(["t2-cohomology", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    for part in ("stage 5", "polynomial degree 4", "160 x 80"):
        assert part in captured.err
    out = tmp_path / "report.json"
    out.write_text("earlier report\n", encoding="utf-8")
    assert main(["t2-cohomology", path, "--out", str(out)]) == 2
    assert capsys.readouterr().out == ""
    assert out.read_text(encoding="utf-8") == "earlier report\n"


J2_ROOT2 = ('4\n[["1","1","0","0"],["0","1","0","0"],["0","0","0","1"],'
            '["0","0","2","0"]]\n[["1","0","0","0"],["0","1","0","0"],'
            '["0","0","1","0"],["0","0","0","1"]]\n')


def test_t2_cohomology_model_route_sees_only_the_trivial_character(
        tmp_path, capsys, monkeypatch):
    # J2 ⊕ [[0, 1], [2, 0]] (eigenvalues ±√2) is not triangularizable over
    # Q, but its V_(1,1) is J2; ssify still needs all of V
    path = _write(tmp_path, "root2.rep", J2_ROOT2)
    assert main(["t2-cohomology", path, "--backend", "both"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["betti_cellular"] == payload["betti_model"] == [1, 2, 1]
    assert main(["ssify", path]) == 2
    assert "no common rational eigenvector" in capsys.readouterr().err
    # two large prime eigenvalues: V_(1,1) = 0, so no rational spectrum is
    # searched for
    import t2mc.torus_rep as torus_rep

    def no_divisors(v):
        raise AssertionError("_divisors called")

    monkeypatch.setattr(torus_rep, "_divisors", no_divisors)
    path = _write(tmp_path, "primes.rep", '2\n[["1000000007","0"],'
                  '["0","1000000009"]]\n[["1","0"],["0","1"]]\n')
    assert main(["t2-cohomology", path, "--backend", "both"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["betti_cellular"] == payload["betti_model"] == [0, 0, 0]


def test_verify_single_variant(capsys):
    assert main(["verify", "--variant", "s2"]) == 0
    out = capsys.readouterr().out
    assert "s2 failing generators: []" in out


def test_verify_custom_params(capsys):
    assert main(["verify", "--params", "3,2,7,5"]) == 0
    capsys.readouterr()


def test_verify_negative_params_take_the_equals_form(tmp_path, capsys):
    # argparse reads "-1,2,3,4" after a space as an option, not a value;
    # joined by "=" the negative parameter reaches the report
    out = tmp_path / "report.json"
    assert main(["verify", "--params=-1,2,3,4", "--out", str(out)]) == 0
    assert capsys.readouterr().out.endswith("overall: ok\n")
    assert json.loads(out.read_text())["params"] == ["-1", "2", "3", "4"]


def test_verify_declared_relations(tmp_path, capsys):
    expected = {
        "(1,1,1,1)": ([1, 2, 1, 0, 0, 1, 5, 7, 3],
                      [1, 2, 1, 0, 0, 0, 1, 2, 1]),
        "(1,0,1,0);(0,1,0,1)": ([1, 2, 1, 3, 6, 4, 6, 9, 7],
                                [1, 2, 1, 2, 4, 2, 2, 4, 4]),
    }
    for relations, (dims, betti) in expected.items():
        out = tmp_path / "report.json"
        assert main(["verify", "--relations", relations,
                     "--out", str(out)]) == 0
        assert "[ok] declared_relations" in capsys.readouterr().out
        section = json.loads(out.read_text())["sections"][
            "declared_relations"]
        assert (section["dims"], section["betti"]) == (dims, betti)
        assert section["pass"] is True
    assert main(["verify", "--relations", "(1,2)"]) == 2
    assert "relations are integer 4-vectors" in capsys.readouterr().err


@pytest.mark.parametrize("part", ["dims", "bases"])
def test_verify_declared_relations_fail_on_a_shrunk_model(monkeypatch,
                                                          capsys, part):
    # relations only make more characters trivial: a relations model that
    # loses its degree-0 unit, or a generic degree-1 invariant, fails
    import t2mc.cli as cli
    from t2mc.xmodel import NilpotentModel

    real = cli.nilpotent_model

    def shrunk(pspec, *args, **kwargs):
        nil = real(pspec, *args, **kwargs)
        if not pspec.relations:
            return nil
        if part == "dims":
            return NilpotentModel(nil.model, (0,) + nil.dims[1:], nil.betti,
                                  nil.bases)
        return NilpotentModel(nil.model, nil.dims, nil.betti,
                              {**nil.bases, 1: []})

    monkeypatch.setattr(cli, "nilpotent_model", shrunk)
    assert main(["verify", "--relations", "(1,1,1,1)"]) == 4
    out = capsys.readouterr().out
    assert "[FAIL] declared_relations" in out
    assert "[ok] nilpotent_models" in out


def test_verify_malformed_options_are_parse_errors(capsys):
    for argv, message in (
            (["--params", "1,2"], "--params needs a1,b1,a2,b2"),
            (["--params", "1,x,1,1"], "bad parameter value"),
            (["--relations", "(a,1,1,1)"], "bad relation '(a,1,1,1)'")):
        assert main(["verify", *argv]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")


def test_verify_builds_each_local_system_report_once(monkeypatch):
    import t2mc.cli as cli
    import t2mc.t2forms as t2forms
    import t2mc.xmodel as xmodel

    sources = {"build_local_system": t2forms, "is_global_section": t2forms,
               "build_total_model": xmodel}
    calls = dict.fromkeys(sources, 0)
    for name, source in sources.items():
        real = getattr(source, name)

        def counting(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        for module in (cli, xmodel):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting)
    cli.build_verification_report((2, 3, 5, 7))
    # one local system, shared by both chain-map variants and both action
    # comparisons; its five global-section reports, shared by both chain-map
    # variants; one specialized total model per variant, one generic model
    # per variant for the integrity and X-complex sections, one per
    # nilpotent model
    assert calls == {"build_local_system": 1, "is_global_section": 5,
                     "build_total_model": 6}


def test_verify_reduces_one_entry_block_and_each_invariant_basis_once(
        monkeypatch):
    import t2mc.cli as cli
    import t2mc.gca as gca
    import t2mc.mcdg as mcdg
    import t2mc.qlinalg as qlinalg
    import t2mc.xmodel as xmodel

    enumerations, enumerated, models = [0], [], []
    eliminations, straightened, inside = [0], [0], []
    real_forward, real_straighten = qlinalg._forward, mcdg.straighten

    def forward(*args):
        eliminations[0] += bool(inside)
        return real_forward(*args)

    def straighten(*args):
        straightened[0] += 1
        inside.append(True)
        try:
            return real_straighten(*args)
        finally:
            inside.pop()

    real_enumerate = gca.AlgebraPresentation.enumerate_basis
    real_basis = xmodel.invariant_basis

    def enumerate_basis(self, n):
        enumerations[0] += 1
        return real_enumerate(self, n)

    def invariant_basis(model, coeff_chars, n):
        before = enumerations[0]
        out = real_basis(model, coeff_chars, n)
        if enumerations[0] != before:
            models.append(model)  # kept alive, so no id is reused
            enumerated.append((id(model), tuple(coeff_chars), n))
        return out

    monkeypatch.setattr(gca.AlgebraPresentation, "enumerate_basis",
                        enumerate_basis)
    for module in (cli, xmodel):
        monkeypatch.setattr(module, "invariant_basis", invariant_basis)
    monkeypatch.setattr(qlinalg, "_forward", forward)
    monkeypatch.setattr(mcdg, "straighten", straighten)
    cli.build_verification_report((2, 3, 5, 7))
    # the battery's straightenings integrate in closed form: no elimination
    # (`_reduce`, `rank` and `solve` all start in `_forward`) runs inside them
    assert straightened[0] >= 20 and eliminations[0] == 0
    # no (model, characters, degree) invariant basis is enumerated twice
    assert enumerated and len(set(enumerated)) == len(enumerated)


def _model_side_counts(monkeypatch):
    """From here on count `mc_check` calls and Matrix products and, per
    `twisted_invariants_complex` call, the element products it forms itself
    (those inside a monomial differential not included) and the distinct
    monomials of its column bases."""
    import t2mc.cli as cli
    import t2mc.gca as gca
    import t2mc.mcdg as mcdg
    import t2mc.qlinalg as qlinalg
    import t2mc.xmodel as xmodel

    counts = {"mc_check": 0, "matmul": 0, "products": 0}
    complexes, in_d = [], [0]
    real_check, real_matmul = mcdg.mc_check, qlinalg.Matrix.__mul__
    real_mul = gca.Element.__mul__
    real_d_mono = gca.AlgebraPresentation._d_mono
    real_complex = xmodel.twisted_invariants_complex

    def mc_check(o):
        counts["mc_check"] += 1
        return real_check(o)

    def matmul(a, b):
        counts["matmul"] += isinstance(b, qlinalg.Matrix)
        return real_matmul(a, b)

    def mul(a, b):
        counts["products"] += not in_d[0]
        return real_mul(a, b)

    def d_mono(pres, m):
        in_d[0] += 1
        try:
            return real_d_mono(pres, m)
        finally:
            in_d[0] -= 1

    def twisted_invariants_complex(model, o, bound):
        before = counts["products"]
        cx = real_complex(model, o, bound)
        monos = {label.split("@")[0] for n in range(bound + 1)
                 for label in cx.basis[n]}
        complexes.append((counts["products"] - before, len(monos)))
        return cx

    monkeypatch.setattr(mcdg, "mc_check", mc_check)
    monkeypatch.setattr(qlinalg.Matrix, "__mul__", matmul)
    monkeypatch.setattr(gca.Element, "__mul__", mul)
    monkeypatch.setattr(gca.AlgebraPresentation, "_d_mono", d_mono)
    for module in (cli, xmodel):
        monkeypatch.setattr(module, "twisted_invariants_complex",
                            twisted_invariants_complex)
    return counts, complexes


def test_verify_forms_each_model_side_fact_once(tmp_path, capsys,
                                               monkeypatch):
    # mc_to_s inherits rep_to_mc's check, each complex keeps its D² verdict,
    # and each complex forms s1·mono and s2·mono once per basis monomial
    counts, complexes = _model_side_counts(monkeypatch)
    assert main(["verify", "--out", str(tmp_path / "v.json")]) == 0
    capsys.readouterr()
    assert (counts["mc_check"], counts["matmul"]) == (17, 177)
    assert len(complexes) == 15
    assert all(products <= 2 * monos for products, monos in complexes)


def test_jordan_ladder_checks_each_normal_form_once(tmp_path, capsys,
                                                    monkeypatch):
    spec = importlib.util.spec_from_file_location("_bench_inputs",
                                                  BENCH_INPUTS)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    items = inputs.jordan_ladder_inputs(1, str(tmp_path))
    assert len(items) == 6
    counts, complexes = _model_side_counts(monkeypatch)
    for item in items:
        assert main(["t2-cohomology", item["rep"], "--backend", "both",
                     "--bound", str(item["bound"]), "--out",
                     item["out"]]) == 0
    capsys.readouterr()
    assert counts["mc_check"] == 6
    assert len(complexes) == 6
    assert all(products <= 2 * monos for products, monos in complexes)


def test_ssify_at_a_huge_bound_matches_the_default(tmp_path, capsys,
                                                   monkeypatch):
    # neither straighten nor the splitting corner has a system sized by the
    # bound, so a 2 x 2 Jordan block, and J3 with g2 = g1² (whose last
    # corner is not linear in t), answer at --bound 300 as at --bound 4
    import t2mc.mcdg as mcdg
    solves = []
    real = mcdg._solve_sparse
    monkeypatch.setattr(mcdg, "_solve_sparse",
                        lambda *a: solves.append(1) or real(*a))
    j2 = _write(tmp_path, "j2.rep", """2
[["1","1"],["0","1"]]
[["1","0"],["0","1"]]
""")
    j3_squared = _write(tmp_path, "j3sq.rep", """3
[["1","1","0"],["0","1","1"],["0","0","1"]]
[["1","2","1"],["0","1","2"],["0","0","1"]]
""")
    etas = []
    for path in (j2, j3_squared):
        outputs = []
        for bound in ("4", "300"):
            assert main(["ssify", path, "--bound", bound]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        etas.append(json.loads(outputs[0])["eta_dt1"])
    assert etas == [[["0", "-1"], ["0", "0"]],
                    [["0", "-1", "1/2"], ["0", "0", "-1"], ["0", "0", "0"]]]
    assert solves == []


def test_ssify_at_bound_0_on_two_characters(tmp_path, capsys):
    # characters (1/2, 1) and (2, 1): the splitting corner is the constant
    # -4/3, so the class is already constant and bound 0 answers as bound 4
    path = _write(tmp_path, "two_chars.rep", """2
[["1/2","-2"],["0","2"]]
[["1","0"],["0","1"]]
""")
    outputs = []
    for bound in ("4", "0"):
        assert main(["ssify", path, "--bound", bound]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]


def test_bound_help_names_the_straightening_chains(capsys):
    for command in ("ssify", "t2-cohomology"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert ("--bound BOUND polynomial degree bound for the straightening "
                "chains (default 4)") in text


@pytest.mark.parametrize("command", ["ssify", "t2-cohomology", "verify"])
def test_unwritable_out_is_a_parse_error(command, tmp_path, monkeypatch,
                                         capsys):
    import t2mc.cli as cli

    # verify's battery is not what is tested: a passing stub stands for it
    monkeypatch.setattr(cli, "build_verification_report",
                        lambda *args: {"sections": {}, "pass": True})
    argv = [command] if command == "verify" else [
        command, _write(tmp_path, "j3.rep", JORDAN3_FILE)]
    out = tmp_path / "missing" / "report.json"
    assert main([*argv, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ")
    assert "Traceback" not in err


def test_verify_checks_out_before_printing(tmp_path, monkeypatch, capsys):
    # an unwritable --out fails before any section line claims success;
    # a writable one leaves stdout as it is without --out, less the JSON
    import t2mc.cli as cli

    report = {"sections": {"betti_oracle": {"pass": True}}, "pass": True}
    monkeypatch.setattr(cli, "build_verification_report",
                        lambda *args: report)
    missing = tmp_path / "missing" / "report.json"
    assert main(["verify", "--out", str(missing)]) == 3
    assert capsys.readouterr().out == ""
    assert main(["verify", "--out", str(tmp_path / "report.json")]) == 0
    lines = "[ok] betti_oracle\noverall: ok\n"
    assert capsys.readouterr().out == lines
    assert main(["verify"]) == 0
    assert capsys.readouterr().out.startswith(lines + "{")


def test_malformed_bound_is_a_parse_error(tmp_path, capsys):
    path = _write(tmp_path, "j3.rep", JORDAN3_FILE)
    for argv in (["t2-cohomology", path, "--bound", "abc"],
                 ["ssify", path, "--bound", "1.5"],
                 ["ssify", path, "--bound", "-1"]):
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error: --bound needs a nonnegative integer, not ")


# -- the parser is built once per process -------------------------------------

def test_parser_is_built_on_the_first_call_only(tmp_path, capsys,
                                                monkeypatch):
    import argparse
    import importlib.util

    import t2mc.cli as cli

    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    # a second copy of the module, imported as a new process would
    spec = importlib.util.spec_from_file_location("t2mc._cli_fresh",
                                                  cli.__file__)
    fresh = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fresh)
    assert built == []  # importing builds nothing
    path = _write(tmp_path, "triv.rep", '1\n[["1"]]\n[["1"]]\n')
    argv = ["t2-cohomology", path, "--backend", "cellular"]
    assert fresh.main(argv) == 0
    after_one = len(built)
    assert after_one == 4  # the parser and its three subparsers
    assert fresh.main(argv) == 0
    assert len(built) == after_one
    capsys.readouterr()


def test_reused_parser_applies_each_calls_defaults(tmp_path, capsys):
    path = _write(tmp_path, "triv.rep", '1\n[["1"]]\n[["1"]]\n')
    assert main(["t2-cohomology", path, "--backend", "cellular",
                 "--bound", "2"]) == 0
    first = json.loads(capsys.readouterr().out)
    assert first["backend"] == "cellular" and "betti_model" not in first
    assert main(["t2-cohomology", path]) == 0
    second = json.loads(capsys.readouterr().out)
    assert second["backend"] == "both"
    assert second["betti_model"] == [1, 2, 1] and second["agree"] is True


def test_usage_error_leaves_the_parser_as_a_fresh_process_has_it(tmp_path,
                                                                 capsys):
    import os
    import subprocess
    import sys

    import t2mc.cli as cli
    path = _write(tmp_path, "j3.rep", JORDAN3_FILE)
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    fresh = subprocess.run([sys.executable, "-m", "t2mc.cli", "ssify", path],
                           capture_output=True, text=True, env=env,
                           timeout=120)
    assert fresh.returncode == 0
    for bad in (["nosuch"], ["ssify", path, "--backend", "both"]):
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: t2mc")
    assert main(["ssify", path]) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (fresh.stdout, fresh.stderr)


def test_helper_patched_after_the_parser_is_built_takes_effect(
        tmp_path, capsys, monkeypatch):
    import t2mc.cli as cli
    path = _write(tmp_path, "triv.rep", '1\n[["1"]]\n[["1"]]\n')
    assert main(["t2-cohomology", path]) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli, "_model_betti", lambda rep, bound: (7, 7, 7))
    assert main(["t2-cohomology", path]) == 4
    assert "model [7, 7, 7]" in capsys.readouterr().err


def test_negative_dimension_is_a_bad_dimension_line(tmp_path, capsys):
    path = _write(tmp_path, "neg.rep", '-1\n[]\n[]\n')
    for argv in (["ssify", path], ["t2-cohomology", path]):
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: bad dimension line '-1'\n"
