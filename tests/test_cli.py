import csv
import json

import jsonschema
import pytest

from submult.cli import main
from submult.report import load_schema


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run_cli(capsys, *argv)
    return code, json.loads(out)


def scrub(envelope):
    envelope = json.loads(json.dumps(envelope))
    envelope.pop("generated_at", None)
    for rep in envelope["reports"]:
        rep.pop("elapsed_seconds", None)
    return envelope


# --- eval --------------------------------------------------------------------


def test_eval_outputs(capsys):
    assert run_cli(capsys, "eval", "sigma", "100")[:2] == (0, "217\n")
    assert run_cli(capsys, "eval", "sigma_over_d", "12")[:2] == (0, "14/3\n")
    assert run_cli(capsys, "eval", "phi", "1")[:2] == (0, "1\n")


def test_eval_beyond_the_sieve(capsys):
    assert run_cli(capsys, "eval", "sigma", str(10**18 + 3))[:2] == (
        0, f"{10**18 + 4}\n")
    code, out, err = run_cli(capsys, "eval", "sigma", str((10**9 + 7) * (10**9 + 9)))
    assert (code, out) == (2, "")
    assert "cannot factor" in err


def test_resource_refusals_exit_2(capsys, monkeypatch):
    from submult import cli, core

    def never(limit):
        raise AssertionError("the sieve was allocated")

    monkeypatch.setattr(core._sieve, "spf_sieve", never)
    code, _, err = run_cli(capsys, "check", "d", "k-sup-mult", "--k", "3",
                           "--max-m", "1000000", "--max-n", "1000000")
    assert code == 2 and "physical memory" in err

    def out_of_memory(limit):
        raise MemoryError

    monkeypatch.setattr(cli, "build_spf_table", out_of_memory)
    code, _, err = run_cli(capsys, "check", "d", "sub-mult")
    assert code == 2 and "out of memory" in err


def test_eval_unknown_function_exits_2(capsys):
    code, out, err = run_cli(capsys, "eval", "totient", "5")
    assert code == 2
    assert "unknown function" in err


def test_eval_domain_error_exits_2(capsys):
    code, _, err = run_cli(capsys, "eval", "phi", "0")
    assert code == 2
    assert "n >= 1" in err


# --- check -------------------------------------------------------------------


def test_check_holds_exit_0(capsys):
    code, out, err = run_cli(capsys, "check", "phi", "sup-mult",
                             "--max-m", "100", "--max-n", "100")
    assert code == 0
    assert "holds-on-range" in out
    assert "sieve limit: 10000" in err


def test_check_refuted_exit_1_with_smallest_counterexample(capsys):
    code, env = run_json(capsys, "check", "d", "sup-mult",
                         "--max-m", "10", "--max-n", "10", "--json")
    assert code == 1
    rep = env["reports"][0]
    assert rep["verdict"] == "refuted"
    first = rep["counterexamples"][0]
    assert first["point"] == {"m": 2, "n": 2}
    assert first["lhs"] == {"value": "3"}
    assert first["rhs"] == {"value": "4"}


def test_check_k_family(capsys):
    code, env = run_json(capsys, "check", "d", "k-sup-mult", "--k", "2",
                         "--max-m", "50", "--max-n", "50", "--json")
    assert code == 0
    assert env["reports"][0]["property"] == "k-sup-mult(k=2)"


def test_check_k_family_sieves_to_m_times_n(capsys):
    # m^3, n^3 up to 10^9 are factored from m, n: a 10^6 sieve does
    code, out, err = run_cli(capsys, "check", "d", "k-sup-mult", "--k", "3",
                             "--max-m", "1000", "--max-n", "1000")
    assert code == 0
    assert "sieve limit: 1000000\n" in err
    assert "holds-on-range" in out


def test_check_bad_property_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "phi", "nonsense"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ("check", "phi", "sub-mult", "--max-m", "12", "--max-n", "12"),
    ("local", "phi", "eq14", "sub", "--bridge", "--max-prime", "7",
     "--max-exp", "2", "--max-m", "12", "--max-n", "12"),
], ids=["check", "local-bridge"])
def test_k_is_ignored_where_the_property_takes_none(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--json")
    assert code == 1
    code_k, out_k, err_k = run_cli(capsys, *argv, "--k", "1", "--json")
    assert (code_k, err_k) == (code, err)
    assert scrub(json.loads(out_k)) == scrub(json.loads(out))
    code, _, err = run_cli(capsys, "check", "phi", "k-sub-mult", "--k", "1")
    assert code == 2 and "k >= 2" in err


# --- local -------------------------------------------------------------------


def test_local_holds(capsys):
    code, env = run_json(capsys, "local", "d", "eq14", "sub",
                         "--max-prime", "100", "--max-exp", "20", "--json")
    assert code == 0
    assert env["reports"][0]["verdict"] == "holds-on-range"


def test_local_refuted_exit_1(capsys):
    code, env = run_json(capsys, "local", "phi", "eq14", "sub",
                         "--max-prime", "10", "--max-exp", "3", "--json")
    assert code == 1
    assert env["reports"][0]["counterexamples"][0]["point"] == {"p": 2, "a": 1, "b": 1}


def test_local_bridge_adds_sections(capsys):
    code, env = run_json(capsys, "local", "sigma", "eq21", "sup", "--bridge",
                         "--max-prime", "50", "--max-exp", "8", "--json")
    assert code == 0
    kinds = [r["kind"] for r in env["reports"]]
    assert kinds == ["local-criterion", "property-check", "bridge"]
    assert env["reports"][2]["consistent"] is True


def test_local_records_the_bridge_grid_only_with_the_bridge(capsys):
    local = ("local", "sigma", "eq21", "sup", "--max-prime", "7", "--max-exp", "2",
             "--max-m", "12", "--max-n", "9", "--json")
    _, bridged = run_json(capsys, *local, "--bridge")
    _, alone = run_json(capsys, *local)
    assert (bridged["inputs"]["max_m"], bridged["inputs"]["max_n"]) == (12, 9)
    assert bridged["reports"][1]["params"]["max_m"] == 12
    assert "max_m" not in alone["inputs"] and "max_n" not in alone["inputs"]


def test_json_is_one_line(capsys):
    code, out, _ = run_cli(capsys, "local", "sigma", "eq21", "sup", "--bridge",
                           "--max-prime", "7", "--max-exp", "2", "--json")
    assert code == 0 and out.count("\n") == 1 and out.endswith("}\n")
    assert json.loads(out)["command"] == "local"


# --- classify ----------------------------------------------------------------


def test_classify_informative_exit_0(capsys):
    code, env = run_json(capsys, "classify", "constant-1",
                         "--max-m", "10", "--max-n", "10", "--json")
    assert code == 0  # refuted rows do not fail classification
    verdicts = {r["property"]: r["verdict"] for r in env["reports"]}
    assert verdicts["sup-hom"] == "refuted"
    assert verdicts["sub-mult"] == "holds-on-range"


def test_classify_k_set(capsys):
    code, env = run_json(capsys, "classify", "phi", "--max-m", "10",
                         "--max-n", "10", "--k-set", "2,3", "--json")
    props = [r["property"] for r in env["reports"]]
    assert "k-sub-mult(k=2)" in props and "k-sub-mult(k=3)" in props


# --- inequality --------------------------------------------------------------


def test_inequality_commands(capsys):
    assert run_cli(capsys, "inequality", "eq12", "--max-prime", "1000")[0] == 0
    assert run_cli(capsys, "inequality", "eq13", "--max-n", "300")[0] == 0
    assert run_cli(capsys, "inequality", "eq20", "--max-ab", "20",
                   "--max-k", "4")[0] == 0
    assert run_cli(capsys, "inequality", "eq16")[0] == 0
    assert run_cli(capsys, "inequality", "eq23", "--k", "3")[0] == 0


def test_inequality_corollary1(capsys):
    code, env = run_json(capsys, "inequality", "corollary1", "--f", "sigma",
                         "--g", "phi", "--max-prime", "100", "--max-n", "200",
                         "--json")
    assert code == 0
    assert len(env["reports"]) == 2


@pytest.mark.parametrize("argv, message", [
    (("corollary1", "--f", "phi", "--g", "phi", "--max-prime", "5",
      "--max-n", "30000000"), "corollary1 requires a sub-mult tag on phi"),
    (("corollary1", "--f", "sigma", "--g", "sigma", "--max-prime", "5",
      "--max-n", "30000000"), "corollary1 requires a sub-hom tag on sigma"),
    (("corollary1", "--max-prime", "1", "--max-n", "1"),
     "need max_prime >= 2 and max_n >= 2"),
    (("corollary1", "--max-prime", "1", "--max-n", "30000000"),
     "need max_prime >= 2 and max_n >= 2"),
    (("eq13", "--max-n", "1"), "max_n must be >= 2"),
], ids=["f-untagged", "g-untagged", "both-ranges", "max-prime", "eq13-max-n"])
def test_inequality_inputs_are_refused_before_the_sieve(capsys, monkeypatch, argv,
                                                        message):
    """Bad tags and ranges are refused with their own message, before a
    sieve limit is announced or a sieve built."""
    from submult import core

    def never(limit):
        raise AssertionError("the sieve was built")

    monkeypatch.setattr(core._sieve, "spf_sieve", never)
    code, out, err = run_cli(capsys, "inequality", *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


# each id with its own flags, and a flag of another id that it does not read
@pytest.mark.parametrize("argv, inputs", [
    (("eq12", "--max-prime", "30", "--max-n", "9"), {"max_prime": 30}),
    (("eq13", "--max-n", "30", "--k", "5"), {"max_n": 30}),
    (("eq16", "--max-prime", "7", "--max-exp", "3", "--max-ab", "4"),
     {"max_prime": 7, "max_exp": 3}),
    (("eq20", "--max-ab", "4", "--max-k", "3", "--max-prime", "7"),
     {"max_ab": 4, "max_k": 3}),
    (("eq23", "--max-prime", "7", "--max-exp", "3", "--k", "3", "--max-n", "9"),
     {"max_prime": 7, "max_exp": 3, "k": 3}),
    (("corollary1", "--max-prime", "20", "--max-n", "30", "--max-exp", "3"),
     {"max_prime": 20, "max_n": 30, "f": "sigma", "g": "phi"}),
], ids=["eq12", "eq13", "eq16", "eq20", "eq23", "corollary1"])
def test_inequality_records_only_the_inputs_it_reads(capsys, argv, inputs):
    _, env = run_json(capsys, "inequality", *argv, "--json")
    assert env["inputs"] == {"id": argv[0], **inputs, "threads": 1}


def test_inequality_bad_id_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["inequality", "eq99"])
    assert exc.value.code == 2


# --- envelope contract -------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ("check", "d", "sup-mult", "--max-m", "10", "--max-n", "10", "--json"),
    ("local", "sigma", "eq21", "sup", "--bridge", "--max-prime", "20",
     "--max-exp", "5", "--json"),
    ("classify", "phi", "--max-m", "10", "--max-n", "10", "--json"),
    ("inequality", "eq13", "--max-n", "50", "--json"),
])
def test_json_validates_against_shipped_schema(capsys, argv):
    _, env = run_json(capsys, *argv)
    jsonschema.validate(env, load_schema())


def test_csv_export(capsys, tmp_path):
    path = tmp_path / "cex.csv"
    code, _, _ = run_cli(capsys, "check", "d", "sup-mult", "--max-m", "10",
                         "--max-n", "10", "--csv", str(path))
    assert code == 1
    rows = list(csv.reader(path.open()))
    assert rows[0] == ["function", "property", "point", "lhs", "rhs"]
    assert rows[1] == ["d", "sup-mult", "m=2;n=2", "3", "4"]


def test_local_reports_name_their_criterion_in_full(capsys, tmp_path):
    """The human line and the CSV rows of a local report name the criterion
    as LocalCriterion.label() does, and so as the bridge line does: sub and
    sup, or two values of k, stay apart."""
    path = tmp_path / "cex.csv"
    code, out, _ = run_cli(capsys, "local", "d", "eq18", "sub", "--k", "3",
                           "--max-prime", "5", "--max-exp", "2", "--csv", str(path))
    assert code == 1
    assert out.startswith("d  eq18:sub(k=3)  refuted  (27 triples, ")
    rows = list(csv.reader(path.open()))
    assert rows[1] == ["d", "eq18:sub(k=3)", "p=2;a=0;b=1", "8", "4"]
    code, out, _ = run_cli(capsys, "local", "d", "eq14", "sup", "--bridge",
                           "--max-prime", "5", "--max-exp", "2", "--max-m", "6",
                           "--max-n", "6", "--csv", str(path))
    assert code == 1
    assert out.startswith("d  eq14:sup  refuted  (27 triples, ")
    assert "\nbridge eq14:sup vs sup-mult: consistent\n" in out
    assert {tuple(row[:2]) for row in csv.reader(path.open())} == {
        ("function", "property"), ("d", "eq14:sup"), ("d", "sup-mult")}


def test_unwritable_csv_path_exits_2(capsys, tmp_path):
    """Exit 1 means refuted, so a file that cannot be written is an error."""
    path = tmp_path / "missing" / "x.csv"
    code, out, err = run_cli(capsys, "check", "sigma", "sub-mult", "--max-m", "5",
                             "--max-n", "5", "--csv", str(path))
    assert (code, out) == (2, "")
    assert err.splitlines()[0] == "sieve limit: 25"
    assert err.splitlines()[1].startswith("error: ") and str(path) in err
    assert len(err.splitlines()) == 2 and "Traceback" not in err


@pytest.mark.parametrize("output", [[], ["--json"], ["--csv"]],
                         ids=["human", "json", "csv"])
def test_values_too_long_for_text_exit_2(capsys, tmp_path, output):
    # the first counterexample's lhs, sigma(4)^100000 = 7^100000, has
    # 84,510 digits, beyond the 4,300 Python converts to text by default
    path = tmp_path / "cex.csv"
    argv = [*output, str(path)] if output == ["--csv"] else output
    code, out, err = run_cli(capsys, "check", "sigma", "k-sub-mult", "--k", "100000",
                             "--max-m", "3", "--max-n", "3", *argv)
    assert (code, out) == (2, "")
    assert err.splitlines()[-1].startswith("error: a value to report has more than")
    assert not path.exists()


def test_no_color_in_captured_output(capsys):
    _, out, _ = run_cli(capsys, "check", "phi", "sup-mult",
                        "--max-m", "10", "--max-n", "10")
    assert "\033[" not in out  # not a tty


def test_threads_do_not_change_json(capsys):
    args = ("check", "phi", "sup-mult", "--max-m", "100", "--max-n", "100",
            "--json")
    _, one = run_json(capsys, *args, "--threads", "1")
    _, eight = run_json(capsys, *args, "--threads", "8")
    a, b = scrub(one), scrub(eight)
    a["inputs"].pop("threads")
    b["inputs"].pop("threads")
    assert a == b


def test_rerun_identical_modulo_timestamps(capsys):
    args = ("classify", "sigma", "--max-m", "20", "--max-n", "20", "--json")
    _, first = run_json(capsys, *args)
    _, second = run_json(capsys, *args)
    assert scrub(first) == scrub(second)


# --- one parser per process ----------------------------------------------------


def test_the_parser_is_built_once_and_keeps_no_state(capsys):
    """main() parses every command with the one cached parser; a flag, an
    option or a usage error of one call does not reach the next."""
    from submult import cli

    assert run_cli(capsys, "eval", "d", "12")[:2] == (0, "6\n")
    assert cli.build_parser() is cli.build_parser()
    local = ("local", "sigma", "eq21", "sup", "--max-prime", "7", "--max-exp", "2",
             "--max-m", "6", "--max-n", "6", "--json")
    _, bridged = run_json(capsys, *local[:4], "--bridge", *local[4:])
    _, alone = run_json(capsys, *local)
    assert len(bridged["reports"]) == 3
    assert len(alone["reports"]) == 1 and alone["inputs"]["bridge"] is False
    check = ("check", "d", "k-sup-mult", "--max-m", "6", "--max-n", "6", "--json")
    _, k3 = run_json(capsys, *check, "--k", "3")
    _, default = run_json(capsys, *check)
    assert k3["reports"][0]["params"]["k"] == 3
    assert default["reports"][0]["params"]["k"] == 2
    assert default["inputs"]["k"] == 2
    with pytest.raises(SystemExit) as exc:
        main(["check", "d", "sup-mult", "--max-m"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, env = run_json(capsys, "check", "d", "sup-mult", "--json")
    assert code == 1
    assert env["inputs"]["max_m"] == env["inputs"]["max_n"] == 100
    assert env["reports"][0]["pairs_checked"] == 100 * 100
