import argparse
import csv
import json
import os
import re
import shlex
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from deletia import cli, configs, games, hashfam

GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).parents[1] / "README.md"


def run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_dr_roundtrip_matches_golden(capsys):
    code, out, _ = run_cli(capsys, ["dr", "roundtrip", "--seed", "7"])
    assert code == 0
    assert out == (GOLDEN / "dr_roundtrip_seed7.json").read_text()


def test_dr_roundtrip_schema(capsys):
    code, out, _ = run_cli(capsys, ["dr", "roundtrip", "--seed", "7"])
    doc = json.loads(out)
    assert list(doc) == ["b", "decrypted", "cert", "verified"]
    assert doc["decrypted"] == doc["b"]
    assert doc["verified"] is True


def test_same_seed_twice_is_byte_identical(capsys):
    _, out1, _ = run_cli(capsys, ["dr", "roundtrip", "--seed", "123"])
    _, out2, _ = run_cli(capsys, ["dr", "roundtrip", "--seed", "123"])
    assert out1 == out2
    _, out3, _ = run_cli(capsys, ["pvd", "roundtrip", "--seed", "5"])
    _, out4, _ = run_cli(capsys, ["pvd", "roundtrip", "--seed", "5"])
    assert out3 == out4


def test_cached_parser_matches_a_fresh_process(capsys, monkeypatch):
    monkeypatch.delenv("DELETIA_SEED", raising=False)
    assert cli.build_parser() is cli.build_parser()
    argv = ["fhe", "delete-roundtrip", "--seed", "11"]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "deletia.cli", *argv],
                          capture_output=True, text=True, env=env, check=True)
    assert "RuntimeWarning" not in proc.stderr
    fresh = proc.stdout
    with pytest.raises(SystemExit) as exc:
        cli.main(["fhe", "delete-roundtrip", "--seed", "eleven"])
    assert exc.value.code == 2
    capsys.readouterr()
    for _ in range(3):
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        assert out == fresh


def test_env_seed_override(capsys, monkeypatch):
    monkeypatch.setenv("DELETIA_SEED", "7")
    _, out, _ = run_cli(capsys, ["dr", "roundtrip", "--seed", "999"])
    assert out == (GOLDEN / "dr_roundtrip_seed7.json").read_text()


def test_unknown_scheme_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["nonsense", "roundtrip"])
    assert exc.value.code == 2


def test_unknown_adversary_exits_2(capsys):
    for exp in ("tc", "ladder"):
        code, out, err = run_cli(capsys, ["game", "run", "--exp", exp, "--adv", "who"])
        assert code == 2
        assert out == ""
        assert "unknown adversary 'who'" in err


def test_validate_desk_defaults_golden(capsys):
    code, out, err = run_cli(capsys, ["validate", "--scheme", "dr"])
    assert code == 0
    assert out == (GOLDEN / "validate_dr.json").read_text()
    assert "WARN" in err  # the sigma-interval warning is surfaced


def test_validate_fail_names_the_bound(capsys):
    code, out, _ = run_cli(capsys, [
        "validate", "--scheme", "fhe", "--n", "2", "--m", "8",
        "--q", "260000011", "--sigma", "1857142.94", "--depth", "6"])
    assert code == 2
    doc = json.loads(out)
    statuses = {c["name"]: c["status"] for c in doc["checks"]}
    assert statuses["fhe-noise-window"] == "fail"
    detail = next(c["detail"] for c in doc["checks"]
                  if c["name"] == "fhe-noise-window")
    assert "(N+1)^L" in detail


def test_validate_nonprime_fails(capsys):
    code, out, _ = run_cli(capsys, ["validate", "--scheme", "dr", "--q", "15"])
    assert code == 2
    doc = json.loads(out)
    assert any(c["name"] == "q-prime" and c["status"] == "fail"
               for c in doc["checks"])


def test_ladder_exact_report_fields(capsys):
    code, out, _ = run_cli(capsys, [
        "game", "run", "--exp", "ladder", "--adv", "overlap-projector",
        "--exact", "--seed", "1", "--trials", "0"])
    assert code == 0
    assert out == (GOLDEN / "ladder_exact.json").read_text()
    doc = json.loads(out)
    for field in ("adv0", "adv1", "adv2", "adv3"):
        assert field in doc
    assert doc["ci"] == 0.0


@pytest.mark.parametrize("trials", ["0", "5"])
def test_tc_exact_reports_the_exact_advantage(capsys, trials):
    want = games.target_collapse_advantage_exact(
        hashfam.two_to_one_family(3), None, games.OVERLAP_PROJECTOR)
    code, out, _ = run_cli(capsys, [
        "game", "run", "--exp", "tc", "--adv", "overlap-projector",
        "--exact", "--seed", "1", "--trials", trials])
    assert code == 0
    doc = json.loads(out)
    assert doc["exact"] is True
    assert doc["advantage"] == want and doc["ci"] == 0.0
    assert abs(want - 0.5) <= 1e-12


@pytest.mark.parametrize("exp", ["tc", "evtc", "sgc"])
def test_exact_report_plays_no_trials(capsys, exp):
    docs = []
    for trials in ("0", "200"):
        code, out, _ = run_cli(capsys, ["game", "run", "--exp", exp, "--exact",
                                        "--seed", "2", "--trials", trials])
        assert code == 0
        docs.append(json.loads(out))
    for doc in docs:
        assert list(doc) == ["exp", "adv", "seed", "trials", "exact", "advantage", "ci"]
        assert doc["exact"] is True and doc["ci"] == 0.0
    assert docs[0]["advantage"] == docs[1]["advantage"]


def test_sgc_exact_needs_the_honest_deleter(capsys):
    code, out, err = run_cli(capsys, ["game", "run", "--exp", "sgc", "--adv", "noop",
                                      "--exact", "--trials", "0"])
    assert code == 2
    assert out == ""
    assert "exact mode only for 'honest-deleter'" in err


@pytest.mark.parametrize("exp", ["tcr", "fact35"])
def test_exact_without_an_exact_mode_exits_2(capsys, exp):
    code, out, err = run_cli(capsys, ["game", "run", "--exp", exp, "--exact", "--trials", "3"])
    assert code == 2
    assert out == ""
    assert f"experiment {exp!r} has no exact mode" in err


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_game_zero_trials_empty_report(capsys):
    """Every experiment reports the same empty report at --trials 0, and it
    is strict JSON (no Infinity)."""
    for exp, adv in [("tc", "random-guesser"), ("tcr", "honest-deleter"),
                     ("evtc", "noop"), ("ladder", "honest-deleter"),
                     ("sgc", "honest-deleter"), ("fact35", "honest-deleter")]:
        code, out, _ = run_cli(capsys, [
            "game", "run", "--exp", exp, "--adv", adv, "--trials", "0"])
        assert code == 0
        doc = json.loads(out, parse_constant=_no_constant)
        assert doc == {"exp": exp, "adv": adv, "seed": 0, "trials": 0, "exact": False,
                       "advantage": None, "ci": 0.0, "counts": {}}


@pytest.mark.parametrize("adv", ["noop", "overlap-projector", "random-guesser"])
def test_tcr_plays_only_its_adversaries(capsys, adv):
    for trials in ("0", "1"):
        code, out, err = run_cli(capsys, ["game", "run", "--exp", "tcr", "--adv", adv,
                                          "--trials", trials])
        assert code == 2
        assert out == ""
        assert err == (f"error: experiment 'tcr' plays only ['brute-force-inverter', "
                       f"'garbage-certifier', 'honest-deleter'], not {adv!r}\n")


def test_game_csv_columns(tmp_path, capsys):
    out_csv = tmp_path / "report.csv"
    code, _, _ = run_cli(capsys, [
        "game", "run", "--exp", "evtc", "--adv", "honest-deleter",
        "--trials", "5", "--seed", "3", "--out", str(out_csv)])
    assert code == 0
    with open(out_csv) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["trial", "seed", "b", "verdict", "guess"]
    assert len(rows) == 1 + 10  # both bits per trial


@pytest.mark.parametrize("exp", ["tc", "evtc", "ladder", "sgc", "tcr"])
def test_sampled_games_print_the_same_bytes_in_batches_of_any_size(tmp_path, capsys,
                                                                 monkeypatch, exp):
    """Runs are played in batches of at most cli._BATCH_RUNS; one run at a
    time, three at a time (batches that split a trial's two runs) and all
    at once give the same report and CSV."""
    got = []
    for size in (1, 3, cli._BATCH_RUNS):
        monkeypatch.setattr(cli, "_BATCH_RUNS", size)
        out_csv = tmp_path / f"{size}.csv"
        code, out, err = run_cli(capsys, [
            "game", "run", "--exp", exp, "--adv", "brute-force-inverter" if exp != "sgc"
            else "honest-deleter", "--trials", "7", "--seed", "2", "--out", str(out_csv)])
        got.append((code, out, err, out_csv.read_text()))
    assert got[1] == got[0] and got[2] == got[0]


def test_an_unwritable_out_file_exits_2_with_no_report(tmp_path, capsys):
    code, out, err = run_cli(capsys, [
        "game", "run", "--exp", "tc", "--adv", "noop", "--trials", "1",
        "--out", str(tmp_path / "missing" / "x.csv")])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "x.csv" in err


def test_commit_demo_golden(capsys):
    code, out, _ = run_cli(capsys, ["commit", "demo", "--seed", "3"])
    assert code == 0
    assert out == (GOLDEN / "commit_demo_seed3.json").read_text()


@pytest.mark.parametrize("golden,argv", [
    ("fhe_delete_roundtrip_seed4", ["fhe", "delete-roundtrip", "--seed", "4"]),
    ("pvd_roundtrip_seed5", ["pvd", "roundtrip", "--seed", "5"]),
    ("game_sgc_seed2", ["game", "run", "--exp", "sgc", "--adv", "honest-deleter",
                        "--trials", "20", "--seed", "2"]),
    ("game_tcr_seed1", ["game", "run", "--exp", "tcr", "--trials", "10", "--seed", "1"]),
    ("game_tcr_brute_seed1", ["game", "run", "--exp", "tcr", "--adv", "brute-force-inverter",
                              "--trials", "10", "--seed", "1"]),
    ("game_tcr_garbage_seed1", ["game", "run", "--exp", "tcr", "--adv", "garbage-certifier",
                                "--trials", "10", "--seed", "1"]),
])
def test_command_matches_golden(capsys, tmp_path, golden, argv):
    """stdout, and the --out CSV where one is pinned next to it."""
    csv_golden = GOLDEN / f"{golden}.csv"
    out_csv = tmp_path / "out.csv"
    if csv_golden.exists():
        argv = [*argv, "--out", str(out_csv)]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert out == (GOLDEN / f"{golden}.json").read_text()
    if csv_golden.exists():
        assert out_csv.read_text() == csv_golden.read_text()


def test_fhe_nand_tree_small(capsys):
    code, out, _ = run_cli(capsys, [
        "fhe", "nand-tree", "--trials", "3", "--seed", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["all_ok"] is True
    assert len(doc["records"]) == 3
    assert set(doc["records"][0]) == {"trial", "leaves", "decrypted",
                                      "expected", "ok"}


def test_fhe_delete_roundtrip(capsys):
    code, out, _ = run_cli(capsys, ["fhe", "delete-roundtrip", "--seed", "4"])
    assert code == 0
    doc = json.loads(out)
    assert doc["verified"] is True and doc["decrypted"] == doc["x"]


def test_config_file_roundtrip(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("q = 13\nm = 2\nn = 1\nsigma = 3.0\n# comment\n")
    code, out, _ = run_cli(capsys, ["validate", "--scheme", "dr",
                                    "--config", str(cfg)])
    assert code == 0
    doc = json.loads(out)
    assert doc["params"]["q"] == 13
    # flags override the file
    code, out, _ = run_cli(capsys, ["validate", "--scheme", "dr",
                                    "--config", str(cfg), "--q", "19"])
    assert json.loads(out)["params"]["q"] == 19


def test_bad_config_file_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("this is not a key value line\n")
    code, _, err = run_cli(capsys, ["validate", "--config", str(cfg)])
    assert code == 2


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("qq = 13\n")
    code, out, err = run_cli(capsys, ["validate", "--config", str(cfg)])
    assert code == 2
    assert out == ""
    assert "unknown config key 'qq'" in err


def test_params_flag_is_a_config_alias(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("q = 13\nm = 2\nn = 1\nsigma = 3.0\n")
    _, via_config, _ = run_cli(capsys, ["validate", "--scheme", "dr",
                                        "--config", str(cfg)])
    _, via_params, _ = run_cli(capsys, ["validate", "--scheme", "dr",
                                        "--params", str(cfg)])
    assert via_config == via_params


# Every (command, flag) pair the command does not read: each exits 2.
UNREAD_FLAGS = [
    (["dr", "roundtrip"], ["--trials", "--depth", "--reps"]),
    (["fhe", "nand-tree"], ["--reps"]),
    (["fhe", "delete-roundtrip"], ["--trials", "--depth", "--reps"]),
    (["commit", "demo"], ["--config", "--trials", "--n", "--m", "--q", "--sigma",
                          "--depth", "--reps"]),
    (["pvd", "roundtrip"], ["--trials", "--n", "--m", "--q", "--sigma", "--depth"]),
    (["game", "run", "--exp", "tc"], ["--n", "--m", "--q", "--sigma", "--depth", "--reps"]),
    (["validate"], ["--trials", "--reps"]),
]


@pytest.mark.parametrize("argv", [cmd + [flag, "2"] for cmd, flags in UNREAD_FLAGS
                                  for flag in flags], ids=" ".join)
def test_flag_a_command_does_not_read_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"unrecognized arguments: {argv[-2]} 2" in out.err


@pytest.mark.parametrize("cmd", [["dr", "roundtrip"], ["fhe", "delete-roundtrip"],
                                 ["commit", "demo"], ["pvd", "roundtrip"]], ids=" ".join)
@pytest.mark.parametrize("bit", ["2", "-1"])
def test_a_bit_other_than_0_or_1_exits_2(capsys, cmd, bit):
    with pytest.raises(SystemExit) as exc:
        cli.main([*cmd, "--bit", bit])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"argument --bit: invalid choice: {bit}" in out.err


@pytest.mark.parametrize("key", ["seed", "exact", "out", "scheme", "field_bits",
                                 "t_universal", "trials", "reps"])
def test_config_key_no_flag_reads_exits_2(tmp_path, capsys, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = 1\n")
    code, out, err = run_cli(capsys, ["validate", "--config", str(cfg)])
    assert code == 2
    assert out == ""
    assert f"unknown config key {key!r}" in err


def test_a_config_key_belongs_to_its_command(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("reps = 6\n")
    code, _, err = run_cli(capsys, ["dr", "roundtrip", "--config", str(cfg)])
    assert code == 2 and "unknown config key 'reps'" in err
    code, out, _ = run_cli(capsys, ["pvd", "roundtrip", "--config", str(cfg), "--seed", "5"])
    assert code == 0
    assert out == run_cli(capsys, ["pvd", "roundtrip", "--reps", "6", "--seed", "5"])[1]


def test_dr_parameter_flags_act_without_n(tmp_path, capsys):
    full = run_cli(capsys, ["dr", "roundtrip", "--n", "1", "--m", "2", "--q", "23",
                            "--sigma", "5", "--seed", "1"])
    assert full[0] == 0
    assert run_cli(capsys, ["dr", "roundtrip", "--q", "23", "--seed", "1"]) == full
    cfg = tmp_path / "q23.cfg"
    cfg.write_text("q = 23\n")
    assert run_cli(capsys, ["dr", "roundtrip", "--config", str(cfg), "--seed", "1"]) == full
    shipped = run_cli(capsys, ["dr", "roundtrip", "--seed", "1"])
    assert shipped[1] != full[1]


def test_config_trials_are_played(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("trials = 3\n")
    out_csv = tmp_path / "rows.csv"
    code, out, _ = run_cli(capsys, ["game", "run", "--exp", "tc", "--config", str(cfg),
                                    "--out", str(out_csv)])
    assert code == 0
    assert json.loads(out)["trials"] == 3
    assert len(out_csv.read_text().splitlines()) == 1 + 2 * 3
    _, out, _ = run_cli(capsys, ["game", "run", "--exp", "tc", "--config", str(cfg),
                                 "--trials", "2"])
    assert json.loads(out)["trials"] == 2  # the flag beats the file


def test_nand_tree_n_keeps_the_classical_set(capsys, monkeypatch):
    seen = []
    keygen = cli.dualfhe.fhe_keygen
    monkeypatch.setattr(cli.dualfhe, "fhe_keygen",
                        lambda params, rng: seen.append(params) or keygen(params, rng))
    code, out, _ = run_cli(capsys, ["fhe", "nand-tree", "--n", "3", "--trials", "2",
                                    "--seed", "0"])
    assert code == 0 and json.loads(out)["all_ok"] is True
    assert seen == [replace(configs.FHE_CLASSICAL, n=3)]
    assert (seen[0].m, seen[0].q, seen[0].sigma_sq, seen[0].depth) == (
        8, 260000011, configs.FHE_CLASSICAL.sigma_sq, 2)
    run_cli(capsys, ["fhe", "nand-tree", "--depth", "1", "--trials", "1"])
    assert seen[1] == replace(configs.FHE_CLASSICAL, depth=1)


def test_delete_roundtrip_sigma_is_squared_into_the_quantum_set(capsys, monkeypatch):
    seen = []
    keygen = cli.dualfhe.fhe_keygen
    monkeypatch.setattr(cli.dualfhe, "fhe_keygen",
                        lambda params, rng: seen.append(params) or keygen(params, rng))
    run_cli(capsys, ["fhe", "delete-roundtrip", "--seed", "4"])
    run_cli(capsys, ["fhe", "delete-roundtrip", "--sigma", "3", "--seed", "4"])
    assert seen == [configs.FHE_QUANTUM, replace(configs.FHE_QUANTUM, sigma_sq=9)]


@pytest.mark.parametrize("argv,name", [
    (["dr", "roundtrip", "--n", "0"], "n"),
    (["dr", "roundtrip", "--m", "0"], "m"),
    (["dr", "roundtrip", "--q", "1"], "q"),
    (["dr", "roundtrip", "--n", "1", "--sigma", "-5"], "sigma"),
    (["dr", "roundtrip", "--sigma", "0"], "sigma"),
    (["dr", "roundtrip", "--sigma", "nan"], "sigma"),
    (["fhe", "delete-roundtrip", "--q", "0"], "q"),
    (["fhe", "nand-tree", "--depth", "-1"], "depth"),
    (["fhe", "nand-tree", "--trials", "-1"], "trials"),
    (["game", "run", "--exp", "tcr", "--trials", "-3"], "trials"),
    (["game", "run", "--exp", "fact35", "--trials", "-1"], "trials"),
    (["pvd", "roundtrip", "--reps", "0"], "reps"),
    (["pvd", "roundtrip", "--reps", "-2"], "reps"),
    (["pvd", "roundtrip", "--reps", "9"], "reps"),
    (["game", "run", "--exp", "fact35", "--adv", "who"], "unknown adversary"),
])
def test_bad_parameters_exit_2_before_any_state(capsys, monkeypatch, argv, name):
    def no_keys(*_):
        raise AssertionError("built keys for bad parameters")
    monkeypatch.setattr(cli.dualregev, "dr_keygen", no_keys)
    monkeypatch.setattr(cli.dualfhe, "fhe_keygen", no_keys)
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {name}")


def test_bad_parameters_in_a_config_file_exit_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sigma = -1\n")
    code, out, err = run_cli(capsys, ["validate", "--config", str(cfg)])
    assert code == 2 and out == "" and "sigma must be > 0" in err


def test_validate_rejects_a_modulus_below_2(capsys):
    code, out, err = run_cli(capsys, ["validate", "--q", "1"])
    assert code == 2
    assert out == ""
    assert "q must be >= 2, got 1" in err


def _readme_cli_block() -> list[str]:
    return README.read_text().split("## CLI", 1)[1].split("```")[1].splitlines()


def test_readme_cli_examples(tmp_path, capsys, monkeypatch):
    """Every ``deletia`` line of README's CLI block exits 0, and every
    key/value on an example output line is the command's real one."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("DELETIA_SEED", raising=False)
    commands = checked = 0
    out = ""
    for line in _readme_cli_block():
        if line.startswith("deletia "):
            code, out, err = run_cli(capsys, shlex.split(line.split("#", 1)[0])[1:])
            assert code == 0, (line, err)
            commands += 1
        elif line.strip().startswith("{"):
            shown = line.strip()[1:-1].strip().removeprefix("...").removesuffix("...")
            doc = json.loads(out)
            for key, value in json.loads("{" + shown.strip(" ,") + "}").items():
                assert doc[key] == value, (key, doc[key], value)
                checked += 1
    assert commands == 9 and checked == 7
    assert (tmp_path / "report.csv").exists()


def _commands(parser, path=()):
    """(command name, its parser) for every leaf command."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield " ".join(path), parser
    for action in subs:
        for name, sub in action.choices.items():
            yield from _commands(sub, (*path, name))


def test_readme_flag_table_is_the_parser():
    """README's table lists each command's parameter flags (its config keys)
    and its other flags, and the parser declares exactly those."""
    table = {}
    for row in README.read_text().splitlines():
        cells = [c.strip() for c in re.split(r"(?<!\\)\|", row.strip("|"))]  # \| is in a cell
        if row.startswith("| `") and len(cells) == 4 and "--seed" in cells[2]:
            table[cells[0].strip("`")] = (set(re.findall(r"--([a-z]+)", cells[1])),
                                          set(re.findall(r"--[a-z]+", cells[2])))
    parsed = {}
    for name, p in _commands(cli.build_parser()):
        keys = set(p.get_default("keys"))
        flags = {a.option_strings[0] for a in p._actions if a.option_strings}
        assert ("--config" in flags) == bool(keys)
        assert keys <= set(cli.CONFIG_KEYS)
        parsed[name] = (keys, flags - {f"--{k}" for k in keys} - {"-h", "--config"})
    assert table == parsed
    assert sum(len(k) + len(f) + bool(k) for k, f in parsed.values()) == 43
    assert sum(len(k) for k, _ in parsed.values()) == 21
