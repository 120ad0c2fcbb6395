import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from qmipsim import corpus
from qmipsim.cli import main
from qmipsim.fileformat import load_protocol, save_protocol
from qmipsim.specs import LEFT_END, ProtocolSpec, TrackGuard, VerifierSpec, check_well_formed, guard_state, guard_states

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture
def lift_file(tmp_path):
    path = tmp_path / "no_comm_lift.qmip"
    save_protocol(str(path), corpus.build("no_comm_lift"))
    return str(path)


@pytest.fixture
def no_comm_file(tmp_path):
    path = tmp_path / "no_comm.qmip"
    save_protocol(str(path), corpus.build("no_comm"))
    return str(path)


def _machine(capsys):
    out = capsys.readouterr().out
    pairs = {}
    for line in out.strip().splitlines():
        key, _, value = line.partition("=")
        pairs[key] = value
    return pairs


def test_validate_ok(no_comm_file, capsys):
    assert main(["validate", no_comm_file]) == 0
    out = capsys.readouterr().out
    assert "well-formed: yes" in out


def test_validate_machine(no_comm_file, capsys):
    assert main(["validate", no_comm_file, "--machine"]) == 0
    pairs = _machine(capsys)
    assert pairs["ok"] == "true"
    assert pairs["rows"] == "9"


def test_validate_flags_ill_formed(tmp_path, no_comm_file, capsys):
    text = Path(no_comm_file).read_text().replace("1/2", "3/7")
    bad = tmp_path / "bad.qmip"
    bad.write_text(text)
    assert main(["validate", str(bad)]) == 3
    out = capsys.readouterr().out
    assert "well-formed: no" in out


def test_validate_lists_violations_in_checker_order(tmp_path, capsys):
    # `run` and `adversary` report the first violation alone, so the order is
    # part of the output: groups by input symbol in first-seen order, norms
    # before pairs within a group, guard targets last
    rows = {
        ("q0", "0", ()): (("q0", 1, (), 0.5 + 0j),),
        ("q0", LEFT_END, ()): (("q1", 1, (), 1.0 + 0j),),
        ("q1", LEFT_END, ()): (("q1", 1, (), 1.0 + 0j),),
        ("q1", "0", ()): ((guard_state(TrackGuard.prefix, "q1", "0"), 1, (), 1.0 + 0j),),
    }
    minted = guard_states(TrackGuard.prefix, rows)
    verifier = VerifierSpec(
        mode="2qfa", states=("q0", "q1", "acc", "rej", *minted), initial="q0",
        accept=frozenset({"acc"}), reject=frozenset({"rej", *minted}), input_alphabet=("0",),
        comm_alphabets=(), rows=rows, fallback=TrackGuard(slot_bases=(), known_states=frozenset(minted)),
    )
    expected = [
        "row ('q0', '0', ()) has squared norm 0.25",
        "rows ('q0', '¢', ()) and ('q1', '¢', ()) have inner product 1",
        "row ('q1', '0', ()) targets guard state 'rejt[q1|0]'",
    ]
    assert check_well_formed(verifier).violations == expected

    path = tmp_path / "faulty.qmip"
    save_protocol(str(path), ProtocolSpec(name="faulty", verifier=verifier, provers=(), a=1.0, b=1.0, cutoff=1))
    assert main(["validate", str(path), "--machine"]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("violation=")] == [f"violation={v}" for v in expected]
    assert main(["run", str(path), "0"]) == 3
    assert capsys.readouterr().err == f"error: {expected[0]}\n"


def test_run_human_output_ends_with_p_acc(no_comm_file, capsys):
    assert main(["run", no_comm_file, "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-1] == "p_acc=0.500000000"


def test_run_trace_shows_rounds(no_comm_file, capsys):
    assert main(["run", no_comm_file, "0", "--trace"]) == 0
    out = capsys.readouterr().out
    assert "round 1" in out
    assert "halted at round 2" in out


def test_run_trace_shows_stored_configurations(tmp_path, capsys):
    # the reduced relay's pure state grows 16-fold a round; its folded
    # classes keep 16 configurations
    relay, lifted, reduced = (str(tmp_path / name) for name in ("relay.qmip", "lifted.qmip", "reduced.qmip"))
    save_protocol(relay, corpus.build("parity_relay"))
    assert main(["lift", relay, "-o", lifted]) == 0
    assert main(["reduce", lifted, "-o", reduced]) == 0
    capsys.readouterr()
    assert main(["run", reduced, "111", "--trace", "--machine"]) == 0
    assert "round.4.configs=65536 round.4.stored=16" in capsys.readouterr().out
    assert main(["run", reduced, "111", "--trace"]) == 0
    assert "(65536 configurations, 16 stored)" in capsys.readouterr().out


def test_run_machine_output(lift_file, capsys):
    assert main(["run", lift_file, "0", "--machine"]) == 0
    pairs = _machine(capsys)
    assert pairs["halted"] == "2"
    assert pairs["steps"] == "5"
    assert pairs["p_acc"] == "0.500000000"
    assert pairs["p_rej"] == "0.500000000"
    assert pairs["leftover"] == "0.000000000"


def test_run_cutoff_override(no_comm_file, capsys):
    assert main(["run", no_comm_file, "0", "--cutoff", "1", "--machine"]) == 0
    pairs = _machine(capsys)
    assert pairs["halted"] == "none"
    assert pairs["leftover"] == "1.000000000"


def test_run_human_output_says_the_cutoff_was_reached(no_comm_file, capsys):
    assert main(["run", no_comm_file, "0", "--cutoff", "1"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "protocol no_comm on input '0' (mode 2pfa)",
        "cutoff reached after 1 rounds; steps counted: 1",
        "p_rej=0.000000000",
        "leftover=1.000000000",
        "p_acc=0.000000000",
    ]


def test_run_rejects_foreign_input_symbols(no_comm_file, capsys):
    assert main(["run", no_comm_file, "7"]) == 3
    assert "error:" in capsys.readouterr().err


def test_garbage_file_is_exit_2(tmp_path, capsys):
    path = tmp_path / "garbage.qmip"
    path.write_text("this is not a protocol\n")
    assert main(["validate", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("name, weight", [("coinflip_classical", "1/2"), ("no_comm_lift", "1/sqrt2")],
                         ids=["coinflip_classical", "no_comm_lift"])
@pytest.mark.parametrize("token", ["nan", "inf", "1e999", "9" * 400, "9" * 400 + "/7", "1/sqrt" + "9" * 400],
                         ids=["nan", "inf", "1e999", "int", "fraction", "root"])
@pytest.mark.parametrize("command", [["validate"], ["run", "0"]], ids=["validate", "run"])
def test_a_weight_that_is_not_a_finite_number_is_exit_2(tmp_path, capsys, name, weight, token, command):
    source = tmp_path / f"{name}.qmip"
    save_protocol(str(source), corpus.build(name))
    text = source.read_text()
    assert f" {weight} " in text
    path = tmp_path / "bad.qmip"
    path.write_text(text.replace(f" {weight} ", f" {token} ", 1))
    assert main([command[0], str(path), *command[1:]]) == 2
    assert "is not a finite number" in capsys.readouterr().err


def test_importing_the_package_leaves_numpy_out():
    """The package has no runtime dependency: numpy is the tests' independent reference alone."""
    code = "import sys, qmipsim, qmipsim.cli; print('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_missing_row_is_exit_4(tmp_path, no_comm_file, capsys):
    # strip one reachable rule so the run hits a hole mid-flight
    text = Path(no_comm_file).read_text()
    lines = [l for l in text.splitlines() if not l.startswith("rule = c0 0")]
    path = tmp_path / "holes.qmip"
    path.write_text("\n".join(lines) + "\n")
    assert main(["run", str(path), "0"]) == 4
    assert "error:" in capsys.readouterr().err


def test_lift_writes_output_and_provenance(no_comm_file, tmp_path, capsys):
    out_path = tmp_path / "lifted.qmip"
    prov_path = tmp_path / "prov.json"
    code = main(
        [
            "lift",
            no_comm_file,
            "-o",
            str(out_path),
            "--provenance",
            str(prov_path),
            "--machine",
        ]
    )
    assert code == 0
    pairs = _machine(capsys)
    assert pairs["name"] == "no_comm-lift"
    assert pairs["rows"] == "9"
    assert pairs["record_symbols"] == "9"
    lifted = load_protocol(str(out_path))
    assert lifted == corpus.build("no_comm_lift")
    prov = json.loads(prov_path.read_text())
    assert list(prov) == ["source", "protocol", "rows", "log_symbols"]
    assert (prov["source"], prov["protocol"]) == ("no_comm", "no_comm-lift")
    assert len(prov["rows"]) == 9
    assert len(prov["log_symbols"]) == 9


def test_lift_refuses_quantum_input(lift_file, tmp_path, capsys):
    assert main(["lift", lift_file, "-o", str(tmp_path / "x.qmip")]) == 3
    assert "error:" in capsys.readouterr().err


def test_reduce_auto_unifies(lift_file, tmp_path, capsys):
    out_path = tmp_path / "reduced.qmip"
    prov_path = tmp_path / "prov.json"
    code = main(
        [
            "reduce",
            lift_file,
            "-o",
            str(out_path),
            "--provenance",
            str(prov_path),
            "--machine",
        ]
    )
    assert code == 0
    pairs = _machine(capsys)
    assert pairs["unified"] == "true"
    assert pairs["rows"] == "9"
    assert pairs["dropped"] == "0"
    assert pairs["channel_alphabet"] == "256"
    reduced = load_protocol(str(out_path))
    assert reduced == corpus.build("no_comm_reduce")
    prov = json.loads(prov_path.read_text())
    # the source is the automatically unified protocol the reduction read
    assert list(prov) == ["source", "protocol", "rows", "dropped"]
    assert (prov["source"], prov["protocol"]) == ("no_comm-lift-unified", "no_comm-lift-reduce")
    assert len(prov["rows"]) == 9
    assert len(prov["dropped"]) == 0


def test_reduce_without_channels_is_a_validation_error(tmp_path, capsys):
    path = tmp_path / "silent.qmip"
    path.write_text(
        "qmip 1\nname = silent\nmode = 1qfa\nprovers = 0\na = 1\nb = 1\ncutoff = 1\n\n"
        "[verifier]\nstates = q0 acc rej\ninitial = q0\naccept = acc\nreject = rej\ninput = 0\n"
        "rule = q0 ¢ -> 1 acc +1\n"
    )
    assert main(["reduce", str(path), "-o", str(tmp_path / "out.qmip")]) == 3
    assert "reduction expects exactly 3 provers, got 0" in capsys.readouterr().err


def test_adversary_search(lift_file, capsys):
    assert main(["adversary", lift_file, "0", "--machine"]) == 0
    pairs = _machine(capsys)
    assert pairs["evaluated"] == "66"
    assert pairs["best"] == "0.500000000"
    assert pairs["prover1"] == "seq:#"
    assert "elapsed_s" in pairs
    assert float(pairs["combos_per_s"]) > 0


def test_adversary_human_summary(lift_file, capsys):
    assert main(["adversary", lift_file, "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:5] == [
        "searched 66 strategy combinations (max-accept)",
        "  prover 1: seq:#",
        "  prover 2: seq:#",
        "  prover 3: seq:#",
        "best combination: p_acc=0.500000000 p_rej=0.500000000 leftover=0.000000000",
    ]
    assert re.fullmatch(r"throughput: elapsed_s=\d+\.\d{6} combos_per_s=(\d+\.\d|inf)", lines[5])
    assert lines[6:] == ["best=0.500000000"]


PROVERLESS = """qmip 1
name = proverless
mode = 1pfa
provers = 0
a = 1/2
b = 1/2
cutoff = 2

[verifier]
states = q0 q1 acc rej
initial = q0
accept = acc
reject = rej
input = 0
rule = q0 ¢ -> 1 q1 +1
rule = q1 0 -> 1/2 acc +1 , 1/2 rej +1
rule = q1 $ -> 1 rej +1
"""


def test_a_protocol_without_provers_runs_and_sweeps(tmp_path, capsys):
    path = tmp_path / "proverless.qmip"
    path.write_text(PROVERLESS)
    assert main(["validate", str(path), "--machine"]) == 0
    assert _machine(capsys)["ok"] == "true"
    assert main(["run", str(path), "0", "--machine"]) == 0
    pairs = _machine(capsys)
    assert (pairs["p_acc"], pairs["p_rej"], pairs["halted"]) == ("0.500000000", "0.500000000", "2")
    assert main(["adversary", str(path), "0", "--machine"]) == 0
    pairs = _machine(capsys)
    assert (pairs["evaluated"], pairs["best_p_acc"]) == ("1", "0.500000000")


def test_adversary_rejects_zero_cutoff(lift_file, capsys):
    assert main(["adversary", lift_file, "0", "--cutoff", "0"]) == 3
    assert "cutoff must be at least 1" in capsys.readouterr().err


def test_adversary_limit(lift_file, capsys):
    # an oversized sweep is a runtime refusal, not a spec problem
    assert main(["adversary", lift_file, "0", "--limit", "10"]) == 4
    assert "error:" in capsys.readouterr().err


def test_compare_match(no_comm_file, lift_file, capsys):
    code = main(["compare", no_comm_file, lift_file, "0", "--tol", "1e-9", "--machine"])
    assert code == 0
    pairs = _machine(capsys)
    assert pairs["match"] == "true"


def test_compare_mismatch_is_exit_1(no_comm_file, tmp_path, capsys):
    other = tmp_path / "always.qmip"
    save_protocol(str(other), corpus.build("always_accept_classical"))
    code = main(["compare", no_comm_file, str(other), "", "--machine"])
    assert code == 1
    pairs = _machine(capsys)
    assert pairs["match"] == "false"


def test_compare_human_lines(no_comm_file, lift_file, tmp_path, capsys):
    assert main(["compare", no_comm_file, lift_file, "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == [
        "no_comm: p_acc=0.500000000000 p_rej=0.500000000000 leftover=0.000000000000",
        "no_comm-lift: p_acc=0.500000000000 p_rej=0.500000000000 leftover=0.000000000000",
    ]
    assert re.fullmatch(r"difference \d\.\d{3}e-\d+ \(within tolerance 1e-09\)", lines[2])
    assert len(lines) == 3
    other = tmp_path / "always.qmip"
    save_protocol(str(other), corpus.build("always_accept_classical"))
    assert main(["compare", no_comm_file, str(other), "0"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "no_comm: p_acc=0.500000000000 p_rej=0.500000000000 leftover=0.000000000000",
        "always_accept_classical: p_acc=1.000000000000 p_rej=0.000000000000 leftover=0.000000000000",
        "difference 5.000e-01 (exceeds tolerance 1e-09)",
    ]


def test_compare_matches_rejection_and_leftover_too(tmp_path, capsys):
    # a copy of coinflip_classical whose reject branch waits in w until $:
    # it accepts as often, but at cutoff 2 its rejecting half is still leftover
    original = tmp_path / "coinflip_classical.qmip"
    save_protocol(str(original), corpus.build("coinflip_classical"))
    text = original.read_text().replace("cutoff = 1", "cutoff = 2")
    text = text.replace("states = q0 acc rej", "states = q0 acc rej w")
    rule = "rule = q0 ¢ # -> 1/2 acc +1 # , 1/2 rej +1 #"
    assert rule in text
    copy = tmp_path / "copy.qmip"
    copy.write_text(text.replace(rule, "rule = q0 ¢ # -> 1/2 acc +1 # , 1/2 w +1 #\n"
                                       "rule = w 0 # -> 1 w +1 #\nrule = w $ # -> 1 rej +1 #"))
    assert main(["validate", str(copy), "--machine"]) == 0
    capsys.readouterr()
    assert main(["compare", str(original), str(copy), "0", "--machine"]) == 1
    pairs = _machine(capsys)
    assert {key: pairs[key] for key in ("a.p_acc", "b.p_acc", "a.p_rej", "b.p_rej", "a.leftover", "b.leftover")} == {
        "a.p_acc": "0.500000000000", "b.p_acc": "0.500000000000",
        "a.p_rej": "0.500000000000", "b.p_rej": "0.000000000000",
        "a.leftover": "0.000000000000", "b.leftover": "0.500000000000",
    }
    assert (pairs["diff"], pairs["match"]) == ("5.000e-01", "false")


def test_corpus_emits_files(tmp_path, capsys):
    assert main(["corpus", str(tmp_path / "protocols")]) == 0
    written = capsys.readouterr().out.strip().splitlines()
    assert len(written) == len(corpus.REGISTRY)
    for path in written:
        assert load_protocol(path) == corpus.build(path.rsplit("/", 1)[1][: -len(".qmip")])


def test_corpus_only_filter(tmp_path, capsys):
    assert main(["corpus", str(tmp_path), "--only", "no_comm", "--only", "parity_relay"]) == 0
    written = capsys.readouterr().out.strip().splitlines()
    assert len(written) == 2
    assert main(["corpus", str(tmp_path), "--only", "zzz"]) == 3
    assert capsys.readouterr().err == "error: unknown corpus protocol 'zzz'\n"
    # a known name before the unknown one is not written either
    fresh = tmp_path / "fresh"
    assert main(["corpus", str(fresh), "--only", "no_comm", "--only", "zzz"]) == 3
    assert capsys.readouterr().err == "error: unknown corpus protocol 'zzz'\n"
    assert not list(tmp_path.glob("fresh/*.qmip"))


def test_corpus_unknown_name(tmp_path, capsys):
    assert main(["corpus", str(tmp_path), "--only", "nonesuch"]) == 3
    assert "error:" in capsys.readouterr().err
