import json
from pathlib import Path

import pytest

from qmipsim import corpus
from qmipsim.cli import main
from qmipsim.fileformat import load_protocol, save_protocol


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


def test_run_human_output_ends_with_p_acc(no_comm_file, capsys):
    assert main(["run", no_comm_file, "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-1] == "p_acc=0.500000000"


def test_run_trace_shows_rounds(no_comm_file, capsys):
    assert main(["run", no_comm_file, "0", "--trace"]) == 0
    out = capsys.readouterr().out
    assert "round 1" in out
    assert "halted at round 2" in out


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


def test_run_rejects_foreign_input_symbols(no_comm_file, capsys):
    assert main(["run", no_comm_file, "7"]) == 3
    assert "error:" in capsys.readouterr().err


def test_garbage_file_is_exit_2(tmp_path, capsys):
    path = tmp_path / "garbage.qmip"
    path.write_text("this is not a protocol\n")
    assert main(["validate", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


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
    assert pairs["rows"] == "90"
    assert pairs["record_symbols"] == "9"
    lifted = load_protocol(str(out_path))
    assert lifted == corpus.build("no_comm_lift")
    prov = json.loads(prov_path.read_text())
    assert len(prov["rows"]) == 90
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
    assert pairs["dropped"] == "81"
    assert pairs["channel_alphabet"] == "256"
    reduced = load_protocol(str(out_path))
    assert reduced == corpus.build("no_comm_reduce")
    prov = json.loads(prov_path.read_text())
    assert len(prov["dropped"]) == 81


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


def test_corpus_unknown_name(tmp_path, capsys):
    assert main(["corpus", str(tmp_path), "--only", "nonesuch"]) == 3
    assert "error:" in capsys.readouterr().err
