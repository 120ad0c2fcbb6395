import dataclasses
import math
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qmipsim import corpus, transforms
from qmipsim.errors import SpecFileError, ValidationError
from qmipsim.fileformat import (
    FORMAT_HEADER,
    load_protocol,
    parse_protocol,
    parse_weight,
    save_protocol,
    serialize_protocol,
    serialize_weight,
)
from qmipsim.specs import (
    ClassicalTableStrategy,
    DerandomizedStrategy,
    LoggedReplyStrategy,
    ProverSpec,
    UnitaryTableStrategy,
    validate_protocol,
)

H = 1 / math.sqrt(2)


# ---------------------------------------------------------------- weights


def test_parse_weight_tokens():
    assert parse_weight("1") == 1 + 0j
    assert parse_weight("-2") == -2 + 0j
    assert parse_weight("1/2") == 0.5 + 0j
    assert parse_weight("3/4") == 0.75 + 0j
    assert parse_weight("1/sqrt2") == complex(H)
    assert parse_weight("-1/sqrt2") == complex(-H)
    assert parse_weight("0.25") == 0.25 + 0j


def test_parse_weight_errors():
    for bad in ("1/0", "1/sqrt0", "abc", "", "one"):
        with pytest.raises(SpecFileError):
            parse_weight(bad)


def test_serialize_weight_prefers_exact_short_tokens():
    assert serialize_weight(1.0) == "1"
    assert serialize_weight(-1.0) == "-1"
    assert serialize_weight(0.5) == "1/2"  # not 1/sqrt4
    assert serialize_weight(0.3) == "3/10"
    assert serialize_weight(complex(H)) == "1/sqrt2"
    assert serialize_weight(complex(-1 / math.sqrt(32))) == "-1/sqrt32"


def test_serialize_weight_round_trips_exactly():
    samples = [
        1.0,
        -1.0,
        0.5,
        0.3,
        1 / 3,
        1 / math.sqrt(2),
        -1 / math.sqrt(2),
        1 / math.sqrt(10),
        1 / math.sqrt(256),
        0.1234567890123457,
        1e-30,
    ]
    for value in samples:
        token = serialize_weight(value)
        assert parse_weight(token) == complex(value), token


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_serialize_weight_round_trips_every_finite_float(value):
    token = serialize_weight(value)
    assert parse_weight(token) == complex(value)
    assert serialize_weight(value) is token
    assert serialize_weight(complex(value)) is token


def test_serialize_weight_tiny_magnitudes_fall_back_to_decimals():
    for value in (1e-160, -1e-200, 5e-324):
        assert serialize_weight(value) == repr(value)


def test_signed_zeros_serialize_alike():
    assert serialize_weight(0.0) == serialize_weight(-0.0) == "0"


def test_serialize_weight_rejects_complex_phases():
    with pytest.raises(SpecFileError):
        serialize_weight(0.5j)


@pytest.mark.parametrize("value", [0.5j, math.nan, math.inf, -math.inf])
def test_serialize_weight_failures_repeat(value):
    for _ in range(2):
        with pytest.raises((SpecFileError, ValueError, OverflowError)):
            serialize_weight(value)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_a_weight_that_is_not_a_finite_number_is_not_written(value):
    for _ in range(2):  # a failure is not cached
        with pytest.raises(SpecFileError, match=f"^cannot serialize weight {re.escape(repr(value))}: not a finite number$"):
            serialize_weight(value)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_a_protocol_with_a_weight_that_is_not_a_finite_number_is_not_written(value):
    p = corpus.build("coinflip_classical")
    (key, branches), *rest = p.verifier.rows.items()
    row = ((*branches[0][:3], value),) + branches[1:]
    bad = dataclasses.replace(p, verifier=dataclasses.replace(p.verifier, rows={key: row, **dict(rest)}))
    with pytest.raises(SpecFileError, match=f"^cannot serialize weight {re.escape(repr(value))}: not a finite number$"):
        serialize_protocol(bad)


@pytest.mark.parametrize("token", [
    "nan", "inf", "-inf", "1e999", "9" * 400, "-" + "9" * 400, "9" * 400 + "/7", "1/sqrt" + "9" * 400,
], ids=["nan", "inf", "-inf", "1e999", "int", "-int", "fraction", "root"])
def test_weights_that_are_not_finite_numbers_name_their_line(token):
    text = _base_text()
    lines = text.splitlines()
    n = next(i for i, line in enumerate(lines, start=1) if line.startswith("rule = ") and " 1/2 " in line)
    lines[n - 1] = lines[n - 1].replace("1/2", token, 1)
    with pytest.raises(SpecFileError, match=f"^line {n}: weight {re.escape(repr(token))} is not a finite number$"):
        parse_protocol("\n".join(lines))


def test_bad_weight_tokens_fail_on_every_call():
    assert parse_weight("1/2") == 0.5
    for where in ("line 3: ", "line 9: "):
        with pytest.raises(SpecFileError, match=f"^{where}bad weight token 'half'$"):
            parse_weight("half", where)


# ---------------------------------------------------------------- round-trips


@pytest.mark.parametrize("name", sorted(corpus.REGISTRY))
def test_corpus_round_trip(name):
    p = corpus.build(name)
    text = serialize_protocol(p)
    assert text.startswith(FORMAT_HEADER + "\n")
    assert parse_protocol(text) == p


@pytest.mark.parametrize("base", [corpus.no_communication, corpus.parity_relay])
def test_transform_chain_round_trips(base):
    lifted = transforms.lift_2ip_to_3qip(base()).protocol
    unified = transforms.unify_alphabets(lifted)
    reduced = transforms.reduce_3qip_to_2qip(unified).protocol
    for p in (lifted, unified, reduced):
        text = serialize_protocol(p)
        assert parse_protocol(text) == p
        assert serialize_protocol(parse_protocol(text)) == text


def _relay_text(stage):
    lifted = transforms.lift_2ip_to_3qip(corpus.parity_relay()).protocol
    if stage == "lifted":
        return serialize_protocol(lifted)
    return serialize_protocol(transforms.reduce_3qip_to_2qip(transforms.unify_alphabets(lifted)).protocol)


@pytest.mark.parametrize(
    "stage, wrap, signed",
    [
        ("lifted", "reversible:1", "reversible:-1"),
        ("lifted", "reversible:1", "reversible:+1"),
        ("reduced", "masked:9", "masked:-1"),
        ("reduced", "masked:0", "masked:-0"),
    ],
)
def test_a_signed_wrap_offset_is_refused(stage, wrap, signed):
    # reversible:-1 once parsed and validated, and its first logged move wrote
    # through the tape's last cell into a tape twice as long
    text = _relay_text(stage)
    assert f" {wrap}\n" in text
    section = "prover 2" if wrap == "masked:0" else "prover 1"
    with pytest.raises(SpecFileError, match=rf"^\[{section}\]: wrap item '{re.escape(signed)}' has a signed offset"):
        parse_protocol(text.replace(f" {wrap}\n", f" {signed}\n"))


def test_a_channel_alphabet_one_symbol_off_parses_as_its_own():
    # the reader splits each distinct alphabet field once; a near-copy is distinct
    p = corpus.build("no_comm_reduce")
    text = serialize_protocol(p)
    shared = p.verifier.comm_alphabets[0]
    changed = shared[:-1] + ("[~x/~x]",)
    back = parse_protocol(text.replace("comm-2 = " + " ".join(shared), "comm-2 = " + " ".join(changed), 1))
    assert back.verifier.comm_alphabets == (shared, changed)
    assert [prover.comm_alphabet for prover in back.provers] == [shared, shared]


def test_round_trip_survives_comments_and_blank_lines():
    p = corpus.build("coinflip_classical")
    text = serialize_protocol(p)
    noisy = []
    for line in text.splitlines():
        noisy.append("; commentary")
        noisy.append("")
        noisy.append(line)
    assert parse_protocol("\n".join(noisy)) == p


def test_unitary_strategy_round_trips():
    p = corpus.build("coinflip_quantum")
    steps = {
        1: {("#", ()): [(("a", ()), complex(H)), (("b", ()), complex(H))]},
        None: {("#", ()): [(("#", ()), 1 + 0j)]},
    }
    prover = ProverSpec(
        index=1,
        comm_alphabet=p.provers[0].comm_alphabet,
        tape_alphabet=p.provers[0].tape_alphabet,
        space=p.provers[0].space,
        strategy=UnitaryTableStrategy(work=0, steps=steps),
    )
    custom = dataclasses.replace(p, provers=(prover,))
    assert parse_protocol(serialize_protocol(custom)) == custom


def test_urow_head_takes_at_most_one_bar():
    p = corpus.build("coinflip_quantum")
    prover = dataclasses.replace(
        p.provers[0], strategy=UnitaryTableStrategy(work=0, steps={None: {("#", ()): [(("#", ()), 1 + 0j)]}})
    )
    text = serialize_protocol(dataclasses.replace(p, provers=(prover,)))
    n = _line_of(text, "urow = * # -> ")
    lax = text.replace("urow = * # -> ", "urow = * # | x | y -> ", 1)
    with pytest.raises(SpecFileError, match=f"^line {n}: urow head has too many '\\|'$"):
        parse_protocol(lax)


def test_choices_strategy_round_trips():
    p = corpus.build("no_comm")
    choices = {
        (1, "#", ("#", "#")): "#",
        (2, "g", ("#", "g")): "g",
    }
    prover = ProverSpec(
        index=1,
        comm_alphabet=p.provers[0].comm_alphabet,
        tape_alphabet=("#", "g"),
        space=2,
        strategy=DerandomizedStrategy(choices=choices),
    )
    custom = dataclasses.replace(p, provers=(prover,) + p.provers[1:])
    again = parse_protocol(serialize_protocol(custom))
    assert again.provers[0].strategy == prover.strategy


def test_save_and_load(tmp_path):
    p = corpus.build("no_comm_lift")
    path = tmp_path / "lift.qmip"
    save_protocol(str(path), p)
    assert load_protocol(str(path)) == p


def test_load_missing_file():
    with pytest.raises(SpecFileError):
        load_protocol("/nonexistent/nothing.qmip")


def test_strategies_without_file_form_are_refused():
    p = corpus.build("no_comm")
    ad_hoc = ProverSpec(
        index=1,
        comm_alphabet=p.provers[0].comm_alphabet,
        tape_alphabet=p.provers[0].tape_alphabet,
        space=1,
        strategy=LoggedReplyStrategy("adhoc", lambda step, recv: [("#", 1 + 0j)]),
    )
    custom = dataclasses.replace(p, provers=(ad_hoc,) + p.provers[1:])
    with pytest.raises(SpecFileError):
        serialize_protocol(custom)


def _with_tape_symbol(p, sym):
    prover = dataclasses.replace(p.provers[0], tape_alphabet=p.provers[0].tape_alphabet + (sym,))
    return dataclasses.replace(p, provers=(prover,) + p.provers[1:])


def _with_input_symbol(p, sym):
    return dataclasses.replace(p, verifier=dataclasses.replace(p.verifier, input_alphabet=("1", sym)))


def _with_guard_base_symbol(p, sym):
    guard = p.verifier.fallback
    bases = (guard.slot_bases[0] + (sym,),) + guard.slot_bases[1:]
    verifier = dataclasses.replace(p.verifier, fallback=dataclasses.replace(guard, slot_bases=bases))
    return dataclasses.replace(p, verifier=verifier)


def _with_shared_comm_symbol(p, sym):
    # every channel keeps sharing one alphabet, which the writer checks once
    shared = p.verifier.comm_alphabets[0] + (sym,)
    verifier = dataclasses.replace(p.verifier, comm_alphabets=(shared,) * p.k)
    provers = tuple(dataclasses.replace(prover, comm_alphabet=shared) for prover in p.provers)
    return dataclasses.replace(p, verifier=verifier, provers=provers)


@pytest.mark.parametrize("name, declare", [
    ("parity_relay", _with_tape_symbol),
    ("parity_relay", _with_input_symbol),
    ("no_comm_reduce", _with_guard_base_symbol),
    ("no_comm_reduce", _with_shared_comm_symbol),
])
def test_declared_symbols_that_would_not_read_back_are_refused(name, declare):
    # written unchecked, "a b" came back as two symbols and the round trip changed the protocol
    with pytest.raises(SpecFileError, match="^symbol 'a b' contains whitespace"):
        serialize_protocol(declare(corpus.build(name), "a b"))


@pytest.mark.parametrize("bad", ["a b", "|", ""])
def test_strategy_cells_and_choice_replies_are_checked(bad):
    p = corpus.build("no_comm")
    strategies = (
        ClassicalTableStrategy(work=1, rows={("#", ("#",)): ("#", (bad,))}),
        UnitaryTableStrategy(work=1, steps={None: {("#", (bad,)): [(("#", ("#",)), 1 + 0j)]}}),
        DerandomizedStrategy(choices={(1, "#", ("#", bad)): "#"}),
        DerandomizedStrategy(choices={(1, "#", ("#", "#")): bad}),
    )
    for strategy in strategies:
        prover = dataclasses.replace(p.provers[0], space=2, strategy=strategy)
        custom = dataclasses.replace(p, provers=(prover,) + p.provers[1:])
        with pytest.raises(SpecFileError, match=f"^symbol {bad!r} "):
            serialize_protocol(custom)


@pytest.mark.parametrize("change, undeclared", [
    # written unchecked, the accept set came back as {a, b, acc}
    (lambda v: dataclasses.replace(v, accept=v.accept | {"a b"}), "a b"),
    (lambda v: dataclasses.replace(v, reject=v.reject | {"q9"}), "q9"),
    (lambda v: dataclasses.replace(v, initial="q9"), "q9"),
], ids=["accept", "reject", "initial"])
def test_halting_sets_and_initial_state_are_checked(change, undeclared):
    p = corpus.build("no_comm")
    with pytest.raises(SpecFileError, match=re.escape(f"initial or halting states {[undeclared]} are not declared")):
        serialize_protocol(dataclasses.replace(p, verifier=change(p.verifier)))


@pytest.mark.parametrize("rewrite, fault", [
    (lambda key, branch: (("q9",) + key[1:], branch), "row source state 'q9' not declared"),
    (lambda key, branch: ((key[0], "#") + key[2:], branch), "row input symbol '#' not declared"),
    (lambda key, branch: (key[:2] + (("#", "zz"),), branch), "row receives 'zz' outside communication alphabet 2"),
    (lambda key, branch: (key[:2] + (("#",),), branch), "row received tuple has wrong arity"),
    # written unchecked, the file failed to load: "branch needs weight, state, move, and 2 sent symbols"
    (lambda key, branch: (key, ("a b",) + branch[1:]), "row target state 'a b' not declared"),
    (lambda key, branch: (key, branch[:2] + (("#", "zz"),) + branch[3:]),
     "row sends 'zz' outside communication alphabet 2"),
    (lambda key, branch: (key, branch[:2] + (("#",),) + branch[3:]), "row sent tuple has wrong arity"),
    # written unchecked, a move of 2 read back as 0
    (lambda key, branch: (key, branch[:1] + (2,) + branch[2:]), "head move 2 invalid"),
], ids=["source", "input", "received", "received-arity", "target", "sent", "sent-arity", "move"])
def test_rule_states_symbols_and_moves_are_checked(rewrite, fault):
    """Writing and validation refuse the same rows, validation with the row's own fault."""
    p = corpus.build("no_comm")
    (key, branches), *rest = p.verifier.rows.items()
    bad_key, bad_branch = rewrite(key, branches[0])
    rows = {bad_key: (bad_branch,) + branches[1:], **dict(rest)}
    bad = dataclasses.replace(p, verifier=dataclasses.replace(p.verifier, rows=rows))
    with pytest.raises(SpecFileError, match=f"^rule {re.escape(repr(bad_key))} names an undeclared state or symbol, "):
        serialize_protocol(bad)
    with pytest.raises(ValidationError, match=f"^{re.escape(fault)}$"):
        validate_protocol(bad)


# ---------------------------------------------------------------- strictness


def _base_text():
    return serialize_protocol(corpus.build("coinflip_classical"))


def test_parse_requires_header():
    text = _base_text().split("\n", 1)[1]
    with pytest.raises(SpecFileError):
        parse_protocol(text)
    with pytest.raises(SpecFileError):
        parse_protocol("qmip 99\n" + text)


def test_parse_rejects_stray_header_keys():
    text = _base_text().replace("name = ", "zzz = 1\nname = ", 1)
    with pytest.raises(SpecFileError) as err:
        parse_protocol(text)
    assert "zzz" in str(err.value)


def test_stray_key_error_names_the_first_unknown_line():
    text = _base_text().replace("initial = ", "zzz = 1\nyyy = 2\nzzz = 3\ninitial = ", 1)
    first = _line_of(text, "zzz = ")
    with pytest.raises(SpecFileError, match=f"^line {first}: unknown key 'zzz' in \\[verifier\\]$"):
        parse_protocol(text)


def test_parse_rejects_unknown_sections():
    text = _base_text() + "\n[oracle]\nanswer = 42\n"
    with pytest.raises(SpecFileError) as err:
        parse_protocol(text)
    assert "oracle" in str(err.value)


def test_parse_rejects_duplicate_rules():
    text = _base_text()
    rule = next(line for line in text.splitlines() if line.startswith("rule = "))
    with pytest.raises(SpecFileError) as err:
        parse_protocol(text.replace(rule, rule + "\n" + rule, 1))
    assert "duplicate" in str(err.value)


def test_parse_rejects_malformed_rules_with_line_numbers():
    text = _base_text()
    rule = next(line for line in text.splitlines() if line.startswith("rule = "))
    broken = text.replace(" -> ", " => ", 1)
    with pytest.raises(SpecFileError) as err:
        parse_protocol(broken)
    assert "line" in str(err.value)
    del rule


def test_parse_rejects_bad_weight_in_rule():
    text = _base_text().replace("1/2", "half")
    with pytest.raises(SpecFileError):
        parse_protocol(text)


def test_bad_weight_names_its_line_after_good_tokens_are_cached():
    text = _base_text()
    parse_protocol(text)
    lines = text.splitlines()
    n = next(i for i, line in enumerate(lines, start=1) if line.startswith("rule = ") and " 1/2 " in line)
    lines[n - 1] = lines[n - 1].replace("1/2", "1/0", 1)
    with pytest.raises(SpecFileError, match=f"^line {n}: zero denominator in weight '1/0'$"):
        parse_protocol("\n".join(lines))
    lines[n - 1] = lines[n - 1].replace("1/0", "half", 1)
    with pytest.raises(SpecFileError, match=f"^line {n}: bad weight token 'half'$"):
        parse_protocol("\n".join(lines))


def _line_of(text, prefix):
    return next(i for i, line in enumerate(text.splitlines(), start=1) if line.startswith(prefix))


@pytest.mark.parametrize("key", ["name", "cutoff", "initial", "comm-1"])
def test_duplicate_keys_name_the_second_occurrence(key):
    text = _base_text()
    first = _line_of(text, f"{key} = ")
    line = text.splitlines()[first - 1]
    doubled = text.replace(line + "\n", line + "\n; a comment\n" + line + "\n", 1)
    with pytest.raises(SpecFileError, match=f"^line {first + 2}: duplicate key '{key}' in "):
        parse_protocol(doubled)


def test_parse_rejects_missing_prover_sections():
    text = _base_text().split("[prover 1]")[0]
    with pytest.raises(SpecFileError) as err:
        parse_protocol(text)
    assert "prover" in str(err.value)


def test_parse_rejects_negative_prover_count():
    head = _base_text().split("[prover 1]")[0].replace("provers = 1", "provers = -1")
    text = "\n".join(line for line in head.splitlines() if not line.startswith(("rule = ", "comm-1 = ")))
    with pytest.raises(SpecFileError, match="provers must be at least 0, got -1"):
        parse_protocol(text)


def test_parse_rejects_lines_outside_key_value_shape():
    text = _base_text().replace("[verifier]", "[verifier]\njust words", 1)
    with pytest.raises(SpecFileError) as err:
        parse_protocol(text)
    assert "line" in str(err.value)


@pytest.mark.parametrize("count", [1, 3])
def test_a_guard_with_the_wrong_number_of_slot_bases_is_not_written(count):
    # written unchecked, the file failed to load: "missing key 'guard-base-2'"
    # with one base, "unknown key 'guard-base-3'" with three
    p = corpus.build("no_comm_reduce")
    g = p.verifier.fallback
    guard = dataclasses.replace(g, slot_bases=(g.slot_bases * 2)[:count])
    bad = dataclasses.replace(p, verifier=dataclasses.replace(p.verifier, fallback=guard))
    with pytest.raises(SpecFileError, match=f"^track-guard has {count} slot bases for 2 provers$"):
        serialize_protocol(bad)


def test_parse_rejects_undeclared_guard_states():
    p = corpus.build("no_comm_reduce")
    text = serialize_protocol(p)
    guard_state_name = next(s for s in p.verifier.states if s.startswith("rejt["))
    # drop one minted guard state from the declaration list
    states_line = next(line for line in text.splitlines() if line.startswith("states = "))
    slim = states_line.replace(" " + guard_state_name, "", 1)
    assert slim != states_line
    with pytest.raises(SpecFileError) as err:
        parse_protocol(text.replace(states_line, slim, 1))
    assert "fallback" in str(err.value)
