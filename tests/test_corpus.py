import pathlib

import pytest

from qmipsim import corpus
from qmipsim.engine import simulate

from qmipsim.fileformat import load_protocol, serialize_protocol
from qmipsim.specs import check_well_formed, validate_protocol

REPO = pathlib.Path(__file__).resolve().parent.parent


def test_registry_names():
    assert set(corpus.REGISTRY) == {
        "always_accept_classical",
        "always_accept_quantum",
        "coinflip_classical",
        "coinflip_quantum",
        "no_comm",
        "no_comm_lift",
        "no_comm_reduce",
        "parity_relay",
    }


def test_build_unknown_name():
    with pytest.raises(KeyError):
        corpus.build("nonesuch")


@pytest.mark.parametrize("name", sorted(corpus.REGISTRY))
def test_every_protocol_is_valid_and_well_formed(name):
    p = corpus.build(name)
    validate_protocol(p)
    assert check_well_formed(p.verifier)


@pytest.mark.parametrize("name", sorted(corpus.REGISTRY))
def test_every_protocol_runs_its_sample_inputs(name):
    p = corpus.build(name)
    for x in corpus.test_inputs(name):
        result = simulate(p, x)
        assert 0.0 <= result.p_accept <= 1.0 + 1e-12
        assert result.p_accept + result.p_reject + result.leftover == pytest.approx(
            1.0, abs=1e-9
        )


@pytest.mark.parametrize("name", sorted(corpus.REGISTRY))
def test_shipped_snapshot_matches_builders(name):
    path = REPO / "protocols" / f"{name}.qmip"
    assert path.exists(), "regenerate with: qmipsim corpus protocols"
    assert load_protocol(str(path)) == corpus.build(name)
    # byte for byte: a writer change that still round-trips would pass the check above
    assert path.read_text(encoding="utf-8") == serialize_protocol(corpus.build(name))


def test_emit_writes_requested_names(tmp_path):
    paths = corpus.emit(str(tmp_path), names=["no_comm"])
    assert len(paths) == 1
    assert load_protocol(paths[0]) == corpus.build("no_comm")
