"""Desk-scale toolkit for interactive proofs with finite-automaton verifiers.

Protocols couple a constant-space verifier (quantum or probabilistic) with a
small team of computationally unbounded provers over single-symbol channels.
The package simulates them exactly, transforms between prover counts and
verifier kinds, and stress-tests soundness with structured adversary sweeps.
"""
from .amplitudes import (
    StateVector,
    apply_sparse_operator,
    norm_sq,
    prune,
)
from .adversary import (
    DerandomizeReport,
    SearchResult,
    SoundnessReport,
    StrategyFamily,
    constant_family,
    default_families,
    derandomize_provers,
    reply_sequence_family,
    rotation_family,
    search,
    soundness_gap,
    track_probe_family,
)
from .engine import (
    Configuration,
    RoundStat,
    RunResult,
    initial_state,
    input_tape,
    run_round,
    simulate,
)
from .errors import (
    AlphabetMismatch,
    FamilyTooLarge,
    InvalidInput,
    MissingTransition,
    NoEraser,
    NotFairCoin,
    NotOrthonormal,
    NotRestrictive,
    NotReversible,
    QmipError,
    RunFault,
    SpaceExceeded,
    SpecFileError,
    Unbounded,
    ValidationError,
)
from .fileformat import (
    load_protocol,
    parse_protocol,
    parse_weight,
    save_protocol,
    serialize_protocol,
    serialize_weight,
)
from .specs import (
    BLANK,
    LEFT_END,
    RIGHT_END,
    ClassicalTableStrategy,
    DerandomizedStrategy,
    EraserStrategy,
    ForeignGuard,
    LoggedReplyStrategy,
    ProtocolSpec,
    ProverSpec,
    ReversibleWrapStrategy,
    TrackGuard,
    TrackWrapStrategy,
    UnitaryTableStrategy,
    VerifierSpec,
    check_prover_columns,
    check_restrictive,
    check_well_formed,
    fair_coin_violations,
    fixed_width_binary_encoding,
    make_track_alphabet,
    parse_track,
    track,
    validate_protocol,
    xor_symbols,
)
from .transforms import (
    LiftOutput,
    ReduceOutput,
    complete_unitary,
    lift_2ip_to_3qip,
    make_eraser,
    make_reversible_prover,
    reduce_3qip_to_2qip,
    unify_alphabets,
)

__version__ = "0.1.0"
