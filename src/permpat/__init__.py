"""Permutation pattern / permutation group engine.

Public surface: permutation values and their pattern calculus (``perms``),
set partitions and the derivative calculus (``partitions``), fully
enumerated permutation groups (``groups``), the pattern/compatibility
operators (``galois``), the closed-form level classifier (``classify``),
and the brute-force verifier (``verify``).
"""
from .perms import (
    CapExceeded,
    Perm,
    adjacent_pattern_quotient,
    ajd,
    all_patterns,
    ascending,
    complement,
    compose,
    delete_point,
    descending,
    dja,
    format_perm,
    inverse,
    involves,
    jumps,
    natural_cycle,
    parity,
    parse_perm,
    pattern,
    reverse,
)
from .partitions import (
    Partition,
    derive,
    derive_iter,
    end_blocks,
    format_partition,
    interwoven,
    interwoven_generators,
    join,
    max_intervals,
    meet,
    mu,
    mu_ab,
    parse_partition,
    refines,
    reverse_partition,
)
from .groups import (
    PermGroup,
    PermSet,
    alternating_group,
    descending_group,
    describe_group,
    dihedral_interval_group,
    enumerate_subgroups,
    natural_cyclic_group,
    natural_dihedral_group,
    parse_group,
    partition_automorphisms,
    sab_group,
    symmetric_group,
    trivial_group,
    young_subgroup,
    young_with_reversal,
)
from .galois import comp_set, pat_set
from .classify import (
    ClassKind,
    Classification,
    EventualFamily,
    Prediction,
    predict_eventual,
    predict_level,
)
from .verify import (
    Report,
    eventual_onset,
    verify_catalog,
    verify_group,
    verify_laws,
    verify_prediction,
)

__all__ = [name for name in dir() if not name.startswith("_")]
