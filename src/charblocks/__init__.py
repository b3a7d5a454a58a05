"""Exact character combinatorics of symmetric-group e-blocks."""

from .partitions import (
    add_hooks_of_length,
    conjugate,
    diagonal_hooks,
    dominance_leq,
    e_core,
    e_weight,
    is_e_class_regular,
    is_e_core,
    parse_partition,
    partitions_of,
    render_partition,
)
from .characters import (
    CharEngine,
    centralizer_order,
    char_degree,
    char_value,
    character_table,
    chi_bar_coeffs,
)
from .blocks import (
    BlockId,
    CountReport,
    block_partitions,
    blocks_of,
    c_mu,
    count_matrix,
    extremal_lambda,
    min_c_over_regular,
    opposite_sign_partner,
)
from .sweeps import (
    SweepReport,
    lemma1_sweep,
    nonvanishing_row_structure_check,
    verify_chibar,
    verify_dichotomy,
    verify_remark1,
    verify_remark2,
    verify_theorem1,
)

__all__ = [name for name in dir() if not name.startswith("_")]
