"""Exact character combinatorics of symmetric-group e-blocks.

The submodules load on first use: a public name, or a submodule's own name,
imports its module when it is first read from the package (PEP 562), so a
command loads only the modules it runs.
"""

from importlib import import_module

_EXPORTS = {
    "partitions": ("conjugate", "diagonal_hooks", "dominance_leq", "e_core",
                   "is_e_class_regular", "is_e_core", "parse_partition", "partitions_of",
                   "render_partition"),
    "characters": ("centralizer_order", "char_degree", "char_value", "character_table"),
    "blocks": ("BlockId", "blocks_of", "c_mu", "count_matrix", "extremal_lambda"),
    "sweeps": ("SweepReport", "lemma1_sweep", "nonvanishing_row_structure_check",
               "verify_chibar", "verify_dichotomy", "verify_remark1", "verify_remark2",
               "verify_theorem1"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_MODULE_OF])


def __getattr__(name):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        return getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
