"""Exact computation of Koszul modules, characteristic-free Hermite
reciprocity, and the graded Betti table of the tangent developable of a
rational normal curve, over GF(p) and the rationals."""

__version__ = "0.1.0"

from .exactla import GF, QQ, ExactMatrix, FieldSpec, kernel_basis, rank
from .hermite import psi_compat_check, psi_map
from .koszul import KoszulInput, chow_member, hilbert_bound, random_koszul_input, \
    resonance_trivial, w_dim
from .oracle import oracle_kij, ring_dim
from .tangent import BettiTable, betti_table, k_i1, k_i2, weyman_dim

__all__ = [
    "GF", "QQ", "ExactMatrix", "FieldSpec", "kernel_basis", "rank",
    "psi_compat_check", "psi_map",
    "KoszulInput", "chow_member", "hilbert_bound",
    "random_koszul_input", "resonance_trivial", "w_dim",
    "oracle_kij", "ring_dim",
    "BettiTable", "betti_table", "k_i1", "k_i2", "weyman_dim",
    "__version__",
]
