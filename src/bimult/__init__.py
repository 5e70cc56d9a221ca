"""Desk-scale laboratory for bilinear Fourier multipliers.

Periodic spectral grids, weak Lorentz norms, the row/column splitting of
coefficient families, lattice-bump and multi-scale block symbols, Meyer
product-wavelet analysis, and a deterministic experiment harness.
"""

__version__ = "0.1.0"

from .bilinear import SymbolGrid, apply_bilinear, operator_ratio
from .bumps import BumpSpec, smooth_step
from .grid import (
    FrequencyBox,
    PhysicalField,
    SpectralVector,
    l1_norm,
    l2_norm,
    spectral_from_json,
    spectral_to_json,
    synthesize,
)
from .lorentz import MeasuredValues, weak_quasinorm
from .rowcol import (
    CoeffMatrix,
    Partition,
    decompose,
    necessity_lower_bound,
    verify_partition,
)
from .symbols import (
    CounterexampleAConfig,
    CounterexampleBConfig,
    ShellSequence,
    SignAssignment,
    besov_norm,
    counterexample_B_block,
    count_representations,
    lattice_symbol,
    power_shell_sequence,
    test_function_B,
)
from .wavelets import (
    lemma_discrete_ratio,
    wavelet_coefficients,
    wavelet_indices,
)
from .experiments import (
    EXPERIMENTS,
    ExperimentRecord,
    boundedness_corpus,
    counting_table,
    growth_experiment_A,
    growth_experiment_B,
    khintchine_exact,
    khintchine_mc,
    levelset_profile,
    run_experiment,
)
