"""Strong-vs-weak measurement simulator and ensemble-budget calculator
for Leggett-Garg style two-time measurement runs.
"""

__version__ = "0.10.4"

from .budget import BudgetInput, BudgetReport, strong_subensemble, wastage_report
from .errors import (
    DimensionMismatchError,
    ValidationError,
    WeakRegimeWarning,
)
from .invasiveness import (
    InvasivenessReport,
    measure_invasiveness,
    predicted_strong,
    predicted_weak,
    wasted_resource,
)
from .measurement import (
    PointerModel,
    sample_weak_readings,
    strong_channel,
    weak_channel_exact,
)
from .protocol import (
    CorrelatorEstimate,
    DynamicsSpec,
    SeriesPlan,
    lg_statistic,
    macrorealism_bounds,
    precession_qubit,
    run_series,
)
from .quantum import (
    DensityMatrix,
    Observable,
    basis_state,
    born_weights,
    evolve,
    expectation,
    maximally_mixed,
    overlap_fidelity,
    pauli,
    plus_state,
    propagator,
    pure_state,
    purity,
    spectral_decompose,
    variance,
)
from .streams import substream
