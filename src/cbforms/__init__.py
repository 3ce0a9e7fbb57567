"""Block-multilinear forms on the hypercube: influence analytics,
completely bounded norm witnesses, exact free-moment combinatorics,
query-circuit extraction, and greedy decision-tree simulation."""

from .forms import BlockMultilinearForm, random_form
from .freecomb import (StarPairing, enumerate_star_pairings, fuss_catalan, moment_upper_bound,
                       reduce_word, trace_moment_exact)
from .matnum import (DEFAULT_DIM_SCHEDULE, Seed, haar_orthogonal, haar_unitary,
                     operator_norm_svd, polar, unitarity_residual)
from .ncpoly import NCPolynomial, evaluate_nc, form_to_ncpoly
from .quantum import (QuantumQueryCircuit, addr_index, address_form, extract_form,
                      forrelation_circuit, random_circuit)
from .simulate import (ErrorProfile, SimulationPolicy, SimulationTranscript,
                       error_profile, reference_query_bound, simulate_on_input)
from .witness import (WitnessReport, general_form_witness, influence_floor, polar_witness,
                      root_influence_witness, scalar_phase_address_witness,
                      scalar_phase_assignment, sign_baseline)

__version__ = "0.1.0"

__all__ = [
    "BlockMultilinearForm", "random_form",
    "StarPairing", "enumerate_star_pairings", "fuss_catalan", "moment_upper_bound",
    "reduce_word", "trace_moment_exact",
    "DEFAULT_DIM_SCHEDULE", "Seed", "haar_orthogonal", "haar_unitary",
    "operator_norm_svd", "polar", "unitarity_residual",
    "NCPolynomial", "evaluate_nc", "form_to_ncpoly",
    "QuantumQueryCircuit", "addr_index", "address_form", "extract_form",
    "forrelation_circuit", "random_circuit",
    "ErrorProfile", "SimulationPolicy", "SimulationTranscript", "error_profile",
    "reference_query_bound", "simulate_on_input",
    "WitnessReport", "general_form_witness", "influence_floor", "polar_witness",
    "root_influence_witness", "scalar_phase_address_witness", "scalar_phase_assignment",
    "sign_baseline",
    "__version__",
]
