"""The package namespace: every module's ``__all__``, re-exported once."""

import sys
import types

import qmarkov
from conftest import fresh_python
from qmarkov import chain, hermitian, hidden, measurement, oom, operators

MODULES = (hermitian, operators, measurement, chain, sys.modules["qmarkov.walk"], hidden, oom)

# the names the package exported when it still listed them by hand; none may go
REFERENCE_NAMES = """
SpectralDecomposition adjoint coords from_coords hermitian_basis hs_inner hs_norm
is_hermitian is_nonnegative is_unitary min_eigenvalue pure_state require_hermitian
require_markov_density spectral_decompose MarkovOperator NonnegativityReport apply compose
from_kraus from_stochastic from_unitary identity_operator is_trace_preserving power
random_quantum_density sampled_nonnegativity KrausMeasurement MarkovMeasurement
OutcomeDistribution Scale as_markov_measurement is_observable is_t_observable
outcome_distribution posterior word_distribution word_operator BoundednessReport
CesaroResult ConvergenceError MarkovChain boundedness_probe cesaro_average evolve
functional_average is_stationary unitary_vector_average DirectedGraph NodePOVM WalkTrace
limiting_node_distribution node_povm shift_unitary walk BellCheckResult FiveStateExample
HiddenStateSpace InformationFunction MarkovState RawMoment bell_check diagonal_povm
expectation feynman_state five_state_example is_jointly_observable joint
observe_distribution product_expectation raw_moment HiddenStateLift ObservableOperatorModel
OomValidationReport PredictionMatrix conditional entropy_rate hmm_to_oom lift_hidden_states
prediction_matrix step_distribution to_markov_measurement word_probability
""".split()


def test_all_has_no_duplicates():
    assert len(qmarkov.__all__) == len(set(qmarkov.__all__))


def test_all_is_the_module_lists_in_order():
    assert qmarkov.__all__ == [name for module in MODULES for name in module.__all__]


def test_every_name_is_the_defining_modules_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(qmarkov, name) is getattr(module, name), f"{module.__name__}.{name}"


def test_reference_names_stay_exported():
    assert len(REFERENCE_NAMES) == len(set(REFERENCE_NAMES)) == 83
    assert set(REFERENCE_NAMES) <= set(qmarkov.__all__)


def test_walk_is_the_function_and_the_module_stays_in_sys_modules():
    module = sys.modules["qmarkov.walk"]
    assert callable(qmarkov.walk) and qmarkov.walk is module.walk
    assert isinstance(module, types.ModuleType) and module.__name__ == "qmarkov.walk"


def test_star_import_in_a_fresh_process_warns_nothing():
    fresh_python("-c", "from qmarkov import *; assert callable(walk) and validate and EQUALITY_TOL", check=True)
