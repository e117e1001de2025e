"""canonflow: scaling-flow canonical transformations for 1D quantum mechanics.

The package builds the one-parameter point transformations generated by
vector fields f(x) d/dx, applies them unitarily to grid wavefunctions, uses
them to reduce a family of time-dependent harmonic oscillators to a static
one (and hence to propagate it exactly), and maps free motion to motion on a
line with a nontrivial metric.  Every operator identity used along the way
has a numerical verification entry point (see ``canonflow.verify``).
"""

__version__ = "0.1.0"

from .errors import (
    CanonflowError, DomainBlowup, StepFailure, SupportLeakage, NotNormalized,
    ImaginaryFrequency, NegativeRadicand, MassZeroCrossing, TruncationError,
    ResolutionError, SingularMetric, LinearSolveFailure, NonMonotoneFlow,
    FixedPointInInterval, ScenarioError,
)
from .flowcore import (
    GeneratorSpec, FlowEvaluation, flow_evaluate, flow_map, flow_jacobian,
    conjugation_factor, bracket_generator,
)
from .gridspace import (
    Grid, WaveFunction, GaussianState, apply_point_unitary,
    apply_quadratic_phase, expectation, verify_bracket_identities,
    wavefunction_to_csv, wavefunction_from_csv,
)
from .hamiltonians import (
    TimeProfile, QuadraticHamiltonian, SolvableFamily, dilation_transform,
    quadratic_phase_transform, effective_frequency, omega_from_mass,
    mass_epsilon, reduce_oscillator, general_f_transform,
)
from .propagators import (
    HermiteBasis, StepperReport, Trajectory, hermite_propagate,
    split_step_propagate, free_propagate, exact_solvable_propagate,
    ExactSolvablePropagator, gaussian_exact_propagate,
    gaussian_oscillator_evolve, crank_nicolson_curved,
    apply_curved_kinetic, quadratic_hamiltonian_matrix, oscillator_spectrum,
)
from .metricmap import (
    MetricProfile, metric_from_generator, curved_hamiltonian,
    generator_from_metric, verify_metric_equivalence,
)
