"""Path-encoded linear-optical simulator for qubit channels.

Qubits live in photon path modes with polarization as the working ancilla.
The package builds programmable gate lattices realizing dephasing, thermal
and squeezed amplitude damping, and Pauli channels, applies the matching
Kraus operator sets, and reconstructs two-qubit states from the 16-setting
projection protocol.
"""

from types import ModuleType as _ModuleType

from .channels import (
    ChannelParams,
    DephasingParams,
    GADParams,
    KrausSet,
    PauliParams,
    SGADParams,
    bloch_vector,
    channel_kraus,
    choi,
    completeness_residual,
)
from .circuit import (
    REFERENCE_GAD_ANGLES,
    REFERENCE_GAD_FIDELITY_BAND,
    REFERENCE_GAD_MATRIX,
    CircuitSpec,
    GatePlacement,
    ProductStateParams,
    build_channel_lattice,
    circuit_from_payload,
    circuit_to_payload,
    circuit_unitary,
    encode_joint_state,
    encode_reservoir_state,
    evolve,
    gad_experiment,
    initial_state,
    output_mode_decomposition,
    prepare_product_state,
    preparation_circuit,
    stage_unitary,
    traced_joint_state,
)
from .errors import (
    InternalConsistencyError,
    InvalidArgument,
    InvalidChannel,
    InvalidState,
    InvalidWiring,
    KrausloomError,
)
from .gates import (
    Register,
    Role,
    U3Params,
    cnot_pol_path,
    controlled_on_path,
    embed,
    make_register,
    u3,
)
from .qmath import (
    ATOL_ARITHMETIC,
    ATOL_SPECTRAL,
    ATOL_STRUCTURAL,
    DensityMatrix,
    PureState,
    dagger,
    fidelity,
    partial_trace,
)
from .tomography import (
    CountRecord,
    MLReconstruction,
    TomographySetting,
    ml_reconstruct,
    project_to_psd,
    projector,
    settings_table,
    simulate_counts,
)

# the submodules are importable as attributes, but are not names of the API
__all__ = [name for name in dir()
           if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)]
__version__ = "0.1.0"
