"""Path-encoded linear-optical simulator for qubit channels.

Qubits live in photon path modes with polarization as the working ancilla.
The package builds programmable gate lattices realizing dephasing, thermal
and squeezed amplitude damping, and Pauli channels, applies the matching
Kraus operator sets, and reconstructs two-qubit states from the 16-setting
projection protocol.
"""

from .channels import (
    ChannelParams,
    DephasingParams,
    GADParams,
    KrausSet,
    PauliParams,
    SGADParams,
    bloch_vector,
    channel_action_distance,
    channel_kraus,
    choi,
    completeness_residual,
    kraus_apply,
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
    thermal_weights,
    traced_joint_state,
    traced_system_state,
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
    WireIndex,
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
    DensityReport,
    PureState,
    dagger,
    fidelity,
    partial_trace,
    tensor,
    validate_density,
)
from .tomography import (
    CountRecord,
    MLReconstruction,
    TomographySetting,
    hv_block_empty,
    linear_reconstruct,
    ml_reconstruct,
    project_to_psd,
    projector,
    settings_table,
    simulate_counts,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
