"""Witnessed equivalence of morphisms in table-driven finite 2-categories.

Core layers:

* :mod:`morpheq.catkernel` -- finite categories / strict 2-categories as tables
* :mod:`morpheq.equivalence` -- witness verification, search, calculus, classes
* :mod:`morpheq.group_action` -- group actions and their delooped chain slices
* :mod:`morpheq.preord_mset` -- preordered carriers with exact scalar action
* :mod:`morpheq.frames` -- Bessel families, frame operators, two-sided bounds
* :mod:`morpheq.seminorm_bridge` -- seminorm representations tying both ends
* :mod:`morpheq.cli` -- the ``morpheq`` command
"""

from .catkernel import (
    Arrow,
    Cell,
    Finite2Category,
    FiniteCategory,
    FunctorData,
    MorphismFunction,
    Violation,
)
from .equivalence import (
    EquivData,
    VerifyResult,
    Witness,
    are_equivalent,
    derive_reflexivity,
    derive_symmetry,
    derive_transitivity,
    equivalence_classes,
    verify_witness,
)
from .group_action import (
    DeloopedSlice,
    FiniteGroup,
    GroupAction,
    deloop_slice,
    delooped_equivalent,
    orbit_equivalent,
    orbit_partition,
)
from .preord_mset import (
    CentralCell,
    MonotoneMap,
    PreordObject,
    as_fraction,
    check_interchange,
    check_suite,
    compose_cells_horizontal,
    compose_cells_vertical,
    compose_maps,
    identity_cell,
    identity_map,
    is_two_cell,
    scalar_map,
)
from .frames import (
    BesselFamily,
    CompareVerdict,
    DefEquivVerdict,
    FrameVerdict,
    OperatorMatrix,
    RhoForm,
    asymp_compare,
    def_equivalent_with_witness,
    frame_operator,
    is_frame,
    onb_witness,
    phase_unitary_act,
    probe_vectors,
    rho_eval,
    standard_basis,
    transport_form,
)
from .seminorm_bridge import (
    BridgeVerdict,
    SeminormRep,
    ambient_norm,
    apply_param,
    bridge_composite,
    bridge_composite_staged,
    bridge_equivalent,
    cell_holds,
    leq_seminorm,
    weighted_analysis_rep,
)
from . import errors

__version__ = "0.1.0"

__all__ = [
    "Arrow",
    "BesselFamily",
    "BridgeVerdict",
    "Cell",
    "CentralCell",
    "CompareVerdict",
    "DefEquivVerdict",
    "DeloopedSlice",
    "EquivData",
    "Finite2Category",
    "FiniteCategory",
    "FiniteGroup",
    "FrameVerdict",
    "FunctorData",
    "GroupAction",
    "MonotoneMap",
    "MorphismFunction",
    "OperatorMatrix",
    "PreordObject",
    "RhoForm",
    "SeminormRep",
    "VerifyResult",
    "Violation",
    "Witness",
    "ambient_norm",
    "apply_param",
    "are_equivalent",
    "asymp_compare",
    "bridge_composite",
    "bridge_composite_staged",
    "bridge_equivalent",
    "cell_holds",
    "check_interchange",
    "check_suite",
    "compose_cells_horizontal",
    "compose_cells_vertical",
    "compose_maps",
    "def_equivalent_with_witness",
    "deloop_slice",
    "delooped_equivalent",
    "derive_reflexivity",
    "derive_symmetry",
    "derive_transitivity",
    "equivalence_classes",
    "errors",
    "frame_operator",
    "identity_cell",
    "identity_map",
    "is_frame",
    "is_two_cell",
    "leq_seminorm",
    "onb_witness",
    "orbit_equivalent",
    "orbit_partition",
    "phase_unitary_act",
    "probe_vectors",
    "rho_eval",
    "as_fraction",
    "scalar_map",
    "standard_basis",
    "transport_form",
    "verify_witness",
    "weighted_analysis_rep",
]
