"""SO(2) local-frame machinery for block-equivariant matrix prediction.

The package provides, bottom up: irrep layouts and harmonic bases
(:mod:`.irreps`); rotations, real Wigner-D matrices, and minimal local
frames (:mod:`.frames`); real Clebsch-Gordan tables, the reference SO(3)
tensor product, and its SO(2)-linear equivalent (:mod:`.cg`); the SO(2)
equivariant operation set (:mod:`.so2ops`); the forward model
(:mod:`.model`); Hamiltonian assembly, the generalized eigenproblem, and
metrics (:mod:`.hamiltonian`); and the verification harness
(:mod:`.harness`) behind the ``so2frames`` command line.
"""

from .counters import OpCounter, counting
from .irreps import (IrrepsLayout, LayoutError, So2Features, So3Features,
                     circular_harmonics, layout_parse, real_spherical_harmonics,
                     rotate_so2, so2_rotation_matrix)
from .frames import (Frame, Rotation, TARGET_AXIS, frame_average_check,
                     frame_from_direction, frames_from_directions, from_local,
                     rotate_so3, rotation_from_euler, rotation_from_matrix, to_local,
                     wigner_d)
from .cg import (PathWeights, cg_table, escn_reference_apply, expansion,
                 expansion_decompose, so3_tensor_product, valid_paths)
from .so2ops import (So2TpPath, enumerate_tp_paths, init_mlp, init_so2_ffn,
                     init_so2_gate, init_so2_layernorm, init_so2_linear, mlp,
                     so2_ffn, so2_gate, so2_layernorm, so2_linear, so2_tp_contract,
                     so2_tp_pair)
from .graph import MoleculeGraph, build_graph, graph_from_json, sample_molecule
from .model import (ModelConfig, checkpoint_dumps, checkpoint_loads,
                    default_fit_config, fit_demo, forward, init_params, predict)
from .hamiltonian import (BlockMatrix, OrbitalLayout, assemble, block_rotate,
                          build_orbital_layout, gen_synthetic_target,
                          generalized_eigensolve, metrics)
from .harness import RunReport, bench, check_equivariance

__version__ = "0.1.0"

__all__ = [
    "BlockMatrix", "Frame", "IrrepsLayout", "LayoutError", "ModelConfig",
    "MoleculeGraph", "OpCounter", "OrbitalLayout", "PathWeights", "Rotation",
    "RunReport", "So2TpPath", "So2Features", "So3Features", "TARGET_AXIS",
    "assemble", "bench", "block_rotate", "build_graph", "build_orbital_layout",
    "cg_table", "check_equivariance", "checkpoint_dumps", "checkpoint_loads",
    "circular_harmonics", "counting", "default_fit_config", "enumerate_tp_paths",
    "escn_reference_apply", "expansion",
    "expansion_decompose", "fit_demo", "forward", "frame_average_check",
    "frame_from_direction", "frames_from_directions", "from_local", "gen_synthetic_target",
    "generalized_eigensolve", "graph_from_json", "init_mlp", "init_params",
    "init_so2_ffn", "init_so2_gate", "init_so2_layernorm", "init_so2_linear",
    "layout_parse", "metrics", "mlp", "predict", "real_spherical_harmonics",
    "rotate_so2", "rotate_so3", "rotation_from_euler", "rotation_from_matrix",
    "sample_molecule",
    "so2_ffn", "so2_gate", "so2_layernorm", "so2_linear", "so2_rotation_matrix",
    "so2_tp_contract", "so2_tp_pair", "so3_tensor_product", "to_local",
    "valid_paths", "wigner_d",
]
