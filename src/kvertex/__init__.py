"""kvertex: exact equivariant box-counting vertex series and the
combinatorial wall-crossing identities relating them."""

from .exactalg import LaurentPoly, QSeries, RatFunc
from .qcombi import (
    check_identity,
    quantum_factorial,
    quantum_int,
    restricted_word_sum,
)
from .boxconfig import (
    BoxConfig,
    character,
    enumerate_configs,
    enumerate_quot_pairs,
    min_volume,
    renormalized_volume,
)
from .vertexk import (
    VertexChar,
    VertexSeries,
    cy_constancy_check,
    dt_vertex_series,
    fixed_point_weight,
    leg_tangent,
    pt_vertex_series,
    quot2_vertex_series,
    vertex_character,
)
from .wallcross import (
    FormalExpr,
    joyce_check,
    mochizuki_check,
    pt_from_dt_series,
    rank2_bridge,
    wall_transfer,
)

__all__ = [
    "LaurentPoly",
    "QSeries",
    "RatFunc",
    "check_identity",
    "quantum_factorial",
    "quantum_int",
    "restricted_word_sum",
    "BoxConfig",
    "character",
    "enumerate_configs",
    "enumerate_quot_pairs",
    "min_volume",
    "renormalized_volume",
    "VertexChar",
    "VertexSeries",
    "cy_constancy_check",
    "dt_vertex_series",
    "fixed_point_weight",
    "leg_tangent",
    "pt_vertex_series",
    "quot2_vertex_series",
    "vertex_character",
    "FormalExpr",
    "joyce_check",
    "mochizuki_check",
    "pt_from_dt_series",
    "rank2_bridge",
    "wall_transfer",
]
