"""Finite simplicial sets: cells, maps, and the standard constructions."""

from types import ModuleType as _ModuleType

from .budget import Budget, BudgetExceeded, DEFAULT_NODE_BUDGET, DEFAULT_WORD_BUDGET
from .complex import ComplexBuilder, SimplicialSet, validate
from .generators import (
    GENERATORS,
    GeneratorComplex,
    boundary_complex,
    cosk0_complex,
    from_vertex_tuples,
    horn_complex,
    j_truncation,
    spine_complex,
    standard_simplex,
    tuple_simplex,
)
from .maps import (
    Attachment,
    Join,
    Product,
    Pushout,
    SimplicialMap,
    apply_images,
    attach_all,
    compose,
    enumerate_maps,
    identity_map,
    join,
    join_functor,
    map_by_vertices,
    product,
    product_functor,
    pushout,
    require_composable,
    simplex_as_map,
    sub_complex,
    terminal_map,
    word_label,
)
from .simplex import (
    CellId,
    Simplex,
    apply_degeneracy,
    constant_simplex,
    degeneracy_words,
    degenerate,
    is_constant,
    word_is_valid,
)
from .spaces import (
    FunctionComplexTruncation,
    LevelwiseSpace,
    SliceSpace,
    function_complex,
    hom_left,
    restricted_function_complex,
    slice_under,
)

__all__ = [
    name
    for name in dir()
    if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)
]
