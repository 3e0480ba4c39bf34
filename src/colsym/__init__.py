"""Perfect colourings of regular and Laves tilings.

Counts and renders the colourings of the (p, q) tilings whose colour
classes are permuted by every symmetry of the tiling.  Colourings with k
colours correspond to conjugacy classes of index-k subgroups of the
tiling's symmetry group that contain the stabilizer of one tile, so the
heart of the package is a low-index subgroup enumerator for the
reflection groups of right triangles with angles pi/p and pi/q.
"""

__version__ = "0.1.0"

from .errors import (
    ColsymError,
    DomainError,
    InternalError,
    ResourceLimit,
)
from .presentations import (
    MIRROR_TWIST,
    Geometry,
    Presentation,
    classify_geometry,
    triangle_group,
    von_dyck_group,
)
from .words import REFLECTIONS, ROTATIONS, Word
from .coset import (
    CosetTable, canonical_table, least_fixed_coset, orientation_sides, reroot, transform_subgroup,
)
from .lowindex import ClassList, Seed, low_index_classes
from .census import (
    CensusEntry,
    CensusReport,
    Scope,
    SubgroupRecord,
    TilingKind,
    census,
    colour_permutation,
    colouring_seeds,
    format_census,
    required_words,
)
from .geometry import FundamentalTriangle, TrianglePatch, fundamental_triangle, generate_patch
from .render import ColouredPatch, colour_patch, emit_svg, verify_perfect_on_patch
from .cache import cached_provider, load_classes, store_classes
from .selftest import run_selftest
