"""Exact verification of the extended-E8 conformal vector constructions.

The package builds the nine rank-8 sublattices of E8 attached to the
extended Dynkin diagram, the weight-2 algebra of the rescaled-E8 lattice
vertex algebra with its conformal vectors and involutions, the coset
subalgebras they generate, and the Leech lattice from a length-24 Z4
code.  All arithmetic is exact: rationals and cyclotomic integers only.
"""

from .scalars import Cyclotomic, NonRationalError, as_rational, phase
from .lattice import (Coset, EvenLattice, NotMinimal, NotPositiveDefinite,
                      coset_min_norm, count_X_eta)
from .rootsys import (ExtendedE8Node, NotRootGenerated, RootSystem,
                      UnsupportedType, build_root_system, extended_e8_node)
from .codes import (BinaryCode, Z4Code, construction_A, dual_code,
                    is_type_II, named_code, residue_code_B)
from .griess import (AlgebraContext, BadSpectrum, ContextMismatch,
                     GriessElement, LeavesMinimalSpace, ModuleSpace,
                     ModuleVector, NotConformal, apply_sigma, apply_theta,
                     build_hamming_family, build_node_family,
                     build_virasoro_family, conformal_check, coset_U2,
                     e8_context, generated_closure_coords, inner,
                     module_act, product)
from .mckay import conway_report, tau_product_orders
from .leech import (build_leech, certify_minimum, embed_sqrt2E8_cubed,
                    minimal_coset_survey, sigma_tilde_order)

__version__ = "0.1.0"
