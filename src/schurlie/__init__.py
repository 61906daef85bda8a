"""Exact computer algebra for symmetric-group-equivariant endomorphisms of
tensor powers, free Lie algebras in the Lyndon basis, the derivation Lie
algebra with its endomorphism action, and the Johnson correspondence for
basis-conjugating free-group automorphisms.

All arithmetic is exact: integer coefficients throughout, ranks included.
Values are immutable after construction.
"""

__version__ = "0.1.0"

from .errors import (DimensionMismatch, IndexOutOfRange, InternalInvariantError,
                     InvalidArgument, NoSolutionFound, NotInFiltration,
                     ParseError, ResourceGuardExceeded, SchurlieError)
from .words import (TensorElement, act, multidegree, orbit, sorted_rep,
                    stabilizer_orbit_key, tensor_product)
from .freelie import (GroupRingElement, LieElement, bracketing_function,
                      embed, lie_bracket, lyndon_basis, normalize,
                      specht_wever, witt_dimension)
from .schur import (SchurElement, apply_to_lie, basis, is_equivariant,
                    letter_substitution)
from .transfer import (GradedSchurElement, boxtimes, coset_transversal,
                       operad_compose, star)
from .derivations import (Derivation, apply_derivation, commutator_derivation,
                          conjugating_derivation, der_bracket,
                          find_annihilating_schur, generator_derivation,
                          schur_act, schur_closure_rank)
from .freegroup import (EndoOnFree, MagnusSeries, classify_pair,
                        commutator_auto, conjugating_auto, johnson_image,
                        magnus, verify_mccool)
