"""Exact-arithmetic models for local systems on the torus.

Commuting-pair representations of Z x Z, their Maurer-Cartan normal forms,
polynomial differential forms on the square cell structure, the
twisted-invariants complexes computing local-coefficient cohomology, and the
equivariant models of the torus and of the total space built over it.
"""

from .cochain import TwistedComplex
from .gca import AlgebraPresentation, Element
from .mcdg import (HomElement, MCObject, build_extension, extension_class,
                   extension_iso, mc_check, mc_to_s, realize_mc, rep_extension,
                   rep_to_mc, twisted_d)
from .qlinalg import (Matrix, frac, frac_str, invert, rank, rank_kernel,
                      solve)
from .t2forms import (Form1, Form2, LocalSystemT2, SectionCandidate,
                      build_local_system, constant_section, is_global_section,
                      section_w, section_x)
from .torus_rep import (SemiSimpleData, TorusRep, cellular_complex, hom_rep,
                        is_isomorphic, parse_rep, semisimplify, validate)
from .xmodel import (GENERIC, ChainMapReport, ModelPresentation,
                     ParameterSpec, build_total_model, build_torus_model,
                     compare_actions, invariant_basis, nilpotent_model,
                     recover_homotopy_action, twisted_invariants_complex,
                     verify_chain_map)

__all__ = [name for name in dir() if not name.startswith("_")]
