"""Finite quantale-valued relation categories: algebras, spectra, topologies,
and contextuality verdicts, all machine-checked at desk scale."""

from qspec.quantale import (
    AxiomReport, InvariantViolation, Quantale, QuantaleError, RigHom,
    ZdfRequiredError, builtin_quantale, endomorphisms, is_zdf, load_quantale,
    load_quantale_file, parse_quantale_tag, quantale_to_doc, rig_homs,
    two_embedding, verify_quantale, zdf_collapse, zdf_witness,
)
from qspec.relations import (
    FiniteSet, QRel, add, add_via_biproduct, carrier, compose, dagger, diag_rel,
    identity_rel, rel, scalar_mul, scalar_mul_via_tensor, scalar_rel, tensor,
    zero_rel,
)
from qspec.subalgebra import (
    AlgebraPoset, Decomposition, EnumerationBoundExceeded, MixedAmbientError,
    Subsemialgebra, close, commutant, diagonal_algebra, enumerate_vn,
    is_von_neumann, primitive_idempotents, subunital_idempotents,
    trivial_algebra, validate_decomposition,
)
from qspec.spectra import (
    TWO, SpectrumSet, character_from_prime, character_kernel, characters_to_two,
    gelfand_spectrum, prime_spectrum, restrict_character, restrict_prime,
)
from qspec.contextuality import (
    Presheaf, Verdict, build_presheaf, canonical_section, global_sections,
    ks_verdict, section_element, unnatural_edge,
)
from qspec.zariski import (
    FiniteTopology, SeparationReport, check_continuity, is_homeomorphism,
    kolmogorov_quotient, separation_report, verify_quotient_xi,
    zariski_topology,
)

__version__ = "0.1.0"
