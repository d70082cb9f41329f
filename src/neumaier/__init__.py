"""Graph analysis along the Neumaier taxonomy: edge-regular graphs,
regular cliques, averaged spectral thresholds, and mechanical verifiers
for the characterization theorems relating them."""

from ._kernels import KERNEL_KIND
from .classify import (
    Analysis,
    FourEvRefutation,
    LabeledSweepResult,
    LineGraphReport,
    SweepAggregate,
    Taxonomy,
    TheoremOutcome,
    classify,
    classify_line_graph_neumaier,
    delsarte_clique_bound,
    hoffman_clique_bound,
    is_one_walk_regular,
    refute_four_eigenvalues,
    sweep_labeled,
    sweep_verify,
    verify_delsarte_equivalence,
    verify_eigenvalue_sandwich,
    verify_extension_theorem,
    verify_hoffman_equivalence,
    verify_minus_two_corollary,
    verify_multipartite_boundary,
    verify_no_four_eigenvalues,
    verify_walk_regular_theorem,
)
from .cliques import (
    CliqueReport,
    EquitableBipartition,
    ExtensionReport,
    cliques_of_order,
    extension_hypothesis_holds,
    is_equitable_bipartition,
    max_clique_order,
    maximal_cliques,
    regular_cliques,
)
from .errors import (
    ConsistencyError,
    DegenerateSpectrumError,
    Graph6Error,
    SpectralResolutionError,
)
from .graphs import (
    FAMILIES,
    Graph,
    complement,
    complete,
    complete_multipartite,
    components,
    cycle,
    decode_graph6,
    diameter,
    edge_mask,
    encode_graph6,
    from_edge_mask,
    from_edges,
    generate,
    is_complete,
    is_connected,
    johnson2,
    line_graph,
    petersen,
    rook,
)
from .regularity import (
    AvgParams,
    ErgParams,
    SrgParams,
    avg_params,
    edge_regular_params,
    exact_clique_s,
    is_complete_multipartite,
    is_regular,
    srg_params,
    triangle_count,
)
from .spectra import (
    CharPoly,
    Spectrum,
    charpoly,
    exact_integer_eigenvalue,
    spectrum,
)

__version__ = "0.1.0"
