"""Graph analysis along the Neumaier taxonomy: edge-regular graphs,
regular cliques, averaged spectral thresholds, and mechanical verifiers
for the characterization theorems relating them.

The names below are imported from their modules on first use (PEP 562),
so ``neumaier --help`` and ``generate`` start without the classifier.
"""

import sys
from importlib import import_module
from types import ModuleType

#: exported name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in (
        ("_kernels", "KERNEL_KIND"),
        ("classify", """Analysis FourEvRefutation LabeledSweepResult LineGraphReport
            SweepAggregate Taxonomy TheoremOutcome classify classify_line_graph_neumaier
            delsarte_clique_bound hoffman_clique_bound is_one_walk_regular
            refute_four_eigenvalues sweep_labeled sweep_verify verify_delsarte_equivalence
            verify_eigenvalue_sandwich verify_extension_theorem verify_hoffman_equivalence
            verify_minus_two_corollary verify_multipartite_boundary
            verify_no_four_eigenvalues verify_walk_regular_theorem"""),
        ("cliques", """CliqueReport ExtensionReport cliques_of_order
            extension_hypothesis_holds max_clique_order maximal_cliques regular_cliques"""),
        ("errors", "ConsistencyError DegenerateSpectrumError Graph6Error SpectralResolutionError"),
        ("graphs", """FAMILIES Graph complement complete complete_multipartite components
            cycle decode_graph6 diameter edge_mask encode_graph6 from_edge_mask from_edges
            generate is_complete is_connected johnson2 line_graph petersen rook"""),
        ("regularity", """AvgParams ErgParams SrgParams avg_params edge_regular_params
            exact_clique_s is_complete_multipartite is_regular srg_params triangle_count"""),
        ("spectra", "CharPoly Spectrum charpoly exact_integer_eigenvalue spectrum"),
    )
    for name in names.split()
}

__all__ = [*_EXPORTS, "__version__"]
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})


class _Package(ModuleType):
    """The submodule ``classify`` and the function it exports share a
    name.  Importing the submodule binds it on the package; this keeps
    the function there instead, as the eager re-export used to."""

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, ModuleType) and _EXPORTS.get(name) == name:
            value = getattr(value, name)
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
