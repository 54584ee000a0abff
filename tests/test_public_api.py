"""The package's public surface is the union of its modules' ``__all__`` lists."""

import pi0rand
from pi0rand import pi0, pvalues, simkit, statdist, tuning

MODULES = (statdist, pvalues, pi0, tuning, simkit)

# The public surface, written out: adding or dropping a public name edits this list.
PUBLIC_NAMES = [
    "CStarResult", "CurveTable", "EstimatorConfig", "MarginalLaw", "McSummary", "ModelSpec", "PopulationSpec",
    "RandomizationRule", "RngStream", "SelectionResult", "SimulationPlan", "TwoSampleTLaw", "ZTestLaw",
    "candidate_set", "cdf_curves", "conditional_expectation", "cstar_search", "g_values", "gen_lfc_pvalues",
    "h_curve", "h_value", "lfc_pvalue_t", "lfc_pvalue_z", "randomize_vector", "randomized_cdf", "run_mc",
    "schweder_spjotvoll", "select_c0",
]


def test_public_names_are_the_pinned_list():
    assert sorted(pi0rand.__all__) == PUBLIC_NAMES


def test_package_all_is_the_union_of_module_lists():
    names = [name for mod in MODULES for name in mod.__all__]
    assert len(names) == len(set(names))
    assert sorted(pi0rand.__all__) == sorted(names)


def test_every_listed_name_resolves_in_its_module_and_the_package():
    for mod in MODULES:
        for name in mod.__all__:
            assert getattr(pi0rand, name) is getattr(mod, name), f"{mod.__name__}.{name}"


def test_every_listed_callable_is_defined_where_it_is_listed():
    # The benchmark tracer wraps only names whose __module__ is the module that lists them.
    for mod in MODULES:
        for name in mod.__all__:
            obj = getattr(mod, name)
            if callable(obj):
                assert obj.__module__ == mod.__name__, f"{mod.__name__}.{name}"
