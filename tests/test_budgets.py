"""Every public search budget is checked where it enters: a value that is
not an int (a bool is not one) or is below its minimum is an InputError
naming the budget, never a raw TypeError or AttributeError, and never an
answer."""

import dataclasses

import pytest

from persinet import (
    AnalysisBounds,
    GenConfig,
    InputError,
    Lasso,
    build_rg,
    check_theorem,
    corpus_load,
    derive_nonDC_embedding,
    equivalence_class,
    gen_random_net,
    lasso_equiv_at_depth,
    oracle_spe_check,
    perm_equivalent,
    persistent_perm_equivalent,
    search_persistent_equivalent_lasso,
    spe_check,
)

from persinet.lts import complete_rg

from nets import par

FIG1 = corpus_load("fig1_basic").net   # 5 places
PAR4 = par(4)                          # 8 places
FIG6 = corpus_load("fig6_unfair").net
LASSO = Lasso(("y",), ("x", "a", "c"))
WORD = ("d", "c", "a")


# budget name -> a call that passes the value as that budget
BUDGETS = {
    "build_rg fig1": ("max_states", lambda v: build_rg(FIG1, v)),
    "build_rg par4": ("max_states", lambda v: build_rg(PAR4, v)),
    "complete_rg fig1": ("max_states", lambda v: complete_rg(FIG1, v)),
    "complete_rg par4": ("max_states", lambda v: complete_rg(PAR4, v)),
    "spe_check bound": ("bound", lambda v: spe_check(FIG1, v)),
    "spe_check guard": ("guard", lambda v: spe_check(FIG1, 3, guard=v)),
    "oracle_spe_check bound": ("bound", lambda v: oracle_spe_check(FIG1, v)),
    "gen_random_net max_states": ("max_states", lambda v: gen_random_net(GenConfig(), v)),
    "check_theorem max_states": ("max_states", lambda v: check_theorem(
        "perm-implies-parikh", FIG1, max_states=v)),
    "lasso_equiv depth": ("depth", lambda v: lasso_equiv_at_depth(FIG6, LASSO, LASSO, v)),
    "lasso_equiv window": ("window",
                           lambda v: lasso_equiv_at_depth(FIG6, LASSO, LASSO, 2, window=v)),
    "lasso_equiv guard": ("guard",
                          lambda v: lasso_equiv_at_depth(FIG6, LASSO, LASSO, 2, guard=v)),
    **{f"lasso_search {name}": (name, lambda v, name=name: search_persistent_equivalent_lasso(
        FIG6, LASSO, **{name: v})) for name in ("max_prefix", "max_cycle", "depth", "window")},
    "equivalence_class guard": ("guard", lambda v: equivalence_class(
        FIG1, FIG1.initial, WORD, guard=v)),
    "perm_equivalent guard": ("guard", lambda v: perm_equivalent(
        FIG1, FIG1.initial, WORD, ("c", "a", "d"), guard=v)),
    "persistent_perm_equivalent guard": ("guard", lambda v: persistent_perm_equivalent(
        FIG1, FIG1.initial, WORD, guard=v)),
    "derive_nonDC_embedding search_bound": ("search_bound", lambda v: derive_nonDC_embedding(
        FIG1, search_bound=v)),
    **{f"AnalysisBounds {f.name}": (f.name, lambda v, name=f.name: AnalysisBounds(**{name: v}))
       for f in dataclasses.fields(AnalysisBounds)},
}


@pytest.mark.parametrize("bad", [2.5, "3", True], ids=["float", "string", "bool"])
@pytest.mark.parametrize("case", list(BUDGETS))
def test_budget_not_an_int(case, bad):
    name, call = BUDGETS[case]
    with pytest.raises(InputError, match=f"^{name} must be an integer, got "):
        call(bad)


@pytest.mark.parametrize("case", [c for c in BUDGETS if c.startswith("AnalysisBounds")]
                         + ["build_rg par4", "spe_check bound", "lasso_search max_cycle",
                            "oracle_spe_check bound", "gen_random_net max_states",
                            "check_theorem max_states"])
def test_budget_below_minimum(case):
    name, call = BUDGETS[case]
    with pytest.raises(InputError, match=f"^{name} must be >= [01], got -1$"):
        call(-1)


def test_graph_searches_answer_alike():
    # a net's size does not change how its graph search checks the budget
    for bad in (2.5, "3", True, 0):
        errors = []
        for net in (FIG1, PAR4):
            with pytest.raises(InputError) as exc:
                build_rg(net, bad)
            errors.append(str(exc.value))
        assert errors[0] == errors[1]


def test_analysis_bounds_frozen():
    bounds = AnalysisBounds()
    for f in dataclasses.fields(AnalysisBounds):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(bounds, f.name, 1)
