"""Reference version of the beam-experiment builder.

This is the version of ``beam_model`` (with its plan validator) that builds
each stage as families of per-branch option lists, combined into unions, and
reads out every beam outside a loop, follow-up subtree included, once per
readout.  The library returns each stage's tests directly and computes each
beam once; the oracle tests require both sides to agree on labels, test
order, generator values, tolerance, paths, collapse table, witness labels
and path products, or on exception class and message.
"""

from __future__ import annotations

from itertools import product as iproduct

from orthokit.compounding import JOIN
from orthokit.errors import DepthCapExceeded, NotAState, UsageError
from orthokit.quantum import (
    DEFAULT_QTOL,
    MAX_PLAN_DEPTH,
    BeamModel,
    Matrix,
    SplitterPlan,
    Vec,
    check_orthonormal,
    mixed_density,
    project_density,
    pure_density,
    scale_density,
    vnorm2,
)
from orthokit.states import Weight, generator_model
from orthokit.testspace import build_test_space


def beam_model(
    plan: SplitterPlan,
    initial: Vec,
    tol: float = DEFAULT_QTOL,
) -> BeamModel:
    """Build the compound model of an iterated splitter experiment.

    Tests are all run-and-stop strategies: at each stage either the fine
    frame (every surviving beam detected separately) or the coarse version
    (loops recombined) is read out, and each resulting beam either stops or
    continues into its planned follow-up stage.  The state family holds the
    Born path weights of the initial vector and of the maximally mixed
    background, so every operationally live path is positive; dead paths
    are pruned.
    """
    if plan.depth() > MAX_PLAN_DEPTH:
        raise DepthCapExceeded(f"plan depth {plan.depth()} exceeds {MAX_PLAN_DEPTH}")
    _validate_plan(plan, tol)
    dim = len(initial)
    if abs(vnorm2(initial) - 1.0) > tol:
        raise NotAState("initial vector is not normalized")
    states = [pure_density(initial), mixed_density(dim)]

    paths: list[tuple[str, ...]] = []
    path_id: dict[tuple[str, ...], int] = {}
    masses: list[list[float]] = [[] for _ in states]
    sigma_raw: list[tuple[frozenset, int]] = []
    products_raw: dict[tuple[int, int], int] = {}
    witness_labels: list[str] = []
    witness_id: dict[str, int] = {}

    def intern_path(p: tuple[str, ...], mass: list[float]) -> int:
        if p in path_id:
            return path_id[p]
        pid = len(paths)
        path_id[p] = pid
        paths.append(p)
        for k in range(len(states)):
            masses[k].append(mass[k])
        return pid

    def witness(lab: str) -> int:
        if lab not in witness_id:
            witness_id[lab] = len(witness_labels)
            witness_labels.append(lab)
        return witness_id[lab]

    def build(stage: SplitterPlan, conds: list[Matrix], probs: list[float], prefix):
        """Returns the list of alternative test families at this node.

        Each family is a list of per-branch option lists; a test picks one
        option per branch.  An option is a frozenset of path ids.
        """
        unblocked = [i for i in range(len(stage.basis)) if i not in stage.blocked]
        if stage.blocked:
            # Blocking post-selects on passage: the surviving state is the
            # renormalized compression onto the open beams, at full mass.
            conds2, probs2 = [], []
            dirs = [stage.basis[i] for i in unblocked]
            for w, p in zip(conds, probs):
                compressed, tr = project_density(w, dirs)
                if tr > tol:
                    conds2.append(scale_density(compressed, 1.0 / tr))
                    probs2.append(p)
                elif p > tol:
                    raise NotAState("a live branch is fully blocked downstream")
                else:
                    conds2.append(compressed)
                    probs2.append(0.0)
            conds, probs = conds2, probs2
        grouped = set().union(*stage.groups) if stage.groups else set()
        modes = []
        # fine mode: every surviving beam separately
        fine_branches = []
        for i in unblocked:
            fine_branches.append(("fine", i))
        modes.append(fine_branches)
        if stage.groups:
            coarse_branches = [("group", gi) for gi in range(len(stage.groups))]
            for i in unblocked:
                if i not in grouped:
                    coarse_branches.append(("fine", i))
            modes.append(coarse_branches)
        families = []
        fine_ids: dict[int, int] = {}
        group_ids: dict[int, int] = {}
        for branches in modes:
            family = []
            for kind, idx in branches:
                if kind == "fine":
                    dirs = [stage.basis[idx]]
                    label = stage.labels[idx]
                    nxt = stage.fine_next.get(idx)
                else:
                    dirs = [stage.basis[i] for i in sorted(stage.groups[idx])]
                    label = stage.group_labels[idx]
                    nxt = stage.group_next.get(idx)
                branch_conds, branch_probs = [], []
                for w, p in zip(conds, probs):
                    compressed, tr = project_density(w, dirs)
                    branch_probs.append(p * tr)
                    branch_conds.append(
                        scale_density(compressed, 1.0 / tr) if tr > tol else compressed
                    )
                path = prefix + (label,)
                pid = intern_path(path, branch_probs)
                if kind == "fine":
                    fine_ids[idx] = pid
                else:
                    group_ids[idx] = pid
                options = [frozenset([pid])]
                if nxt is not None:
                    sub_families = build(nxt, branch_conds, branch_probs, path)
                    for fam in sub_families:
                        for combo in iproduct(*fam):
                            options.append(frozenset().union(*combo))
                    for j, lab in enumerate(nxt.labels):
                        if j in nxt.blocked:
                            continue
                        products_raw[(pid, witness(lab))] = path_id[path + (lab,)]
                family.append(options)
            families.append(family)
        for gi, g in enumerate(stage.groups):
            if gi in group_ids:
                members = frozenset(fine_ids[i] for i in sorted(g))
                sigma_raw.append((members, group_ids[gi]))
        return families

    families = build(plan, [w for w in states], [1.0] * len(states), ())
    tests_raw = set()
    for fam in families:
        for combo in iproduct(*fam):
            tests_raw.add(frozenset().union(*combo))

    # prune paths dead under every state
    alive = [
        i for i in range(len(paths)) if any(masses[k][i] > tol for k in range(len(states)))
    ]
    remap = {old: new for new, old in enumerate(alive)}
    names = [JOIN.join(p) for p in paths]
    tests = [[names[i] for i in t if i in remap] for t in tests_raw]
    space = build_test_space(tests, labels=[names[i] for i in alive])
    weights = [Weight(tuple(masses[k][i] for i in alive)) for k in range(len(states))]
    model = generator_model(space, weights, exact=False, tol=tol)
    sigma = {
        frozenset(remap[i] for i in ev): remap[q]
        for ev, q in sigma_raw
        if q in remap and all(i in remap for i in ev)
    }
    products = {
        (remap[b], wit): remap[p]
        for (b, wit), p in products_raw.items()
        if b in remap and p in remap
    }
    return BeamModel(
        model,
        tuple(tuple(paths[i]) for i in alive),
        sigma,
        tuple(witness_labels),
        products,
    )


def _validate_plan(plan: SplitterPlan, tol: float) -> None:
    check_orthonormal(plan.basis, tol)
    if len(plan.labels) != len(plan.basis):
        raise UsageError("stage needs one label per basis vector")
    seen = set()
    for g in plan.groups:
        if not g or g & seen:
            raise UsageError("recombination groups must be nonempty and disjoint")
        if any(i in plan.blocked for i in g):
            raise UsageError("cannot recombine a blocked beam")
        seen |= g
    if len(plan.group_labels) != len(plan.groups):
        raise UsageError("need one label per recombination group")
    for sub in list(plan.fine_next.values()) + list(plan.group_next.values()):
        _validate_plan(sub, tol)
