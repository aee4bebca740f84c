"""Correctness references for the benchmark workloads.

Each cell of an experiment JSON document carries one estimate block.
``records`` keeps the values that define each estimate:

* Wilson Monte-Carlo: the trial aggregate's counts;
* splitting: the total rounds and every level's hits and effort;
* exact: every threshold's probability and truncation error.

``count_failures`` compares them with a recorded reference. Counts must
match exactly: outputs are deterministic at every pool width. An exact
probability may differ from its reference by the reference's truncation
error plus ``EXACT_RTOL`` of the reference value, so a faster solver
that changes the last bits still passes. Only estimate blocks are read,
so fields that a later JSON schema adds never count as failures.
"""

import json

# The repository's EXACT_COMPARE_RTOL (crates/bench/src/experiment.rs).
EXACT_RTOL = 1e-9


def record(cell):
    """The estimate-defining values of one JSON cell."""
    if cell.get("montecarlo"):
        m = cell["montecarlo"]
        return [
            "montecarlo",
            m["trials"],
            m["total_honest_blocks"],
            m["total_adversary_blocks"],
            m["total_convergence_opportunities"],
            m["max_reorg_depth"],
            m["max_divergence_depth"],
            [[f["threshold"], f["failures"]] for f in m["failures"]],
        ]
    if cell.get("splitting"):
        s = cell["splitting"]
        return [
            "splitting",
            s["total_rounds"],
            [[lv["level"], lv["hits"], lv["effort"]] for lv in s["levels"]],
        ]
    if cell.get("exact"):
        return [
            "exact",
            [
                [e["threshold"], e["probability"], e["truncation_error"]]
                for e in cell["exact"]["estimates"]
            ],
        ]
    raise ValueError(f"cell {cell.get('labels')} has no estimate block")


def records(document):
    """``[labels, record]`` for every cell of an experiment document."""
    return [[cell["labels"], record(cell)] for cell in document["cells"]]


def cell_matches(got, want):
    """Whether one cell's ``[labels, record]`` agrees with its reference."""
    (labels, rec), (want_labels, want_rec) = got, want
    if labels != want_labels or rec[0] != want_rec[0]:
        return False
    if rec[0] != "exact":
        return rec == want_rec
    if len(rec[1]) != len(want_rec[1]):
        return False
    for (t, p, _), (want_t, want_p, want_trunc) in zip(rec[1], want_rec[1]):
        tolerance = max(want_trunc, 0.0) + EXACT_RTOL * abs(want_p)
        if t != want_t or not abs(p - want_p) <= tolerance:
            return False
    return True


def count_failures(got, want):
    """Reference cells that ``got`` disagrees with; all of them when the
    cell counts differ."""
    if len(got) != len(want):
        return len(want)
    return sum(not cell_matches(g, w) for g, w in zip(got, want))


def load(path):
    """The reference document at ``path``."""
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def rounded(cell):
    """A cell with exact probabilities cut to 12 significant digits and
    truncation errors to 3, which is well inside ``EXACT_RTOL`` and
    keeps a reference file a third smaller."""
    labels, rec = cell
    if rec[0] != "exact":
        return cell
    return [labels, ["exact", [[t, float(f"{p:.12g}"), float(f"{e:.3g}")] for t, p, e in rec[1]]]]


def save(path, workload, variants):
    """Writes the records of every input variant, one cell a line."""
    blocks = []
    for cells in variants:
        rows = ",\n".join("  " + json.dumps(rounded(c), ensure_ascii=False) for c in cells)
        blocks.append(" [\n" + rows + "\n ]")
    with open(path, "w", encoding="utf-8") as f:
        f.write('{"workload": %s, "variants": [\n' % json.dumps(workload))
        f.write(",\n".join(blocks))
        f.write("\n]}\n")
