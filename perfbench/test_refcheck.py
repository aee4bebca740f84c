"""Tests of the benchmark's correctness check: a document that matches
its reference has no failed cells, and a perturbed reference value
raises the failed-cell count, and with it failed_frac.

    python3 perfbench/test_refcheck.py
"""

import copy
import json
import os
import tempfile
import unittest

import refcheck
import run

REFS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")


def reference(workload):
    return refcheck.load(os.path.join(REFS, workload + ".json"))["variants"][0]


def document(cells):
    """An experiment document whose estimate blocks hold ``cells``, with
    a field no current schema has, which the check must ignore."""
    out = []
    for labels, rec in cells:
        cell = {"labels": labels, "montecarlo": None, "splitting": None, "exact": None, "counters": {"events": 1}}
        if rec[0] == "montecarlo":
            trials, honest, adversary, convergence, reorg, divergence, failures = rec[1:]
            cell["montecarlo"] = {
                "trials": trials,
                "total_honest_blocks": honest,
                "total_adversary_blocks": adversary,
                "total_convergence_opportunities": convergence,
                "max_reorg_depth": reorg,
                "max_divergence_depth": divergence,
                "failures": [{"threshold": t, "failures": f, "estimate": f / trials} for t, f in failures],
            }
        elif rec[0] == "splitting":
            cell["splitting"] = {
                "total_rounds": rec[1],
                "levels": [{"level": lv, "hits": h, "effort": e} for lv, h, e in rec[2]],
            }
        else:
            cell["exact"] = {
                "estimates": [{"threshold": t, "probability": p, "truncation_error": e} for t, p, e in rec[1]]
            }
        out.append(cell)
    return {"schema": "experiment-v2", "cells": out}


class RefcheckTest(unittest.TestCase):
    def failed_frac(self, doc, want):
        """failed_frac as run.py computes it from a written document."""
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "out.json")
            with open(path, "w", encoding="utf-8") as f:
                json.dump(doc, f)
            return run.failures(path, want) / len(want)

    def test_every_reference_matches_its_own_document(self):
        for workload in run.VARIANTS:
            want = reference(workload)
            self.assertEqual(self.failed_frac(document(want), want), 0.0, workload)

    def test_a_perturbed_wilson_count_fails_its_cell(self):
        want = reference("mc_sweep")
        doc = document(want)
        perturbed = copy.deepcopy(want)
        perturbed[5][1][7][0][1] += 1  # one more failing trial at T = 12
        self.assertEqual(self.failed_frac(doc, perturbed), 1 / len(want))

    def test_a_perturbed_splitting_hit_count_fails_its_cell(self):
        want = reference("rare_split")
        perturbed = copy.deepcopy(want)
        perturbed[0][1][2][-1][1] -= 1
        self.assertEqual(self.failed_frac(document(want), perturbed), 1.0)

    def test_exact_probabilities_compare_within_the_tolerance(self):
        want = reference("exact_dense")
        # The cell with the largest truncation error, so the test shows
        # both terms of the tolerance.
        i, j = max(((i, j) for i, (_, rec) in enumerate(want) for j in range(len(rec[1]))),
                   key=lambda ij: want[ij[0]][1][1][ij[1]][2])
        t, p, trunc = want[i][1][1][j]
        for shift, fails in ((0.9 * trunc, 0), (1.1 * trunc + refcheck.EXACT_RTOL * p, 1)):
            perturbed = copy.deepcopy(want)
            perturbed[i][1][1][j] = [t, p + shift, trunc]
            self.assertEqual(round(self.failed_frac(document(want), perturbed) * len(want)), fails)

    def test_a_relative_change_beyond_1e9_fails_a_tight_exact_cell(self):
        want = reference("exact_dense")
        i = next(i for i, (_, rec) in enumerate(want) if all(0 < p < 1 and e < 1e-30 for _, p, e in rec[1]))
        doc = document(want)
        doc["cells"][i]["exact"]["estimates"][0]["probability"] *= 1 + 1e-10
        self.assertEqual(self.failed_frac(doc, want), 0.0)
        doc["cells"][i]["exact"]["estimates"][0]["probability"] *= 1 + 1e-8
        self.assertEqual(self.failed_frac(doc, want), 1 / len(want))

    def test_a_missing_cell_or_document_fails_every_cell(self):
        want = reference("scenario_mc")
        doc = document(want)
        doc["cells"].pop()
        self.assertEqual(self.failed_frac(doc, want), 1.0)
        self.assertEqual(run.failures(os.path.join(REFS, "absent.json"), want), len(want))


if __name__ == "__main__":
    unittest.main()
