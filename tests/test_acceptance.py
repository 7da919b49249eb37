"""Acceptance checklist: ten verdicts, one printed line each.

Every test computes its own pass/fail verdict, prints it to the live
terminal (bypassing capture) so the checklist is visible in any pytest
run, and then asserts. Oracles are independent of the code under test:
finite differences, closed forms on a linear stub, exhaustive search,
by-hand re-summation, and scripted probability tables.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import explained_class, make_random_instance, make_random_model, predicted_pair_map
from knapsack_oracle import KnapsackInstance, one_row_batch, positions, solve_bruteforce
from stubs import LinearModel, ScriptedModel, linear_instance, scripted_instance

from minfeat.attribution import PairScoreMap, cooperative_integrated_gradients, integrated_gradients
from minfeat.cli import main
from minfeat.corpus import save_corpus
from minfeat.knapsack import solve_dp
from minfeat.metrics import comprehensiveness, fms_pairs, log_odds
from minfeat.model import save_model
from minfeat.pipeline import (
    CidrConfig,
    perturbed_upper_bound,
    refine,
    sample_perturbations,
    upper_bound_u1,
    upper_bound_u2,
)
from minfeat.evaluation import evaluate_methods


def _verdict(capsys, index: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"[{index:2d}/10] {name:<52} {status}  ({detail})")
    assert ok, f"{name}: {detail}"


def _central_difference(model, embeddings: np.ndarray, target: int, h: float = 1e-5) -> np.ndarray:
    x = np.asarray(embeddings, dtype=np.float64)
    grad = np.zeros_like(x)
    for i in range(x.shape[0]):
        for j in range(x.shape[1]):
            plus, minus = x.copy(), x.copy()
            plus[i, j] += h
            minus[i, j] -= h
            grad[i, j] = (model.forward(plus)[target] - model.forward(minus)[target]) / (2 * h)
    return grad


def _completeness_residual(model, instance, target: int, steps: int) -> float:
    ig = integrated_gradients(model, instance, target, steps=steps)
    full = model.forward(instance.embeddings)[target]
    empty = model.forward(model.baseline_embeddings(len(instance)))[target]
    return abs(float(ig.sum()) - float(full - empty))


def test_01_analytic_gradient_matches_central_differences(capsys):
    start = time.perf_counter()
    worst = 0.0
    for seed in range(100):
        model = make_random_model(seed)
        inst = make_random_instance(model, 1000 + seed)
        target = seed % 2
        analytic = model.input_gradient(inst.embeddings, target)
        numeric = _central_difference(model, inst.embeddings, target)
        scale = max(float(np.abs(numeric).max()), 1e-8)
        worst = max(worst, float(np.abs(analytic - numeric).max()) / scale)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-4 and elapsed < 10.0
    _verdict(capsys, 1, "analytic gradient vs central differences", ok,
             f"max rel err {worst:.2e} over 100 draws, {elapsed:.1f}s")


def test_02_attribution_sums_telescope_to_output_difference(capsys):
    start = time.perf_counter()
    worst = 0.0
    coarse_total = fine_total = 0.0
    for seed in range(50):
        model = make_random_model(200 + seed)
        inst = make_random_instance(model, 300 + seed)
        target = explained_class(model, inst)
        residual = _completeness_residual(model, inst, target, steps=200)
        worst = max(worst, residual)
        coarse_total += residual
        fine_total += _completeness_residual(model, inst, target, steps=400)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-3 and fine_total < coarse_total and elapsed < 30.0
    _verdict(capsys, 2, "attribution completeness and step refinement", ok,
             f"max residual {worst:.2e}, doubled steps {coarse_total:.2e}->{fine_total:.2e}, {elapsed:.1f}s")


def test_03_linear_model_closed_forms(capsys):
    rng = np.random.default_rng(3)
    weights = rng.normal(0.0, 1.0, size=4)
    x = rng.normal(0.0, 1.0, size=(10, 4))
    model = LinearModel(weights, bias=0.2, center=0.4)
    inst = linear_instance(x)
    closed = x @ weights / 10.0

    worst = 0.0
    ig = integrated_gradients(model, inst, target_class=1, steps=40)
    worst = max(worst, float(np.abs(ig - closed).max()))
    for beta in (0.0, 0.5, 1.0):
        pair_map = cooperative_integrated_gradients(model, inst, 1, beta, steps=40)
        ig = pair_map.ig
        for i in range(10):
            for j in range(i + 1, 10):
                worst = max(
                    worst,
                    abs(ig[i] - closed[i]),
                    abs(ig[j] - closed[j]),
                    abs(pair_map.loo[j, i] - closed[i]),
                    abs(pair_map.loo[i, j] - closed[j]),
                    abs(pair_map.cig[i, j] - (1.0 + beta) * (closed[i] + closed[j])),
                )
    ok = worst <= 1e-10
    _verdict(capsys, 3, "closed forms on a linear model, all 45 pairs", ok,
             f"max deviation {worst:.2e}")


def test_04_dp_knapsack_matches_exhaustive_search(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(4)
    mismatches = 0
    for _ in range(200):
        n = int(rng.integers(0, 16))
        inst = KnapsackInstance(
            weights=tuple(int(w) for w in rng.integers(1, 30, size=n)),
            values=tuple(float(v) for v in rng.integers(1, 50, size=n)),
            capacity=int(rng.integers(0, 80)),
        )
        # The oracle's selection maximises value, so equal selections
        # mean equal values.
        (selected,) = solve_dp(one_row_batch(inst))
        if positions(selected) != solve_bruteforce(inst):
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 5.0
    _verdict(capsys, 4, "knapsack DP vs exhaustive oracle, 200 instances", ok,
             f"{mismatches} mismatches, {elapsed:.1f}s")


def _random_pair_fixture(rng) -> tuple[PairScoreMap, dict, tuple, bool]:
    """A pair map over random scores, plus the raw leave-one-out draws
    {(i, j): (loo_i, loo_j)} and the positive pairs derived from them."""
    n = int(rng.integers(3, 9))
    scores = rng.normal(0.0, 1.0, size=n)
    beta = float(rng.uniform(0.0, 1.0))
    nonneg = bool(rng.integers(0, 2))
    raw = {}
    loo = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            loo_i, loo_j = float(rng.normal()), float(rng.normal())
            if nonneg:
                loo_i, loo_j = abs(loo_i), abs(loo_j)
            raw[(i, j)] = (loo_i, loo_j)
            loo[j, i], loo[i, j] = loo_i, loo_j
    positive = tuple(
        sorted(
            (i, j) for (i, j), (loo_i, loo_j) in raw.items()
            if float(scores[i]) + float(scores[j]) + beta * (loo_i + loo_j) > 0.0
        )
    )
    return PairScoreMap.from_components(scores, loo, beta, 1), raw, positive, nonneg


def test_05_bounds_recomputed_from_raw_scores(capsys):
    rng = np.random.default_rng(5)
    worst = 0.0
    ordering_ok = True
    for fixture in range(50):
        pair_map, raw, positive, nonneg = _random_pair_fixture(rng)
        ig = pair_map.ig

        pos_words = [i for i in range(len(ig)) if ig[i] > 0.0]
        expected_u1 = 0.0
        if len(pos_words) > 1:
            expected_u1 = 2.0 * (len(pos_words) - 1) * sum(float(ig[i]) for i in pos_words)
        beta = pair_map.beta
        expected_u2 = beta * sum(raw[p][0] + raw[p][1] for p in positive)
        # One row of perturbations per iteration, one u2' per row.
        perturbations = sample_perturbations(positive, seed=fixture, n_iter=3)
        expected_u2p = [
            beta * sum(v * (raw[p][0] + raw[p][1]) for v, p in zip(row, positive))
            for row in perturbations.tolist()
        ]

        u1 = upper_bound_u1(ig)
        u2 = upper_bound_u2(pair_map)
        u2p = perturbed_upper_bound(pair_map, perturbations)
        worst = max(worst, abs(u1 - expected_u1), abs(u2 - expected_u2))
        worst = max([worst] + [abs(a - b) for a, b in zip(u2p.tolist(), expected_u2p)])
        if len(u2p) != 3 or nonneg and not (u2p <= u2 + 1e-12).all():
            ordering_ok = False
    ok = worst <= 1e-12 and ordering_ok
    _verdict(capsys, 5, "upper bounds re-derived by hand, 50 fixtures", ok,
             f"max deviation {worst:.2e}, perturbed<=plain {'held' if ordering_ok else 'violated'}")


def test_06_refinement_feasibility_audit(capsys, toy_model, toy_instances):
    start = time.perf_counter()
    config = CidrConfig()
    audited = degenerate = 0
    violations: list[str] = []
    refined = refine([predicted_pair_map(toy_model, inst, config) for inst in toy_instances], config)
    for idx, mfs in enumerate(refined):
        if mfs.degenerate:
            degenerate += 1
            continue
        cig = mfs.pair_scores.cig
        positive = mfs.pair_scores.positive_pairs
        for k, (excluded, u2p, capacity, score) in enumerate(
            zip(mfs.excluded, mfs.u2_prime, mfs.capacities, mfs.excluded_scores)
        ):
            bound = mfs.u1 + u2p
            total = sum(cig[p] for p, out in zip(positive, excluded) if out)
            if total > bound + 1e-9:
                violations.append(f"instance {idx} iter {k}: {total} > {bound}")
            if abs(total - score) > 1e-9:
                violations.append(f"instance {idx} iter {k}: recorded score drifts")
            if abs(capacity - bound) > 1e-12:
                violations.append(f"instance {idx} iter {k}: recorded capacity drifts")
            audited += 1
        if mfs.excluded.shape != (config.n_iter, len(positive)):
            violations.append(f"instance {idx}: exclusion matrix of shape {mfs.excluded.shape}")
        for pair, frequency in zip(mfs.pairs, mfs.frequencies):
            if not cig[pair] > 0.0:
                violations.append(f"instance {idx}: retained pair {pair} has cig <= 0")
            if not frequency >= config.epsilon:
                violations.append(f"instance {idx}: pair {pair} below frequency threshold")
    elapsed = time.perf_counter() - start
    ok = not violations and elapsed < 300.0
    head = violations[0] if violations else "no violations"
    _verdict(capsys, 6, "exclusion feasibility on the bundled corpus", ok,
             f"{audited} iterations, {degenerate} degenerate, {head}, {elapsed:.0f}s")


def test_07_pair_sum_combination_identity(capsys):
    rng = np.random.default_rng(7)
    exact = True
    for n in range(2, 13):
        for _ in range(3):
            # dyadic rationals keep every partial sum exactly representable
            a = rng.integers(1, 32, size=n) / 16.0
            lhs = sum(float(a[i]) + float(a[j]) for i in range(n) for j in range(i + 1, n))
            rhs = (n - 1) * float(a.sum())
            if lhs != rhs or upper_bound_u1(np.asarray(a)) != 2.0 * rhs:
                exact = False
    _verdict(capsys, 7, "pairwise sum identity, sizes 2-12, exact", exact,
             "all-positive dyadic scores" if exact else "identity violated")


def test_08_directional_method_ordering(capsys, toy_model, toy_instances):
    start = time.perf_counter()
    methods = ["cidr", "cidr-no-r", "cidr-no-cig", "ig-top2k", "random"]
    collected: dict[str, list] = {m: [] for m in methods}
    for seed in range(5):
        rows = evaluate_methods(toy_model, toy_instances, methods, replace(CidrConfig(), seed=seed))
        for row in rows:
            collected[row.method].append(row)

    def mean(values: list[float]) -> float:
        return sum(values) / len(values)

    fms_cidr = mean([r.fms for r in collected["cidr"]])
    fms_top = mean([r.fms for r in collected["ig-top2k"]])
    fms_greedy = mean([r.fms for r in collected["cidr-no-r"]])
    fms_no_cig = mean([r.fms for r in collected["cidr-no-cig"]])
    comp_cidr = mean([r.comp for r in collected["cidr"]])
    comp_rand = mean([r.comp for r in collected["random"]])
    elapsed = time.perf_counter() - start
    # cidr, cidr-no-r and cidr-no-cig share one scale (fms_pairs); ig-top2k
    # is scored on another (fms_words), so that comparison says less.
    ok = (
        fms_cidr >= fms_greedy
        and fms_cidr >= fms_no_cig
        and fms_cidr >= fms_top
        and comp_cidr >= comp_rand
    )
    _verdict(capsys, 8, "5-seed ordering: cidr vs baselines", ok,
             f"cidr fms_pairs {fms_cidr:.3f} >= no-refine {fms_greedy:.3f} & no-cig {fms_no_cig:.3f}; "
             f">= top2k fms_words {fms_top:.3f}; Comp {comp_cidr:.3f} >= random {comp_rand:.3f}; {elapsed:.0f}s")


def test_09_explain_is_byte_deterministic(capsys, toy_model, toy_corpus, tmp_path):
    model_path = tmp_path / "model.json"
    corpus_path = tmp_path / "corpus.jsonl"
    save_model(toy_model, str(model_path))
    save_corpus(toy_corpus, str(corpus_path))

    payloads = []
    codes = []
    for name in ("first.jsonl", "second.jsonl"):
        out = tmp_path / name
        codes.append(main([
            "explain", "--corpus", str(corpus_path), "--model", str(model_path),
            "--out", str(out), "--seed", "0",
        ]))
        payloads.append(out.read_bytes())
    ok = codes == [0, 0] and payloads[0] == payloads[1] and len(payloads[0]) > 0
    _verdict(capsys, 9, "explain twice, byte-identical reports", ok,
             f"exit codes {codes}, {len(payloads[0])} bytes")


def test_10_metric_hand_traces(capsys):
    drop_model = ScriptedModel({(): (0.1, 0.9), (0, 1): (0.4, 0.6)})
    inst = scripted_instance(2)
    comp = comprehensiveness(drop_model, [inst], [((0, 1),)])
    lo = log_odds(drop_model, [inst], [((0, 1),)])

    fms_model = ScriptedModel({
        (): (0.2, 0.8),
        (0, 1, 2, 3): (0.7, 0.3),
        (2, 3): (0.3, 0.7),
        (0, 1): (0.35, 0.65),
    })
    fms_pass = fms_pairs(fms_model, [scripted_instance(4)], [((0, 1), (2, 3))], t=0.5)

    stuck_model = ScriptedModel({
        (): (0.2, 0.8),
        (0, 1, 2, 3): (0.7, 0.3),
        (2, 3): (0.6, 0.4),
        (0, 1): (0.35, 0.65),
    })
    fms_fail = fms_pairs(stuck_model, [scripted_instance(4)], [((0, 1), (2, 3))], t=0.5)

    ok = (
        abs(comp - 0.3) <= 1e-12
        and abs(lo - math.log(0.6 / 0.9)) <= 1e-12
        and abs(lo - (-0.405465)) <= 1e-6
        and fms_pass == 1.0
        and fms_fail == 0.0
    )
    _verdict(capsys, 10, "hand-traced metric fixtures", ok,
             f"comp {comp:.6f}, lo {lo:.6f}, fms {fms_pass:.0f}/{fms_fail:.0f}")
