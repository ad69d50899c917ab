"""End-to-end acceptance checks: every identity the package exists to verify,
at its stated tolerance, with stated runtime caps.  One test per criterion."""
import json
import math
import time

import numpy as np
import pytest

from reference import (
    alpha_match,
    from_words,
    in_alpha_ball,
    in_ball,
    in_bowen_ball,
    in_neutralized_ball,
    neutralized_match,
    sampled_hyperbolicity,
)
from shiftmetrics import (
    BernoulliMeasure,
    MarkovMeasure,
    MetricParams,
    RadiusLadder,
    alpha_estimation_entropy,
    alpha_window,
    average_over_typical,
    ball_window,
    bowen_window,
    box_dimension,
    brin_katok_local,
    check_quasi_metric,
    make_space,
    mather_n0,
    neutralized_window,
    p_of_r,
    point_from_window,
    pointwise_dimension,
    sample_point,
    sample_points,
    sample_typical,
    solve_relation_5_23,
    standard_bundle,
    top_entropy_oracle,
    verify_hyperbolicity,
    verify_identities,
)
from shiftmetrics.cli import main
from shiftmetrics.errors import AlphaTooLarge, NoSolution
from shiftmetrics.estimators import DEFAULT_R1, estimate_kind
from shiftmetrics.metrics import ONE_SIDED

P13 = MetricParams(1.3, 1.3)
ONE13 = MetricParams(1.3, 1.3, mode=ONE_SIDED)
FULL2 = make_space(2)
GOLDEN = make_space(2, [[1, 1], [1, 0]])
UNIFORM2 = BernoulliMeasure((0.5, 0.5))
SKEWED = BernoulliMeasure((0.3, 0.7))
GOLDEN_MARKOV = MarkovMeasure(((0.5, 0.5), (1.0, 0.0)))
LN2 = math.log(2.0)
K = P13.k()  # 7.622989373416803


def check(label: str, ok: bool, detail: str = ""):
    print(f"{'PASS' if ok else 'FAIL'} {label}" + (f" — {detail}" if detail else ""))
    assert ok, f"{label}: {detail}"


def test_criterion_01_box_dimension_full_shift():
    t0 = time.perf_counter()
    est = box_dimension(FULL2, P13, RadiusLadder.geometric(8, 40))
    elapsed = time.perf_counter() - t0
    target = LN2 * (1.0 / math.log(1.3) + 1.0 / math.log(1.3))
    rel = abs(est.slope - target) / target
    check(
        "criterion 1: full 2-shift box dimension",
        rel <= 0.02 and elapsed < 5.0,
        f"slope {est.slope:.4f} vs {target:.4f} (rel {rel:.2e}), {elapsed:.2f}s",
    )


def test_criterion_02_box_dimension_golden_sft():
    t0 = time.perf_counter()
    h = top_entropy_oracle(GOLDEN)
    est = box_dimension(GOLDEN, P13, RadiusLadder.geometric(8, 40))
    elapsed = time.perf_counter() - t0
    target = h * K
    rel = abs(est.slope - target) / target
    check(
        "criterion 2: golden-mean box dimension",
        rel <= 0.02 and abs(target - 3.668) < 0.01 and elapsed < 5.0,
        f"slope {est.slope:.4f} vs {target:.4f} (rel {rel:.2e}), {elapsed:.2f}s",
    )


def test_criterion_03_pointwise_dimension():
    t0 = time.perf_counter()
    ladder = RadiusLadder.geometric(8, 40)
    est = average_over_typical(
        lambda p: pointwise_dimension(SKEWED, p, P13, ladder),
        SKEWED,
        horizon=110,
        n_points=100,
        seed=0,
    )
    elapsed = time.perf_counter() - t0
    target = 0.6108643020548935 * K
    rel = abs(est.slope - target) / target
    check(
        "criterion 3: pointwise dimension, Bernoulli(0.3), 100 points",
        rel <= 0.05 and abs(target - 4.6566) < 0.001 and elapsed < 30.0,
        f"slope {est.slope:.4f} vs {target:.4f} (rel {rel:.2e}), {elapsed:.2f}s",
    )


def test_criterion_04_local_entropy_exact_on_uniform():
    worst = 0.0
    for seed in range(25):
        x = sample_typical(UNIFORM2, 120, seed)
        est = brin_katok_local(UNIFORM2, x, P13, DEFAULT_R1, range(20, 201, 12))
        worst = max(worst, abs(est.slope - LN2))
    check(
        "criterion 4: uniform local entropy = ln 2 at every point",
        worst <= 1e-12,
        f"worst |slope - ln 2| = {worst:.2e} over 25 points",
    )


def test_criterion_05_neutralized_identity_and_guard(capsys):
    rels = []
    for r in (0.05, 0.2):
        depths = range(20, 121, 10)
        est = estimate_kind("neutralized_topological", FULL2, P13, None, depths, rate=r)
        target = (1.0 + r * K) * LN2
        rels.append(abs(est.slope - target) / target)
    code = main(["neutralized", "--r", "0.5", "--a", "1.3", "--b", "1.3"])
    err = capsys.readouterr().err
    check(
        "criterion 5: shrinking-radius identity + r guard",
        max(rels) <= 0.02 and code == 2 and "3/k" in err and "0.39354" in err,
        f"rel errors {rels[0]:.2e}, {rels[1]:.2e}; r=0.5 exit {code}",
    )


def test_criterion_06_alpha_identity_and_guard():
    est = alpha_estimation_entropy(FULL2, P13, 0.1, range(20, 121, 10))
    target = K * LN2 / P13.k_alpha(0.1)
    rel = abs(est.slope - target) / target
    with pytest.raises(AlphaTooLarge):
        alpha_estimation_entropy(FULL2, P13, 0.3, range(20, 121, 10))
    check(
        "criterion 6: discounted-radius identity + alpha guard",
        rel <= 0.02 and abs(target - 0.9574) < 0.001,
        f"slope {est.slope:.4f} vs {target:.4f} (rel {rel:.2e}); alpha=0.3 rejected",
    )


def test_criterion_07_rate_exchange_solver():
    worst_eq = 0.0
    for r in np.linspace(0.005, 0.95 * math.log(1.3) / 2.0, 20):
        rep = solve_relation_5_23(1.3, 1.3, {"r": float(r)})
        worst_eq = max(worst_eq, abs(rep.value - 2.0 * float(r)))
    worst_rt = 0.0
    for r in (0.02, 0.05, 0.1, 0.14):
        alpha = solve_relation_5_23(1.3, 1.9, {"r": r}).value
        back = solve_relation_5_23(1.3, 1.9, {"alpha": alpha}).value
        worst_rt = max(worst_rt, abs(back - r))
    for alpha in (0.05, 0.15, 0.25):
        r = solve_relation_5_23(1.3, 1.9, {"alpha": alpha}).value
        back = solve_relation_5_23(1.3, 1.9, {"r": r}).value
        worst_rt = max(worst_rt, abs(back - alpha))
    rejected = 0
    for r in (0.2, 0.3, 0.39):
        with pytest.raises(NoSolution):
            solve_relation_5_23(1.3, 1.9, {"r": r})
        rejected += 1
    check(
        "criterion 7: rate-exchange solver",
        worst_eq <= 1e-9 and worst_rt <= 1e-9 and rejected == 3,
        f"alpha=2r to {worst_eq:.2e}; round trips to {worst_rt:.2e}; "
        f"{rejected} inadmissible rates rejected",
    )


def test_criterion_08_chain_metrization_sandwich(tmp_path):
    out = tmp_path / "frink.json"
    t0 = time.perf_counter()
    code = main(["frink", "--out", str(out)])  # 50 samples of 200 points
    elapsed = time.perf_counter() - t0
    report = json.loads(out.read_text(encoding="utf-8"))
    est = report["estimate"]
    check(
        "criterion 8: chain metrization sandwich on 50 x 200-point samples",
        code == 0
        and est["metrization_failures"] == 0
        and est["worst_D_minus_rho"] <= 1e-12
        and est["worst_rho_minus_4D"] <= 1e-12
        and elapsed < 20.0,
        f"worst D-rho {est['worst_D_minus_rho']:.1e}, "
        f"worst rho-4D {est['worst_rho_minus_4D']:.1e}, {elapsed:.2f}s",
    )


def test_criterion_09_ultrametric_exhaustive():
    violations = 0
    words_checked = 0
    for length in range(1, 8):
        words = [
            tuple((idx >> t) & 1 for t in range(length)) for idx in range(2**length)
        ]
        lo = -(length // 2)
        sample = from_words(words, lo, P13)
        violations += len(check_quasi_metric(sample, 1.0))
        violations += len(check_quasi_metric(sample, 2.0))
        words_checked += len(words)
    check(
        "criterion 9: ultrametric inequality, all words of length <= 7",
        violations == 0,
        f"{words_checked} words, zero violating triples (K=1 and K=2)",
    )


def test_criterion_10_hyperbolicity():
    mp = mather_n0(P13, 0.05)
    report = verify_hyperbolicity(mp, P13)
    points = sample_points(GOLDEN, 4 * mp.n0 + 48, range(20_000))
    sampled = sampled_hyperbolicity(list(zip(points[0::2], points[1::2])), mp, P13)
    check(
        "criterion 10: hyperbolicity certificate, and 10^4 golden-mean pairs inside it",
        mp.n0 == 36
        and report.pairs_checked == 2 * mp.n0 + 5
        and all(
            r.lipschitz_forward_violations == r.lipschitz_backward_violations == 0
            and r.sandwich_violations == r.expansion_failures == 0
            for r in (report, sampled)
        )
        and sampled.pairs_checked == 10_000
        and sampled.eps_prime >= report.eps_prime > 0.0,
        f"n0 {mp.n0}; {report.pairs_checked} positions; lipschitz "
        f"{report.lipschitz_forward_violations}+{report.lipschitz_backward_violations}, "
        f"sandwich {report.sandwich_violations}, expansion {report.expansion_failures}; "
        f"eps' {report.eps_prime:.4f}, sampled eps' {sampled.eps_prime:.4f}",
    )


def test_criterion_11_ball_cylinder_round_trips():
    rng = np.random.default_rng(17)
    horizon = 140
    base = sample_point(FULL2, horizon, 99)
    window = base.window().copy()
    center = horizon

    def perturbed(cut: int):
        sym = window.copy()
        sym[center + cut :] ^= 1
        return point_from_window(FULL2, sym)

    trials = 10_000
    mismatches = {"ball": 0, "bowen": 0, "neutralized": 0, "alpha": 0}
    for _ in range(trials):
        cut = int(rng.integers(-60, 61))
        y = perturbed(cut)
        r = float(np.exp(rng.uniform(math.log(2.0**-30), math.log(0.4))))
        cyl = ball_window(r, P13)
        if in_ball(base, y, r, P13) != base.agrees_with(y, cyl.lo, cyl.hi):
            mismatches["ball"] += 1
        n, m = int(rng.integers(0, 13)), int(rng.integers(0, 13))
        r1 = float(rng.uniform(0.1, 0.9))
        cyl = bowen_window(n, m, r1, P13)
        if in_bowen_ball(base, y, n, m, r1, P13) != base.agrees_with(y, cyl.lo, cyl.hi):
            mismatches["bowen"] += 1
        n, m = int(rng.integers(0, 13)), int(rng.integers(1, 13))
        r2 = float(rng.uniform(0.01, 0.35))
        cyl = neutralized_window(n, m, r2, P13)
        if in_neutralized_ball(base, y, n, m, r2, P13) != base.agrees_with(y, cyl.lo, cyl.hi):
            mismatches["neutralized"] += 1
        n, m = int(rng.integers(0, 13)), int(rng.integers(0, 13))
        alpha = float(rng.uniform(0.0, 0.25))
        r3 = float(rng.uniform(0.1, 0.9))
        cyl = alpha_window(n, m, alpha, r3, P13)
        if in_alpha_ball(base, y, n, m, alpha, r3, P13) != base.agrees_with(y, cyl.lo, cyl.hi):
            mismatches["alpha"] += 1
    check(
        "criterion 11: ball <-> cylinder round-trips, 10^4 per correspondence",
        all(v == 0 for v in mismatches.values()),
        f"mismatches {mismatches} over {trials} trials each",
    )


def test_criterion_12_limit_ratios():
    r = 2.0**-40
    classical = (p_of_r(r, P13.b) + p_of_r(r, P13.a)) / math.log(1.0 / r)
    rel_classical = abs(classical - K) / K
    m2 = neutralized_match(r, 0.05, P13)
    target2 = K / (1.0 + 0.05 * K)
    rel_neutral = abs(m2.ratio - target2) / target2
    m3 = alpha_match(r, 0.9, 0.1, P13)
    target3 = P13.k_alpha(0.1)
    rel_alpha = abs(m3.ratio - target3) / target3
    check(
        "criterion 12: window-growth limit ratios at r = 2^-40",
        rel_classical <= 0.01 and rel_neutral <= 0.02 and rel_alpha <= 0.01,
        f"classical {rel_classical:.2e} (1%), neutralized {rel_neutral:.2e} (2%), "
        f"alpha {rel_alpha:.2e} (1%)",
    )


def test_criterion_13_ordering_chain_and_delta_invariance():
    chain_names = (
        "pointwise-dimension <= box-dimension",
        "chain: katok <= topological",
        "chain: brin-katok <= katok",
        "chain: neutralized katok <= neutralized topological",
        "chain: neutralized brin-katok <= neutralized katok",
    )
    failed = []
    for space, mu, h_mu in (
        (FULL2, UNIFORM2, LN2),
        (GOLDEN, GOLDEN_MARKOV, (2.0 / 3.0) * LN2),
    ):
        bundle = standard_bundle(space, P13, mu)
        reports = verify_identities(bundle, top_entropy_oracle(space), h_mu)
        failed += [rep.name for rep in reports if rep.name in chain_names and not rep.passed]
    spreads = []
    for mu, depths in ((SKEWED, range(250, 701, 45)), (GOLDEN_MARKOV, range(300, 901, 60))):
        slopes = [
            estimate_kind("katok", None, P13, mu, depths, r1=DEFAULT_R1, delta=d).slope
            for d in (0.1, 0.25, 0.4)
        ]
        spreads.append((max(slopes) - min(slopes)) / min(slopes))
    check(
        "criterion 13: ordering chains (2% slack) + covering delta-invariance",
        not failed and max(spreads) <= 0.02,
        f"chain failures {failed or 'none'}; delta spreads "
        f"{spreads[0]:.2e}, {spreads[1]:.2e}",
    )


def test_criterion_14_one_sided_alpha_identity():
    est = alpha_estimation_entropy(FULL2, ONE13, 0.1, range(10, 61, 5))
    target = (LN2 / math.log(1.3)) * (0.1 + math.log(1.3))
    rel = abs(est.slope - target) / target
    check(
        "criterion 14: one-sided discounted entropy",
        rel <= 0.02 and abs(target - 0.9574) < 0.001,
        f"slope {est.slope:.4f} vs {target:.4f} (rel {rel:.2e})",
    )


def test_criterion_15_katok_on_a_three_weight_bernoulli(tmp_path):
    measure = tmp_path / "bernoulli-235.json"
    measure.write_text('{"type": "bernoulli", "weights": [0.2, 0.3, 0.5]}', encoding="utf-8")
    runs = {}
    for quantity in ("katok", "relations"):
        out = tmp_path / f"{quantity}.json"
        t0 = time.perf_counter()
        code = main([quantity, "--space", "full:3", "--measure", str(measure), "--out", str(out)])
        runs[quantity] = (code, time.perf_counter() - t0)
    katok = json.loads((tmp_path / "katok.json").read_text(encoding="utf-8"))["relations"][0]
    check(
        "criterion 15: default katok and relations on full:3 Bernoulli(.2,.3,.5)",
        all(code == 0 and elapsed < 10.0 for code, elapsed in runs.values())
        and katok["rel_error"] <= 0.02,
        ", ".join(f"{q} exit {c} in {t:.2f}s" for q, (c, t) in runs.items())
        + f"; katok rel error {katok['rel_error']:.2e}",
    )


def test_criterion_16_alpha_identity_with_two_exponents(tmp_path):
    # the paper's setting log b > 0 > -log a with a != b: the alpha ladder
    # must split each depth so both sides' windows grow alike
    space = tmp_path / "golden.sft"
    space.write_text("2\n1 1\n1 0\n", encoding="utf-8")
    measure = tmp_path / "markov.json"
    measure.write_text('{"type": "markov", "P": [[0.5, 0.5], [1.0, 0.0]]}', encoding="utf-8")
    grid = [("1.3", "1.3", []), ("1.2", "1.9", []), ("1.9", "1.2", []),
            ("1.1", "2.0", ["--alpha", "0.05"])]
    runs = {}
    for a, b, extra in grid:
        for target in ([], ["--space", f"sft:{space}", "--measure", str(measure)]):
            out = tmp_path / "estimation.json"
            code = main(["estimation", "--a", a, "--b", b, *extra, *target, "--out", str(out)])
            rel_error = json.loads(out.read_text(encoding="utf-8"))["relations"][0]["rel_error"]
            runs[(a, b, "measure" if target else "space")] = (code, rel_error)
    check(
        "criterion 16: alpha identity at a != b, space and measure",
        all(code == 0 for code, _ in runs.values()),
        "; ".join(f"{k}: exit {c}, rel {r:.2e}" for k, (c, r) in runs.items()),
    )


def test_criterion_17_relations_with_two_exponents(tmp_path):
    # the full identity suite in the paper's setting a != b; (1.3, 1.3) is
    # covered by the golden cases, and at (1.1, 2.0) the default alpha = 0.1
    # is not below ln 1.1
    golden = tmp_path / "golden.sft"
    golden.write_text("2\n1 1\n1 0\n", encoding="utf-8")
    markov = tmp_path / "markov.json"
    markov.write_text('{"type": "markov", "P": [[0.5, 0.5], [1.0, 0.0]]}', encoding="utf-8")
    bernoulli = tmp_path / "bernoulli-235.json"
    bernoulli.write_text('{"type": "bernoulli", "weights": [0.2, 0.3, 0.5]}', encoding="utf-8")
    grid = [("1.2", "1.9", []), ("1.9", "1.2", []), ("1.1", "2.0", ["--alpha", "0.05"])]
    inputs = [(f"sft:{golden}", markov), ("full:3", bernoulli)]
    runs = {}
    for a, b, extra in grid:
        for space, measure in inputs:
            out = tmp_path / "relations.json"
            argv = ["relations", "--a", a, "--b", b, *extra, "--space", space]
            t0 = time.perf_counter()
            code = main([*argv, "--measure", str(measure), "--out", str(out)])
            elapsed = time.perf_counter() - t0
            failed = [
                rep["name"]
                for rep in json.loads(out.read_text(encoding="utf-8"))["relations"]
                if not rep["passed"]
            ]
            runs[(a, b, measure.stem)] = (code, failed, elapsed)
    check(
        "criterion 17: relations at a != b, golden Markov and full:3 Bernoulli",
        all(code == 0 and not failed and t < 10.0 for code, failed, t in runs.values()),
        "; ".join(f"{k}: exit {c}, failed {f or 'none'}, {t:.2f}s" for k, (c, f, t) in runs.items()),
    )
