"""Tests for the batch CLI: parsing, reports, tables, and exit codes."""
import argparse
import json
import math
import re
import time
from pathlib import Path

import pytest

from reference import allows
from shiftmetrics import cli, estimators
from shiftmetrics.cli import RunConfig, build_parser, config_from_args, emit_table, main, parse_space
from shiftmetrics.errors import HypothesisViolated

GOLDEN_SFT = "2\n1 1\n1 0\n"
MARKOV_JSON = '{"type": "markov", "P": [[0.5, 0.5], [1.0, 0.0]]}'
SKEWED_JSON = '{"type": "bernoulli", "weights": [0.3, 0.7]}'
CYCLE2_SFT = "2\n0 1\n1 0\n"


@pytest.fixture
def golden_sft(tmp_path):
    path = tmp_path / "golden.sft"
    path.write_text(GOLDEN_SFT, encoding="utf-8")
    return str(path)


@pytest.fixture
def markov_measure(tmp_path):
    path = tmp_path / "markov.json"
    path.write_text(MARKOV_JSON, encoding="utf-8")
    return str(path)


@pytest.fixture
def skewed_measure(tmp_path):
    path = tmp_path / "skewed.json"
    path.write_text(SKEWED_JSON, encoding="utf-8")
    return str(path)


def run_json(tmp_path, args):
    out = tmp_path / "report.json"
    code = main(args + ["--out", str(out)])
    return code, json.loads(out.read_text(encoding="utf-8"))


class TestSpaceParsing:
    def test_full_shift(self):
        space = parse_space("full:3")
        assert space.alphabet_size == 3 and space.is_full

    def test_sft_file(self, golden_sft):
        space = parse_space("sft:" + golden_sft)
        assert space.alphabet_size == 2
        assert not allows(space, 1, 1)
        assert allows(space, 1, 0)

    @pytest.mark.parametrize("bad", ["full", "full:x", "torus:3"])
    def test_malformed_specs(self, bad):
        with pytest.raises(HypothesisViolated):
            parse_space(bad)

    def test_row_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.sft"
        path.write_text("3\n1 1\n1 0\n", encoding="utf-8")
        with pytest.raises(HypothesisViolated):
            parse_space("sft:" + str(path))

    def test_non_integer_entries(self, tmp_path):
        path = tmp_path / "bad.sft"
        path.write_text("2\n1 x\n1 0\n", encoding="utf-8")
        with pytest.raises(HypothesisViolated):
            parse_space("sft:" + str(path))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("2\n1 1\n1 0\n0 0\n", "line 4: a row past the M=2 matrix rows"),
            ("2\n1 1\n\n1 0\n1 1\n", "line 5: a row past the M=2 matrix rows"),
            ("2\n1 1 1\n1 0\n", "line 2: expected M=2 entries, got 3"),
            ("2\n1 1\n1\n", "line 3: expected M=2 entries, got 1"),
        ],
        ids=["extra-row", "extra-row-after-blank", "long-row", "short-row"],
    )
    def test_rows_must_match_the_alphabet(self, text, message, tmp_path, capsys):
        path = tmp_path / "bad.sft"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(HypothesisViolated, match=message):
            parse_space("sft:" + str(path))
        assert main(["dim", "--space", "sft:" + str(path), "--j-max", "12"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(path) in err and message in err


class TestSpecExamples:
    def test_dim_full_two_shift(self, tmp_path):
        code, report = run_json(tmp_path, ["dim", "--space", "full:2", "--a", "1.3", "--b", "1.3"])
        assert code == 0
        assert report["passed"] is True
        assert report["estimate"]["slope"] == pytest.approx(5.2840, rel=0.002)
        assert report["target"]["value"] == pytest.approx(5.2840, rel=0.001)

    def test_neutralized_rate_too_large(self, capsys):
        code = main(["neutralized", "--r", "0.5", "--a", "1.3", "--b", "1.3"])
        assert code == 2
        message = capsys.readouterr().err
        assert "3/k" in message
        assert "0.39354" in message

    def test_solver_equal_bases(self, tmp_path):
        code, report = run_json(tmp_path, ["solve-5-23", "--a", "1.3", "--b", "1.3", "--r", "0.05"])
        assert code == 0
        assert report["estimate"]["solved"]["alpha"] == pytest.approx(0.1, abs=1e-12)
        assert report["relations"][0]["passed"] is True


class TestReportSchema:
    def test_json_document(self, tmp_path):
        code, report = run_json(tmp_path, ["entropy", "--seed", "5"])
        assert code == 0
        assert report["schema_version"] == "2"
        assert report["quantity"] == "entropy"
        assert report["config"]["seed"] == 5
        assert report["config"]["resolved_space"] == "full:2"
        assert report["config"]["resolved_measure"] is None
        assert report["config"]["k"] == pytest.approx(7.622989373416803)
        assert report["target"]["value"] == pytest.approx(math.log(2))
        assert {"quantity", "n_or_r", "raw_count_or_mass(log)", "fitted", "residual"} <= set(
            report["rows"][0]
        )
        assert report["estimate"]["slope"] == pytest.approx(math.log(2), abs=1e-12)

    def test_resolved_measure_embedded(self, tmp_path, markov_measure, golden_sft):
        code, report = run_json(
            tmp_path,
            [
                "brin-katok",
                "--space",
                "sft:" + golden_sft,
                "--measure",
                markov_measure,
                "--n-points",
                "5",
            ],
        )
        assert code == 0
        assert report["config"]["resolved_measure"] == json.loads(MARKOV_JSON)
        assert report["config"]["resolved_space"].startswith("sft:2:")
        assert len(report["estimate"]["point_slopes"]) == 5
        assert report["rows"] == []

    def test_csv_table(self, tmp_path):
        out = tmp_path / "table.csv"
        code = main(["entropy", "--format", "csv", "--out", str(out)])
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "# schema_version=2"
        assert lines[1].startswith("# config=")
        assert lines[2] == "quantity,n_or_r,raw_count_or_mass(log),fitted,residual"
        first = lines[3].split(",")
        assert first[0] == "entropy"
        assert float(first[2]) == pytest.approx(float(first[3]), rel=1e-9)

    def test_relations_csv_one_row_per_identity(self, tmp_path):
        out = tmp_path / "rel.csv"
        code = main(["relations", "--format", "csv", "--out", str(out)])
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        rows = [ln.split(",") for ln in lines[3:]]
        assert len(rows) == 4  # space-only bundle emits four identities
        assert all(row[1] == "pass" for row in rows)

    def test_unsupported_format(self):
        with pytest.raises(HypothesisViolated):
            RunConfig("dim", format="xml")
        with pytest.raises(HypothesisViolated):
            emit_table({"schema_version": "1", "config": {}, "rows": []}, "xml")

    def test_unknown_quantity(self):
        with pytest.raises(HypothesisViolated):
            RunConfig("hausdorff")


class TestParserDefaults:
    def subparsers(self):
        (action,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        return action.choices

    def test_no_parser_default(self):
        """Every default lives in RunConfig; an option not given stays unset."""
        for name, parser in self.subparsers().items():
            for action in parser._actions:
                if action.dest != "help":
                    assert action.default is argparse.SUPPRESS, (name, action.dest)

    def test_bare_subcommand_is_the_run_config_default(self):
        for name in self.subparsers():
            assert config_from_args(build_parser().parse_args([name])) == RunConfig(name)

    def test_readme_flags_column_matches_the_parser(self):
        """README's subcommand table lists exactly the flags each subcommand takes."""
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        rows = re.findall(r"^\| `([\w-]+)` \| .* \| (.*) \|$", readme, flags=re.MULTILINE)
        documented = {name: set(re.findall(r"`(--[\w-]+)`", flags)) for name, flags in rows}
        taken = {
            name: {flag for a in parser._actions for flag in a.option_strings} - {"-h", "--help"}
            for name, parser in self.subparsers().items()
        }
        assert documented == taken

    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_runs_share_no_parser_state(self, tmp_path):
        _, report = run_json(tmp_path, ["dim", "--j-max", "16", "--tol", "0.5"])
        assert (report["config"]["j_max"], report["config"]["tol"]) == (16, 0.5)
        _, report = run_json(tmp_path, ["dim"])
        assert (report["config"]["j_max"], report["config"]["tol"]) == (40, None)


@pytest.mark.parametrize("quantity", sorted(cli._SLOPES))
def test_slope_table_reads_its_rates_off_the_kinds(quantity):
    """Each slope subcommand names only KINDS kinds, and takes --r or --alpha
    exactly when one of its kinds takes that rate."""
    slope_runs = {name for name, (run, _, _) in cli._SUBCOMMANDS.items() if run is cli._run_slope}
    assert slope_runs == set(cli._SLOPES)
    kinds = [kind for kind in cli._SLOPES[quantity][:2] if kind is not None]
    assert kinds and set(kinds) <= set(estimators.KINDS)
    if "katok" in kinds:
        kinds.append("neutralized_katok")  # what a nonzero --r picks
    flags = cli._SUBCOMMANDS[quantity][2].split()
    for rate in ("r", "alpha"):
        takes = any(estimators.KINDS[kind].rate == rate for kind in kinds)
        assert (f"--{rate}" in flags) == takes, (quantity, rate)


#: The (subcommand, flag) pairs no run reads, with a value for each flag.
UNREAD_FLAGS = [
    ("katok", "--horizon", "5"),
    ("katok", "--n-points", "7"),
    ("metric-verify", "--measure", "mu.json"),
    ("metric-verify", "--horizon", "50"),
    ("metric-verify", "--tol", "0.1"),
    ("frink", "--measure", "mu.json"),
    ("frink", "--horizon", "5"),
    ("frink", "--n-points", "7"),
    ("frink", "--tol", "0.1"),
    ("relations", "--horizon", "5"),
    ("solve-5-23", "--space", "full:3"),
    ("solve-5-23", "--mode", "one-sided"),
    ("solve-5-23", "--measure", "mu.json"),
    ("solve-5-23", "--horizon", "5"),
    ("solve-5-23", "--seed", "3"),
    ("solve-5-23", "--n-points", "7"),
    ("solve-5-23", "--tol", "0.1"),
]


@pytest.mark.parametrize(
    "quantity, flag, value", UNREAD_FLAGS, ids=[f"{q} {f}" for q, f, _ in UNREAD_FLAGS]
)
def test_unread_flag_is_usage_error(quantity, flag, value, capsys):
    # each of these used to exit 0 and record a setting the run never read
    given = ["--a", "1.3", "--b", "1.9", "--r", "0.05"] if quantity == "solve-5-23" else []
    with pytest.raises(SystemExit) as exc:
        main([quantity, *given, flag, value])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert flag in captured.err
    assert captured.out == ""


#: (argv, flag): space-only runs of subcommands that take --measure, given a flag
#: that only a measure run reads
MEASURE_ONLY_FLAGS = [
    (["dim", "--space", "full:2", "--horizon", "5", "--n-points", "7"], "--horizon"),
    (["dim", "--n-points", "7"], "--n-points"),
    (["entropy", "--horizon", "5"], "--horizon"),
    (["neutralized", "--n-points", "0"], "--n-points"),
    (["estimation", "--horizon", "9"], "--horizon"),
    (["relations", "--space", "full:2", "--delta", "0.9"], "--delta"),
    (["relations", "--n-points", "2"], "--n-points"),
    (["katok", "--delta", "0.1"], "--delta"),
]


@pytest.mark.parametrize("argv, flag", MEASURE_ONLY_FLAGS, ids=[" ".join(a) for a, _ in MEASURE_ONLY_FLAGS])
def test_measure_only_flag_without_measure_is_refused(argv, flag, capsys):
    # each of these used to exit 0 (katok: refuse for the missing measure) and
    # record a setting the space-only run never read
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert f"reads {flag} only with --measure" in captured.err
    assert captured.out == ""


def test_seed_stays_accepted_without_measure(capsys):
    assert main(["dim", "--space", "full:2", "--seed", "3", "--j-max", "12"]) == 0


#: runs that give --r1 beside a nonzero rate, given or neutralized's default 0.05: their
#: shrinking windows read no radius r1
R1_BESIDE_A_RATE = [
    ["neutralized", "--r", "0.2", "--r1", "0.5", "--t-max", "60"],
    ["neutralized", "--r1", "0.5", "--r", "0.05", "--n-points", "3", "--measure", "x.json"],
    ["katok", "--r", "0.05", "--r1", "0.5", "--measure", "x.json"],
    ["neutralized", "--t-max", "60", "--r1", "0.5"],
]


@pytest.mark.parametrize("argv", R1_BESIDE_A_RATE, ids=" ".join)
def test_r1_beside_a_nonzero_rate_is_refused(argv, capsys):
    # each run used to read the same slope with and without --r1
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "reads --r1 only at --r 0" in captured.err and "got --r 0." in captured.err
    assert captured.out == ""


def test_r1_at_a_zero_rate_is_read(tmp_path):
    depths = ["--t-min", "10", "--t-max", "60", "--t-step", "5", "--r1", "0.5"]
    code, report = run_json(tmp_path, ["neutralized", "--r", "0", *depths])
    assert code == 0 and report["config"]["r1"] == 0.5
    _, entropy = run_json(tmp_path, ["entropy", *depths])
    assert report["estimate"] == entropy["estimate"]


@pytest.mark.parametrize(
    "argv", [["entropy", "--t-min", "60", "--t-max", "10"], ["neutralized", "--t-min", "130"]],
    ids=" ".join,
)
def test_empty_depth_range_names_its_bounds(argv, capsys):
    # used to read "window depths must be positive integers, got ()"
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "the depth range is empty: --t-min" in err and "> --t-max" in err


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path, skewed_measure):
        args = [
            "brin-katok",
            "--measure",
            skewed_measure,
            "--seed",
            "3",
            "--n-points",
            "5",
            "--t-max",
            "80",
        ]
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        a = out1.read_bytes().replace(str(out1).encode(), b"OUT")
        b = out2.read_bytes().replace(str(out2).encode(), b"OUT")
        assert a == b



class TestExitCodes:
    def test_relation_failure_is_exit_one(self, tmp_path):
        code, report = run_json(tmp_path, ["dim", "--tol", "1e-9"])
        assert code == 1
        assert report["passed"] is False
        assert report["relations"][0]["passed"] is False

    def test_reducible_sft_gets_a_verdict(self, tmp_path):
        # words of 1 1 / 0 1 grow like L + 1: the entropy oracle reads 0 and
        # the counting slope misses it, a failed verdict rather than a refusal
        path = tmp_path / "reducible.sft"
        path.write_text("2\n1 1\n0 1\n", encoding="utf-8")
        code, report = run_json(tmp_path, ["entropy", "--space", "sft:" + str(path)])
        assert code == 1
        assert report["passed"] is False
        assert report["target"]["value"] == 0.0

    @pytest.mark.parametrize(
        "quantity, sft, measured",
        [
            ("dim", CYCLE2_SFT, False),
            ("entropy", CYCLE2_SFT, False),
            ("relations", CYCLE2_SFT, False),
            ("relations", "3\n0 1 0\n0 0 1\n1 0 0\n", False),
            ("brin-katok", CYCLE2_SFT, True),
            ("katok", CYCLE2_SFT, True),
            ("relations", CYCLE2_SFT, True),
        ],
        ids=["dim", "entropy", "relations", "relations-3-cycle", "brin-katok", "katok",
             "relations-measure"],
    )
    def test_zero_entropy_cycle_passes(self, quantity, sft, measured, tmp_path):
        # one periodic orbit has entropy 0: a slope's rounding noise (~1e-16)
        # is compared on the scale VERIFY_TOL, not as a relative error
        path = tmp_path / "cycle.sft"
        path.write_text(sft, encoding="utf-8")
        args = [quantity, "--space", f"sft:{path}"]
        if measured:
            mu = tmp_path / "cycle.json"
            mu.write_text('{"type": "markov", "P": [[0, 1], [1, 0]]}', encoding="utf-8")
            args += ["--measure", str(mu)]
        code, report = run_json(tmp_path, args)
        assert code == 0
        assert all(rel["passed"] for rel in report["relations"])

    def test_allocation_failure_is_exit_two(self, capsys):
        # the array exceeds any address space, so its first allocation fails
        assert main(["dim", "--space", "full:100000000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: Unable to allocate 8.88 PiB")

    @pytest.mark.parametrize(
        "args",
        [
            ["brin-katok", "--n-points", "2", "--horizon", "1000000000000000"],
            ["dim", "--n-points", "100", "--horizon", "100000000"],
            ["relations", "--n-points", "1000000"],
        ],
        ids=["horizon", "points-and-horizon", "bundle-points"],
    )
    def test_oversized_typical_batch_is_exit_two(self, args, skewed_measure, monkeypatch, capsys):
        # refused before the sampler runs, so nothing is allocated
        monkeypatch.setattr(estimators, "sample_typical_windows", _refuse)
        assert main(args + ["--measure", skewed_measure]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        n_points, horizon = args[args.index("--n-points") + 1], "160"
        if "--horizon" in args:
            horizon = args[args.index("--horizon") + 1]
        assert f"error: {n_points} typical points at horizon {horizon} take " in captured.err
        assert "past the TYPICAL_BATCH_BYTES = 268435456 bound" in captured.err

    def test_no_solution_is_exit_one(self, tmp_path, capsys):
        code, report = run_json(tmp_path, ["solve-5-23", "--a", "1.3", "--b", "1.9", "--r", "0.3"])
        assert code == 1
        assert report["passed"] is False
        assert "admissible range" in report["error"]

    def test_solver_needs_exactly_one_given(self, capsys):
        assert main(["solve-5-23", "--a", "1.3", "--b", "1.9"]) == 2
        assert main(["solve-5-23", "--a", "1.3", "--b", "1.9", "--r", "0.1", "--alpha", "0.1"]) == 2

    def test_measure_quantities_require_measure(self, capsys):
        assert main(["katok"]) == 2
        assert main(["brin-katok"]) == 2

    def test_missing_files(self, capsys, tmp_path):
        assert main(["dim", "--space", "sft:" + str(tmp_path / "nope.sft")]) == 2
        assert main(["katok", "--measure", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize(
        "spec, message",
        [
            ('{"type": "markov", "P": [[0.5, 0.5], [1.0, 0.0]], "pi": [0.5, 0.5]}', "'pi'"),
            ('{"type": "bernoulli", "weights": 5}', "'weights' must be an array"),
            ('{"type": "bernoulli", "weights": null}', "'weights' must be an array"),
            ('{"type": "markov", "P": [1, 2]}', "'P' must be an array of arrays"),
            ('{"type": "bernoulli", "weights": ["0.3", "0.7"]}',
             "'weights'[0] must be a JSON number, got '0.3'"),
            ('{"type": "bernoulli", "weights": [0.5, true]}',
             "'weights'[1] must be a JSON number, got True"),
            ('{"type": "markov", "P": [[0.5, 0.5], [1.0, false]]}',
             "'P'[1][1] must be a JSON number, got False"),
            ('{"type": "markov", "P": [[0.5, "0.5"], [1.0, 0.0]]}',
             "'P'[0][1] must be a JSON number, got '0.5'"),
            ('{"type": "bernoulli", "weights": [null, 1.0]}',
             "'weights'[0] must be a JSON number, got None"),
            ('{"type": "markov", "P": [[0.5, 0.5], [1.0]]}',
             "'P'[1] must have 2 entries, one per row of 'P', got 1"),
            ('{"type": "markov", "P": [[0.5, 0.3, 0.2], [1.0, 0.0]]}',
             "'P'[0] must have 2 entries, one per row of 'P', got 3"),
        ],
        ids=["pi", "weights-number", "weights-null", "P-flat", "weights-string",
             "weights-bool", "P-bool", "P-string", "weights-entry-null", "P-ragged-short",
             "P-ragged-long"],
    )
    def test_bad_measure_json(self, spec, message, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(spec)
        assert main(["brin-katok", "--measure", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err

    def test_nan_measure_weights(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text('{"type": "bernoulli", "weights": [NaN, 0.5]}')
        assert main(["brin-katok", "--measure", str(path), "--n-points", "1"]) == 2
        assert "weights must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--a", "--b"])
    def test_infinite_base(self, flag, capsys):
        assert main(["dim", flag, "inf", "--j-max", "12"]) == 2
        assert f"{flag[2:]} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("quantity", ["neutralized", "relations"])
    def test_nan_shrinking_rate(self, quantity, capsys):
        assert main([quantity, "--r", "nan"]) == 2
        err = capsys.readouterr().err
        assert "shrinking rate r must satisfy" in err and "got nan" in err

    @pytest.mark.parametrize(
        "args",
        [
            ["estimation", "--alpha", "nan"],
            ["katok", "--delta", "inf"],
            ["metric-verify", "--gamma", "nan"],
            ["entropy", "--r1", "inf"],
        ],
        ids=lambda args: args[1],
    )
    def test_non_finite_parameter(self, args, capsys):
        assert main(args) == 2
        assert f"{args[1][2:]} must be finite, got {args[2]}" in capsys.readouterr().err

    def test_nan_delta(self, capsys):
        assert main(["katok", "--delta", "nan"]) == 2
        assert "delta must be finite, got nan" in capsys.readouterr().err

    def test_gamma_too_large(self, capsys):
        assert main(["metric-verify", "--gamma", "0.4"]) == 2
        assert "gamma" in capsys.readouterr().err

    @pytest.mark.parametrize("gamma", ["1e-9", "1e-17"])
    def test_gamma_past_the_depth_cap_is_refused_at_once(self, gamma, capsys):
        # n0 ~ ln 4 * a / gamma: the search used to run ~1.8e9 steps at 1e-9,
        # and forever at 1e-17, where a - gamma rounds to a
        start = time.perf_counter()
        assert main(["metric-verify", "--n-points", "10", "--gamma", gamma]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert f"gamma = {float(gamma)!r}" in err and "POWER_ITER_CAP = 200000" in err

    @pytest.mark.parametrize(
        "args, message",
        [
            (["metric-verify", "--n-points", "0"], "metric-verify needs --n-points >= 1, got 0"),
            (["frink", "--n-samples", "0"], "frink needs --n-samples >= 1, got 0"),
            (["frink", "--sample-size", "0"], "frink needs --sample-size >= 2, got 0"),
            (["frink", "--sample-size", "1"], "frink needs --sample-size >= 2, got 1"),
        ],
        ids=["n-points-0", "n-samples-0", "sample-size-0", "sample-size-1"],
    )
    def test_vacuous_metric_run_refused(self, args, message, capsys):
        # each of these used to pass without comparing a single pair
        assert main(args) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("horizon", ["0", "-3"])
    @pytest.mark.parametrize("quantity", ["brin-katok"])
    def test_horizon_below_one_refused(self, quantity, horizon, skewed_measure, capsys):
        # a falsy horizon used to be swapped for the default while the report said 0
        args = [quantity, "--horizon", horizon, "--n-points", "2"]
        assert main(args + ["--measure", skewed_measure]) == 2
        captured = capsys.readouterr()
        assert f"--horizon needs an integer >= 1, got {horizon}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("quantity", ["dim", "metric-verify"])
    def test_negative_seed_refused(self, quantity, capsys):
        assert main([quantity, "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert "--seed needs an integer >= 0, got -1" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "quantity",
        ["dim", "entropy", "katok", "brin-katok", "neutralized", "estimation", "relations"],
    )
    def test_measure_off_the_space_refused(self, quantity, tmp_path, monkeypatch, capsys):
        # katok samples no points, so it used to count covers of such a measure
        path = tmp_path / "three.json"
        path.write_text('{"type": "bernoulli", "weights": [0.2, 0.3, 0.5]}', encoding="utf-8")
        for name in ("word_counts", "sample_typical_windows", "minimal_cover_log_counts"):
            monkeypatch.setattr(estimators, name, _refuse)
        assert main([quantity, "--measure", str(path)]) == 2
        captured = capsys.readouterr()
        assert "measure support is not admissible in the space" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "space,measure",
        [
            ("full:4", '{"type": "bernoulli", "weights": [0.1, 0.2, 0.3, 0.4]}'),
            ("full:3", '{"type": "markov", "P": [[0.2, 0.5, 0.3], [0.4, 0.1, 0.5], [0.3, 0.3, 0.4]]}'),
        ],
    )
    def test_default_katok_past_the_node_budget_refuses_fast(self, space, measure, tmp_path, capsys):
        # too many classes and words at L = 301: prefix expansion is the only
        # route, and its heaviest word already shows it would overrun its budget
        path = tmp_path / "measure.json"
        path.write_text(measure, encoding="utf-8")
        t0 = time.perf_counter()
        assert main(["katok", "--space", space, "--measure", str(path)]) == 2
        assert time.perf_counter() - t0 < 2.0
        message = capsys.readouterr().err
        assert "4194304-node budget at window length 301" in message

    def test_alpha_guard(self, capsys):
        assert main(["estimation", "--alpha", "0.3"]) == 2
        message = capsys.readouterr().err
        assert "0.262364" in message

    def test_unknown_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dim", "--bogus", "1"])
        assert exc.value.code == 2


class TestVerificationQuantities:
    def test_metric_verify(self, tmp_path, golden_sft):
        code, report = run_json(
            tmp_path,
            ["metric-verify", "--space", "sft:" + golden_sft, "--n-points", "200"],
        )
        assert code == 0
        # the 2 n0 + 5 single-disagreement pairs, whatever --n-points says
        assert report["estimate"]["pairs_checked"] == 77
        assert report["estimate"]["n0"] == 36
        assert report["estimate"]["eps_prime"] > 0.0
        assert all(rel["passed"] for rel in report["relations"])

    def test_metric_verify_one_sided_refused(self, capsys):
        # one-sided rho cannot see the coordinates below 0 that d~ reads
        assert main(["metric-verify", "--mode", "one-sided"]) == 2
        captured = capsys.readouterr()
        assert "hyperbolicity needs two-sided rho" in captured.err
        assert "coordinates below 0" in captured.err
        assert captured.out == ""

    def test_metric_verify_small_gamma_is_quick(self, capsys):
        # n0 = 180218: the certificate's values underflow, and it refuses quickly
        start = time.perf_counter()
        code = main(["metric-verify", "--gamma", "1e-5", "--n-points", "4"])
        assert time.perf_counter() - start < 5.0
        assert code == 2
        captured = capsys.readouterr()
        assert "n0 = 180218" in captured.err and "smallest normal" in captured.err
        assert captured.out == ""

    def test_metric_verify_deep_certificate_is_quick(self, tmp_path):
        # n0 = 1802: the certificate costs O(n0), with no points of horizon ~4 n0
        start = time.perf_counter()
        code, report = run_json(
            tmp_path, ["metric-verify", "--gamma", "1e-3", "--n-points", "4"]
        )
        assert time.perf_counter() - start < 5.0
        assert code == 0
        assert report["estimate"]["n0"] == 1802
        assert report["estimate"]["pairs_checked"] == 2 * 1802 + 5 == 3609

    def test_frink(self, tmp_path):
        code, report = run_json(
            tmp_path, ["frink", "--n-samples", "6", "--sample-size", "60"]
        )
        assert code == 0
        assert report["estimate"]["metrization_failures"] == 0
        assert report["estimate"]["worst_D_minus_rho"] <= 1e-12
        synthetic = [
            row for row in report["rows"] if row["quantity"] == "frink:synthetic"
        ]
        assert synthetic and all(1.0 < row["raw_count_or_mass(log)"] <= 4.0 for row in synthetic)

    def test_frink_refuses_a_saturated_sample(self, tmp_path, capsys):
        # 1 -> 1 only: points that end in a run of 1s agree past their window
        path = tmp_path / "sticky.sft"
        path.write_text("2\n1 1\n0 1\n", encoding="utf-8")
        args = ["--space", f"sft:{path}", "--a", "2.0", "--b", "1.01"]
        code = main(["frink", *args, "--n-samples", "1", "--sample-size", "50"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "sample entries are only bounds (first: (0, 4))" in captured.err

    def test_relations_full_suite(self, tmp_path, markov_measure, golden_sft):
        code, report = run_json(
            tmp_path,
            ["relations", "--space", "sft:" + golden_sft, "--measure", markov_measure],
        )
        assert code == 0
        assert len(report["relations"]) == 14
        assert all(rel["passed"] for rel in report["relations"])

    def test_relations_named_tolerance_override(self, tmp_path):
        code, report = run_json(
            tmp_path,
            ["relations", "--tol", "spanning-entropy = oracle entropy=1e-30"],
        )
        assert code == 1
        failed = [rel["name"] for rel in report["relations"] if not rel["passed"]]
        assert failed == ["spanning-entropy = oracle entropy"]


class TestQuantityVariants:
    def test_one_sided_estimation(self, tmp_path):
        code, report = run_json(
            tmp_path, ["estimation", "--mode", "one-sided", "--b", "1.3", "--alpha", "0.1"]
        )
        assert code == 0
        target = (math.log(2) / math.log(1.3)) * (0.1 + math.log(1.3))
        assert report["estimate"]["slope"] == pytest.approx(target, rel=0.02)

    def test_katok_with_rate(self, tmp_path, markov_measure):
        code, report = run_json(
            tmp_path,
            ["katok", "--measure", markov_measure, "--r", "0.05", "--t-min", "300",
             "--t-max", "600", "--t-step", "60", "--tol", "0.05"],
        )
        assert code == 0
        k = 7.622989373416803
        h = (2.0 / 3.0) * math.log(2)
        assert report["target"]["value"] == pytest.approx((1 + 0.05 * k) * h)

    def test_neutralized_zero_rate_on_space_is_the_entropy(self, tmp_path):
        depths = ["--t-min", "20", "--t-max", "120", "--t-step", "10"]
        code, report = run_json(tmp_path, ["neutralized", "--r", "0"] + depths)
        assert code == 0
        _, entropy = run_json(tmp_path, ["entropy"] + depths)
        assert report["estimate"]["slope"] == entropy["estimate"]["slope"]
        assert report["estimate"]["slope"] == pytest.approx(math.log(2), abs=1e-12)

    def test_neutralized_zero_rate_on_measure_is_brin_katok(self, tmp_path, markov_measure):
        # r = 0 reads the Bowen ladder at --r1, as on a space and in katok
        args = ["--measure", markov_measure, "--n-points", "5"]
        code, report = run_json(tmp_path, ["neutralized", "--r", "0", *args])
        assert code == 0
        _, local = run_json(tmp_path, ["brin-katok", *args])
        assert report["estimate"]["slope"] == local["estimate"]["slope"]

    def test_entropy_with_measure_is_local(self, tmp_path, skewed_measure):
        code, report = run_json(
            tmp_path,
            ["entropy", "--measure", skewed_measure, "--n-points", "10", "--t-max", "100"],
        )
        assert code == 0
        assert report["relations"][0]["name"] == "brin-katok = measure-entropy"
        assert report["estimate"]["slope"] == pytest.approx(0.6108643020548935, rel=0.05)


def _refuse(*args, **kwargs):
    raise AssertionError("an estimator ran")


class TestToleranceFlag:
    @pytest.fixture(autouse=True)
    def no_estimator(self, monkeypatch):
        """A refused --tol must stop the run before any estimator starts."""
        for module, name in (
            (estimators, "word_counts"),
            (estimators, "sample_typical_windows"),
            (cli, "sample_points"),
            (cli, "solve_relation_5_23"),
        ):
            monkeypatch.setattr(module, name, _refuse)

    def refused(self, capsys, args):
        try:
            code = main(args)
        except SystemExit as exc:  # argparse's usage error: the subcommand takes no --tol
            code = exc.code
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "--tol" in captured.err
        return captured.err

    def test_infinite_tolerance(self, capsys):
        self.refused(capsys, ["dim", "--tol", "inf"])

    def test_nan_tolerance(self, capsys):
        self.refused(capsys, ["dim", "--tol", "nan"])

    def test_negative_tolerance(self, capsys):
        self.refused(capsys, ["dim", "--tol", "-1"])

    def test_non_finite_named_tolerance(self, capsys):
        self.refused(capsys, ["relations", "--tol", "spanning-entropy = oracle entropy=nan"])

    def test_unknown_name_on_dim(self, capsys):
        err = self.refused(capsys, ["dim", "--tol", "spanning-entropy = oracle entropy=0.1"])
        assert "box-dimension = k * entropy" in err

    def test_unknown_name_on_relations(self, capsys):
        self.refused(capsys, ["relations", "--tol", "no such relation=0.1"])

    def test_measure_relation_named_on_space_only_relations(self, capsys):
        self.refused(capsys, ["relations", "--tol", "katok = measure-entropy=0.1"])

    @pytest.mark.parametrize(
        "args",
        [
            ["relations"],
            ["frink"],
            ["metric-verify"],
            ["solve-5-23", "--r", "0.05"],
        ],
    )
    def test_scalar_tolerance_without_headline(self, capsys, args):
        self.refused(capsys, args + ["--tol", "0.5"])

    @pytest.mark.parametrize("args", [["frink"], ["metric-verify"], ["solve-5-23", "--r", "0.05"]])
    def test_named_tolerance_without_settable_relations(self, capsys, args):
        self.refused(capsys, args + ["--tol", "frink: D <= rho=0.1"])


class TestHeadlineTolerance:
    def test_named_override_of_the_headline_applies(self, tmp_path):
        name = "box-dimension = k * entropy"
        code, report = run_json(tmp_path, ["dim", "--j-max", "16", "--tol", f"{name}=1e-9"])
        assert code == 1
        assert report["relations"][0]["name"] == name
        assert report["relations"][0]["tolerance"] == 1e-9

    def test_katok_rate_tolerance_comes_from_the_defaults(self, tmp_path, markov_measure):
        code, report = run_json(
            tmp_path,
            ["katok", "--measure", markov_measure, "--r", "0.05", "--t-min", "300",
             "--t-max", "420", "--t-step", "60"],
        )
        name = "katok = (1 + r k) * measure-entropy"
        assert report["relations"][0]["name"] == name
        assert report["relations"][0]["tolerance"] == estimators.DEFAULT_TOLERANCES[name]


class TestOneComputation:
    """The rows are formatted from the estimate, not computed a second time."""

    def counted(self, monkeypatch, name):
        calls = []
        original = getattr(estimators, name)

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for site in (estimators, cli):
            monkeypatch.setattr(site, name, counting, raising=False)
        return calls

    def test_brin_katok_samples_each_point_once(self, tmp_path, skewed_measure, monkeypatch):
        calls = self.counted(monkeypatch, "sample_typical_windows")
        args = ["brin-katok", "--measure", skewed_measure, "--n-points", "3", "--t-max", "80"]
        code, report = run_json(tmp_path, args + ["--seed", "3"])
        assert code == 0
        assert len(report["estimate"]["point_slopes"]) == 3
        assert [list(call[2]) for call in calls] == [[3, 4, 5]]

    def test_relations_samples_each_point_once(self, tmp_path, skewed_measure, monkeypatch):
        # one batch serves all four mass kinds
        calls = self.counted(monkeypatch, "sample_typical_windows")
        code, report = run_json(
            tmp_path, ["relations", "--measure", skewed_measure, "--n-points", "3"]
        )
        assert code == 0
        assert [list(call[2]) for call in calls] == [[0, 1, 2]]

    def test_csv_states_each_point_slope_once(self, tmp_path, skewed_measure):
        args = ["brin-katok", "--measure", skewed_measure, "--n-points", "3", "--t-max", "80"]
        _, report = run_json(tmp_path, args)
        out = tmp_path / "table.csv"
        assert main(args + ["--format", "csv", "--out", str(out)]) == 0
        rows = out.read_text(encoding="utf-8").splitlines()[3:]
        est = report["estimate"]
        assert rows == [
            f"brin-katok,{i},{s!r},{est['slope']!r},{s - est['slope']!r}"
            for i, s in enumerate(est["point_slopes"])
        ]

    def test_dim_counts_each_ladder_radius_once(self, tmp_path, monkeypatch):
        calls = self.counted(monkeypatch, "word_counts")
        code, report = run_json(tmp_path, ["dim", "--j-min", "8", "--j-max", "12"])
        assert code == 0
        assert len(report["rows"]) == 5
        assert len(calls) == 1
        lengths = calls[0][1]
        assert len(lengths) == len(set(lengths)) == 5
