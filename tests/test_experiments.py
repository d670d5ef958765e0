import csv
import importlib.util
import math
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meyers_lab import FitError, fit_loglog
from meyers_lab import experiments
from meyers_lab.experiments import (REGISTRY, SUMMARY_HEADER, ConfigError,
                                    parse_config, recompute_verdicts, run)
from meyers_lab import cli


CONFIG_KEYS = sorted({key for exp in REGISTRY.values() for key in exp.defaults}
                     | {"experiment", "seed", "out"})
SAFE_VALUE = st.from_regex(r"[A-Za-z0-9_.:,^+-]{1,12}", fullmatch=True)


def render(exp, seed, out, params) -> str:
    lines = [f"experiment = {exp}", f"seed = {seed}", f"out = {out}"]
    return "\n".join(lines + [f"{k} = {v}" for k, v in params.items()]) + "\n"


class TestFitLoglog:
    def test_quadratic(self):
        pairs = [(s, s * s) for s in (0.5, 1.0, 2.0, 4.0)]
        assert fit_loglog(pairs) == pytest.approx(2.0)

    def test_constant(self):
        assert fit_loglog([(s, 3.0) for s in (1.0, 2.0, 4.0)]) == pytest.approx(0.0)

    def test_needs_three_positive_pairs(self):
        with pytest.raises(FitError):
            fit_loglog([(1.0, 1.0), (2.0, 2.0)])
        with pytest.raises(FitError):
            fit_loglog([(1.0, 1.0), (2.0, -2.0), (3.0, 1.0)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("column", [0, 1], ids=["scale", "value"])
    def test_non_finite_pair_refused(self, bad, column):
        pairs = [[1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [4.0, 4.0]]
        pairs[2][column] = bad
        with pytest.raises(FitError, match="finite"):
            fit_loglog(pairs)

    def test_needs_three_distinct_scales(self):
        # a repeated scale leaves the least-squares slope undetermined
        with pytest.raises(FitError):
            fit_loglog([(5.0, 1.0), (5.0, 2.0), (5.0, 3.0)])
        with pytest.raises(FitError):
            fit_loglog([(1.0, 1.0), (1.0, 2.0), (2.0, 3.0), (2.0, 1.0)])


class TestConfig:
    def test_defaults_and_overrides(self):
        cfg = parse_config("experiment = meyers_sweep\nseed = 7\np_list = 2.4")
        assert cfg.seed == 7
        assert cfg.params["p_list"] == "2.4"
        assert cfg.params["levels"] == "3,4,5,6"

    def test_comments_and_blanks(self):
        cfg = parse_config("# a comment\n\nexperiment = geometry # inline\n")
        assert cfg.experiment == "geometry"

    def test_missing_experiment(self):
        with pytest.raises(ConfigError, match="experiment"):
            parse_config("seed = 1")

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError, match="unknown experiment"):
            parse_config("experiment = nope")

    def test_p_range_enforced(self):
        with pytest.raises(ConfigError, match="p > 2"):
            parse_config("experiment = meyers_sweep\np_list = 1.5")
        with pytest.raises(ConfigError):
            parse_config("experiment = embeddings\np_sobolev = 3")

    @pytest.mark.parametrize("key, first, second", [
        ("experiment", "meyers_sweep", "geometry"),
        ("seed", "1", "2"),
        ("out", "a", "b"),
        ("levels", "3,4,5", "4,5,6"),
        ("levels", "3,4,5", "3,4,5"),
    ])
    def test_repeated_key_refused(self, tmp_path, monkeypatch, key, first, second):
        monkeypatch.chdir(tmp_path)  # a relative out stays in tmp_path
        lines = ["experiment = meyers_sweep", f"out = {tmp_path / 'out'}"]
        lines = [ln for ln in lines if not ln.startswith(key)]
        text = "\n".join(lines + [f"{key} = {first}", "# between", f"{key} = {second}"])
        n = len(lines)
        with pytest.raises(ConfigError, match=f"line {n + 3}: key '{key}' repeats line {n + 1}"):
            parse_config(text)
        cfgfile = tmp_path / "cfg.txt"
        cfgfile.write_text(text + "\n")
        assert cli.main(["run", str(cfgfile)]) == 1
        assert not (tmp_path / "out").exists()

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config("experiment = geometry\nbogus line")

    @pytest.mark.parametrize("text", [
        "experiment = geometry\nseed = x",
        "experiment = geometry\nseed = -1",
        "experiment = meyers_sweep\np_list = abc",
        "experiment = meyers_sweep\np_list = 2^99999",
        "experiment = embeddings\np_sobolev = q",
        "experiment = rate_theta\np_probe = 2.x",
        "experiment = meyers_sweep\ncoefficient = checkerboard:1",
        "experiment = holder_convergence\ncoefficient = bogus",
        # eps of the radial/tangential family lies in (0, 1)
        "experiment = counterexample\neps = 0",
        "experiment = counterexample\neps = 1",
        "experiment = counterexample\neps = nan",
        "experiment = counterexample\neps = x",
        "experiment = rate_theta\ncenter_level = 9\nlevels = 2,3,4",
        "experiment = resolvent_sweep\nrays = real,bogus",
        "experiment = resolvent_sweep\nlambda_list = -1,1,10",
        "experiment = resolvent_sweep\nlambda_list = 0,1,10",
        "experiment = resolvent_sweep\nlambda_list = nan,1,10",
        "experiment = resolvent_sweep\nlambda_list = 1,inf",
        "experiment = resolvent_sweep\neta_p = 2",
        "experiment = resolvent_sweep\neta_p = 1",
        "experiment = resolvent_sweep\nlambda_list = ,",
        "experiment = meyers_sweep\np_list = ,",
        # an empty item is refused in float lists as in integer lists
        "experiment = resolvent_sweep\nlambda_list = 1,,10,100",
        "experiment = meyers_sweep\np_list = 2.2,",
        "experiment = kernel_bounds\nt_grid = 0.5,,1",
        "experiment = kernel_bounds\nbox = 1",
        "experiment = kernel_bounds\nbox = 2",
        "experiment = kernel_bounds\nbox = 3",
        "experiment = kernel_bounds\nbox = 2.5",
        "experiment = kernel_bounds\nt_grid = -1,1",
        "experiment = kernel_bounds\nt_grid = 1,inf",
        "experiment = kernel_bounds\nt_grid = 1",
        "experiment = kernel_bounds\nt_grid = 1,1",
        "experiment = rate_theta\neps_probe = 0",
        "experiment = rate_theta\neps_probe = nan",
        "experiment = rate_theta\neps_probe = inf",
        "experiment = rate_theta\neps_probe = -0.5",
        "experiment = rate_theta\np_probe = 3",
        "experiment = rate_theta\np_probe = 2.5",
        "experiment = rate_theta\np_probe = nan",
        "experiment = resolvent_sweep\nbox = 1",
        "experiment = resolvent_sweep\nbox = 2",
        "experiment = resolvent_sweep\nbox = 3",
        "experiment = resolvent_sweep\nperturbation = nan",
        "experiment = resolvent_sweep\nperturbation = inf",
        "experiment = kernel_bounds\nc_prime = nan",
        "experiment = kernel_bounds\nc_prime = -1",
        "experiment = geometry\nr0 = -1",
        "experiment = geometry\nr0 = nan",
        "experiment = geometry\nsample_count = 0",
        "experiment = geometry\nsample_count = 2.5",
        "experiment = meyers_sweep\nlevels = 3,4",
        "experiment = counterexample\nlevels = 3,4",
        "experiment = holder_convergence\nlevels = 5",
        "experiment = rate_theta\nlevels = 4,5",
        "experiment = embeddings\nlevels = 2",
        "experiment = geometry\nlevels = 3",
        "experiment = meyers_sweep\nlevels = 3,5,6",
        "experiment = meyers_sweep\nlevels = 5,4,3",
        "experiment = geometry\nlevels = 3,3",
        "experiment = embeddings\nlevels = 2,3.5",
        # the coarsest mesh would have no interior vertex
        "experiment = meyers_sweep\nlevels = 0,1,2",
        "experiment = geometry\nlevels = 0,1",
        "experiment = embeddings\nlevels = 0,1",
        "experiment = meyers_sweep\nlevels = -3,-2,-1",
        "experiment = geometry\nlevels = -3,-2,-1",
        "experiment = counterexample\nlevels = -2,-1,0",
        # one interior vertex: the P1 solution is 0 and the slope fit refuses it
        "experiment = counterexample\nlevels = -1,0,1",
        "experiment = counterexample\nlevels = 0,1,2",
        # a repeated p would repeat its row block
        "experiment = meyers_sweep\np_list = 2.2,2.2",
        "experiment = holder_convergence\np_list = 2.2,2.2",
        "experiment = counterexample\np_list = 2.5,6,2.5",
        "experiment = meyers_sweep\ndomain = disk",
        "experiment = geometry\ndomain = rect:0:0:1",
        "experiment = embeddings\ndomain = rect:1:0:0:1",
        "experiment = resolvent_sweep\nlambda_list = 5,5,5",
        "experiment = resolvent_sweep\nlambda_list = 1,10",
        # a repeated value would repeat its row block
        "experiment = resolvent_sweep\nrays = real,real",
        "experiment = resolvent_sweep\nlambda_list = 1,1,10,100",
        "experiment = kernel_bounds\nt_grid = 1,1,2",
        "experiment = embeddings\ntrials = -3",
        "experiment = embeddings\ntrials = 0",
        # a non-finite coefficient value would assemble a NaN matrix
        "experiment = meyers_sweep\ncoefficient = checkerboard:nan:4",
        "experiment = meyers_sweep\ncoefficient = checkerboard:inf:4",
        "experiment = holder_convergence\ncoefficient = constant:nan",
        # an empty out names no directory to write the CSVs to
        "experiment = meyers_sweep\nout =",
    ])
    def test_bad_values_raise_config_error(self, text):
        with pytest.raises(ConfigError):
            parse_config(text)

    @pytest.mark.parametrize("text", [
        "experiment = meyers_sweep\nlevels = 1,2,3",
        "experiment = geometry\nlevels = 1,2,3",
        "experiment = embeddings\nlevels = 1,2",
        "experiment = counterexample\nlevels = 1,2,3",  # square2: level 1 has 9
    ])
    def test_coarsest_level_with_interior_vertex_accepted(self, text):
        parse_config(text)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(sorted(REGISTRY)),
           st.lists(st.tuples(st.sampled_from(CONFIG_KEYS), st.text(max_size=12)),
                    max_size=6),
           st.text(max_size=20))
    def test_any_text_parses_or_raises_config_error(self, exp, pairs, noise):
        lines = [f"experiment = {exp}", *(f"{k} = {v}" for k, v in pairs), noise]
        for text in ("\n".join(lines), noise):
            try:
                parse_config(text)
            except ConfigError:
                pass

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(sorted(REGISTRY)),
           st.dictionaries(st.from_regex(r"x_[a-z0-9_]{1,8}", fullmatch=True),
                           SAFE_VALUE, min_size=1, max_size=4),
           st.integers(0, 2**32), SAFE_VALUE)
    def test_rendered_config_parses_back(self, exp, extra, seed, out):
        # keys the experiment does not read are refused; its own keys round-trip
        with pytest.raises(ConfigError, match=next(iter(extra))):
            parse_config(render(exp, seed, out, {**REGISTRY[exp].defaults, **extra}))
        cfg = parse_config(render(exp, seed, out, {}))
        assert cfg.params == REGISTRY[exp].defaults
        again = parse_config(render(cfg.experiment, cfg.seed, cfg.out, cfg.params))
        assert (again.experiment, again.seed, again.out, again.params) == \
            (exp, seed, out, cfg.params)

    @pytest.mark.parametrize("text, key", [
        ("experiment = meyers_sweep\nlevles = 2,3", "levles"),
        ("experiment = geometry\nbox = 16", "box"),
        ("experiment = kernel_bounds\nx_foo = 1", "x_foo"),
        # the Galerkin experiments fix their load, and rate_theta and
        # counterexample their domain and coefficient too
        ("experiment = meyers_sweep\nf = one", "f"),
        ("experiment = holder_convergence\nf = one", "f"),
        ("experiment = rate_theta\nf = minus_one", "f"),
        ("experiment = rate_theta\ndomain = rect:0:0:1:2", "domain"),
        ("experiment = rate_theta\ncoefficient = constant:2", "coefficient"),
        ("experiment = counterexample\nf = auto", "f"),
        ("experiment = counterexample\ndomain = unit_square", "domain"),
        ("experiment = counterexample\ncoefficient = meyers:0.5", "coefficient"),
    ])
    def test_unknown_key_refused(self, tmp_path, text, key):
        with pytest.raises(ConfigError, match=f"reads no key '{key}'"):
            parse_config(text)
        cfgfile = tmp_path / "cfg.txt"
        cfgfile.write_text(f"{text}\nout = {tmp_path / 'out'}\n")
        assert cli.main(["run", str(cfgfile)]) == 1
        assert not (tmp_path / "out").exists()

    def test_values_are_parsed_once_per_key(self, monkeypatch):
        parsed = []
        parse = experiments._parse
        monkeypatch.setattr(experiments, "_parse",
                            lambda key, text, p: parsed.append(key) or parse(key, text, p))
        cfg = parse_config("experiment = rate_theta\nlevels = 3,4,5")
        assert parsed == ["seed", *REGISTRY["rate_theta"].keys]
        assert cfg.values["levels"] == [3, 4, 5]
        assert cfg.params["levels"] == "3,4,5"

    @pytest.mark.parametrize("seed", range(10))
    def test_benchmark_workload_configs_parse(self, tmp_path, seed):
        # every override key of a benchmark workload is one its experiment reads
        path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        for name, runs in workloads.WORKLOADS.items():
            for exp, overrides in runs:
                cfg = parse_config(workloads.config_text(exp, overrides, seed, str(tmp_path)))
                assert cfg.experiment == exp and set(overrides) <= set(cfg.values), name


# text cells exclude carriage returns, which no config value can carry
# (configs are split into lines) and which the csv writer leaves unquoted,
# and lone surrogates, which UTF-8 cannot encode
CELL_TEXT = st.text(alphabet=st.characters(blacklist_categories=("Cs",),
                                           blacklist_characters="\r"))


def _read_back(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _same(a, b) -> bool:
    both_nan = isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b)
    return both_nan or a == b


class TestCsv:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.fixed_dictionaries({"a": CELL_TEXT, "b": st.floats(),
                                           "c": CELL_TEXT}), max_size=5))
    def test_write_and_read_round_trip(self, rows):
        header = ["a", "b", "c"]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "t.csv")
            experiments.write_csv(path, header, rows)
            with open(path, newline="", encoding="utf-8") as fh:
                cells = list(csv.reader(fh))
            got_header, parsed = experiments._parse_csv(path)
        assert cells == [header] + [[row["a"], repr(row["b"]), row["c"]] for row in rows]
        assert got_header == header and len(parsed) == len(rows)
        for row, back in zip(rows, parsed):
            assert _same(back["b"], row["b"])
            assert all(_same(back[k], _read_back(row[k])) for k in ("a", "c"))

    @pytest.mark.parametrize("row, match", [
        ({"a": "x", "b": 1.0}, r"missing \['c'\]"),
        ({"a": "x", "b": 1.0, "c": "y", "d": 2.0}, r"unknown \['d'\]"),
    ], ids=["missing_key", "extra_key"])
    def test_row_keys_must_match_the_header(self, tmp_path, row, match):
        path = tmp_path / "t.csv"
        with pytest.raises(ValueError, match=match):
            experiments.write_csv(str(path), ["a", "b", "c"], [{"a": "", "b": 0.0, "c": ""}, row])
        assert not path.exists()


SMALL_SWEEP = """
experiment = meyers_sweep
levels = 3,4,5
seed = 3
"""


class TestRunAndReport:
    def test_meyers_sweep_outputs(self, tmp_path):
        cfg = parse_config(SMALL_SWEEP)
        cfg.out = str(tmp_path / "out")
        summary = run(cfg)
        assert summary.all_pass
        rows_csv = tmp_path / "out" / "meyers_sweep_rows.csv"
        assert rows_csv.exists()
        header = rows_csv.read_text().splitlines()[0]
        assert header.startswith("experiment,p,level,h,")

    def test_report_matches_run(self, tmp_path):
        cfg = parse_config(SMALL_SWEEP)
        cfg.out = str(tmp_path / "out")
        summary = run(cfg)
        redo = recompute_verdicts([str(p) for p in summary.csv_paths])
        got = {(v["check"], v["verdict"]) for v in redo}
        want = {(v["check"], v["verdict"]) for v in summary.verdicts}
        assert got == want

    def test_byte_identical_reruns(self, tmp_path):
        cfg1 = parse_config(SMALL_SWEEP)
        cfg1.out = str(tmp_path / "a")
        cfg2 = parse_config(SMALL_SWEEP)
        cfg2.out = str(tmp_path / "b")
        run(cfg1)
        run(cfg2)
        a = (tmp_path / "a" / "meyers_sweep_rows.csv").read_bytes()
        b = (tmp_path / "b" / "meyers_sweep_rows.csv").read_bytes()
        assert a == b

    def test_counterexample_solves_each_level_once(self, monkeypatch):
        # every p reads the same solution of a level
        from meyers_lab import fem
        calls = []
        solve = fem.solve
        monkeypatch.setattr(fem, "solve", lambda system, b: calls.append(1) or solve(system, b))
        cfg = parse_config("experiment = counterexample\np_list = 2.5,6\nlevels = 3,4,5")
        (rows,) = experiments.run_counterexample(cfg)
        assert len(calls) == 3
        assert [(r["p"], r["level"]) for r in rows] == \
            [(p, lvl) for p in (2.5, 6.0) for lvl in (3, 4, 5)]

    def test_counterexample_eps_sets_the_critical_exponent(self, tmp_path):
        cfg = parse_config("experiment = counterexample\neps = 0.3\nlevels = 3,4,5")
        cfg.out = str(tmp_path)
        summary = run(cfg)
        _, rows = experiments._parse_csv(summary.csv_paths[0])
        assert {r["p_c"] for r in rows} == {2.0 / (1.0 - 0.3)}
        assert len(summary.verdicts) == 2

    def test_geometry_small(self, tmp_path):
        cfg = parse_config("experiment = geometry\nlevels = 3,4\nsample_count = 25")
        cfg.out = str(tmp_path / "g")
        summary = run(cfg)
        assert summary.all_pass
        redo = recompute_verdicts([str(p) for p in summary.csv_paths])
        assert {v["check"] for v in redo} == {v["check"] for v in summary.verdicts}

    def test_kernel_bounds_above_64_squared(self, tmp_path):
        # above 64^2 vertices the oracle used to be skipped, and the verdicts
        # then failed on its missing deviation; one time alone cannot fit the
        # increment exponent, so the grid has two
        cfg = parse_config("experiment = kernel_bounds\nbox = 65\nt_grid = 1,2")
        cfg.out = str(tmp_path)
        summary = run(cfg)
        _, meta_rows = experiments._parse_csv(summary.csv_paths[0])
        assert all(isinstance(r["oracle_dev"], float) for r in meta_rows)
        assert summary.verdicts[0]["check"] == "contour_vs_oracle"
        assert summary.verdicts[0]["verdict"] == "pass"

    def test_embeddings_small(self, tmp_path):
        cfg = parse_config("experiment = embeddings\nlevels = 2,3,4\ntrials = 8")
        cfg.out = str(tmp_path / "e")
        summary = run(cfg)
        assert summary.all_pass


# small problem sizes for every experiment
SMALL = {
    "meyers_sweep": "levels = 3,4,5",
    "counterexample": "levels = 3,4,5",
    "holder_convergence": "levels = 3,4,5",
    "rate_theta": "levels = 3,4,5",
    "resolvent_sweep": "box = 16",
    "kernel_bounds": "box = 16",
    "embeddings": "levels = 2,3,4\ntrials = 8",
    "geometry": "levels = 3,4\nsample_count = 25",
}


@pytest.fixture(scope="module", params=sorted(SMALL))
def small_run(request, tmp_path_factory):
    """One small run per experiment, with the rows handed to write_csv; the
    run reads only the values parse_config parsed, and calls no parser."""
    name = request.param
    cfg = parse_config(f"experiment = {name}\n{SMALL[name]}\n")
    cfg.out = str(tmp_path_factory.mktemp(name))
    written = {}
    write_csv = experiments.write_csv

    def capture(path, header, rows):
        written[os.path.basename(path)] = rows
        write_csv(path, header, rows)

    def refuse(key, text, parse):
        raise AssertionError(f"run() parsed {key} = {text!r}")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments, "write_csv", capture)
        mp.setattr(experiments, "_parse", refuse)
        summary = run(cfg)
    return name, summary, written


def _csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestRecords:
    def test_small_sizes_cover_every_experiment(self):
        assert set(SMALL) == set(REGISTRY)

    def test_emitted_files_parse_with_csv_reader(self, small_run):
        _, summary, _ = small_run
        for path in summary.csv_paths:
            header, *rows = _csv_rows(path)
            assert rows and all(len(row) == len(header) for row in rows), path

    def test_report_recomputes_every_verdict(self, small_run):
        _, summary, _ = small_run
        redo = recompute_verdicts(summary.csv_paths)
        assert len(redo) == len(summary.verdicts)
        for got, want in zip(redo, summary.verdicts):
            assert got["check"] == want["check"]
            assert got["verdict"] == want["verdict"]
            assert _same(float(got["value"]), float(want["value"])), got["check"]

    def test_help_lists_the_emitted_headers(self, small_run, capsys):
        name, summary, written = small_run
        with pytest.raises(SystemExit):
            cli.main(["--help"])
        lines = capsys.readouterr().out.splitlines()
        start = lines.index(f"  {name}") + 1
        section = []
        for line in lines[start:]:
            if not line.startswith("    "):
                break
            section.append(line.strip())
        listed = dict(line.split(": ", 1) for line in section
                      if not line.startswith("defaults:"))
        emitted = {os.path.basename(p): ",".join(_csv_rows(p)[0])
                   for p in summary.csv_paths if not p.endswith("_summary.csv")}
        assert listed == emitted
        for file_name, header in listed.items():
            assert all(list(row) == header.split(",") for row in written[file_name])
        summary_header = ",".join(_csv_rows(summary.csv_paths[-1])[0])
        assert summary_header == SUMMARY_HEADER
        assert f"<experiment>_summary.csv: {SUMMARY_HEADER}" in "\n".join(lines)


@pytest.mark.parametrize("small_run", ["kernel_bounds"], indirect=True)
def test_kernel_table_regimes_and_bounds_match_meta(small_run):
    _, summary, _ = small_run
    paths = {os.path.basename(p): p for p in summary.csv_paths}
    _, meta = experiments._parse_csv(paths["kernel_bounds_rows.csv"])
    _, table = experiments._parse_csv(paths["kernel_table.csv"])
    c_prime = meta[0]["c_prime"]
    for r in table:
        assert (r["regime"] == "b") == (r["t"] >= c_prime * r["h_star"] * r["d"])
    for regime in ("a", "b"):
        sub = [r for r in table if r["regime"] == regime]
        k = np.abs(np.array([complex(r["K_re"], r["K_im"]) for r in sub]))
        bound = np.array([r["bound_value"] for r in sub])
        assert sub and np.mean(k <= bound * (1 + 1e-12)) == meta[0][f"pass_rate_{regime}"]


@pytest.mark.parametrize("small_run, name, doctor, message", [
    ("rate_theta", "rate_theta_rows.csv",
     lambda lines: [lines[0], lines[1].rsplit(",", 1)[0], *lines[2:]], "line 2: 11 cells"),
    ("rate_theta", "rate_theta_rows.csv",
     lambda lines: [lines[0], lines[1] + ",0.5", *lines[2:]], "line 2: 13 cells"),
    ("rate_theta", "rate_theta_rows.csv", lambda lines: [], "empty file"),
    ("rate_theta", "rate_theta_rows.csv", lambda lines: lines[:1], "a verdict file without rows"),
    ("kernel_bounds", "kernel_table.csv",
     lambda lines: [*lines[:2], lines[2].rsplit(",", 1)[0], *lines[3:]],
     "line 3: 8 cells under a header of 9"),
], indirect=["small_run"], ids=["cell_cut_off-rate_theta", "extra_cell-rate_theta",
                                "empty-rate_theta", "header_only-rate_theta",
                                "table_cell_cut_off-kernel_bounds"])
def test_report_refuses_malformed_rows_files(small_run, tmp_path, capsys, name, doctor,
                                             message):
    # a row one cell short or long used to be judged, every verdict PASS, and
    # a table passed with its verdict file used to be read by its header alone
    _, summary, _ = small_run
    rows_files = summary.csv_paths[:-1]
    lines = Path(next(p for p in rows_files if p.endswith(name))).read_text().splitlines()
    bad = tmp_path / name
    bad.write_text("".join(line + "\n" for line in doctor(lines)))
    inputs = [p for p in rows_files if not p.endswith(name)] + [str(bad)]
    with pytest.raises(ConfigError, match=message) as err:
        recompute_verdicts(inputs)
    assert str(bad) in str(err.value)
    assert cli.main(["report", *inputs]) == 1
    assert str(bad) in capsys.readouterr().err


@pytest.mark.parametrize("small_run", ["kernel_bounds"], indirect=True)
def test_report_refuses_inputs_without_a_verdict_file(small_run, capsys):
    _, summary, _ = small_run
    paths = {os.path.basename(p): p for p in summary.csv_paths}
    table, done = paths["kernel_table.csv"], paths["kernel_bounds_summary.csv"]
    with pytest.raises(ConfigError) as err:
        recompute_verdicts([table, done])
    assert str(err.value) == (f"no verdict file among the inputs: {table} belongs "
                              f"with kernel_bounds_rows.csv; {done} is a summary")
    assert cli.main(["report", done]) == 1
    assert "no verdict file among the inputs" in capsys.readouterr().err


class TestCli:
    def test_run_and_report_roundtrip(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.txt"
        cfgfile.write_text(SMALL_SWEEP + f"out = {tmp_path / 'out'}\n")
        code = cli.main(["run", str(cfgfile)])
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        code = cli.main(["report", str(tmp_path / "out" / "meyers_sweep_rows.csv")])
        assert code == 0

    def test_report_refuses_two_runs_of_one_experiment(self, tmp_path, capsys):
        # merged, the rows of two passing runs (levels 3-5 and 4-6) read as
        # a Cauchy sequence that stops decreasing
        paths = []
        for levels in ("3,4,5", "4,5,6"):
            cfg = parse_config(f"experiment = holder_convergence\nlevels = {levels}")
            cfg.out = str(tmp_path / levels)
            assert run(cfg).all_pass
            paths.append(os.path.join(cfg.out, "holder_convergence_rows.csv"))
        with pytest.raises(ConfigError) as err:
            recompute_verdicts(paths)
        assert f"{paths[0]} and {paths[1]}" in str(err.value)
        assert cli.main(["report", *paths]) == 1
        assert cli.main(["report", paths[0], paths[0]]) == 1
        assert "two holder_convergence verdict files" in capsys.readouterr().err

    def test_mesh_command(self, tmp_path, capsys):
        poly = tmp_path / "poly.txt"
        poly.write_text("0 0\n1 0\n1 1\n0 1\n")
        out = tmp_path / "mesh.txt"
        code = cli.main(["mesh", str(poly), "--h", "0.5", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "vertices 9 triangles 8"

    def test_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("experiment = nope\n")
        assert cli.main(["run", str(bad)]) == 1

    def test_failing_verdict_exit_code(self, tmp_path, capsys):
        # doctor a rows file so one verdict must fail
        cfg = parse_config(SMALL_SWEEP)
        cfg.out = str(tmp_path / "out")
        summary = run(cfg)
        rows = (tmp_path / "out" / "meyers_sweep_rows.csv").read_text().splitlines()
        head, first, rest = rows[0], rows[1], rows[2:]
        cells = first.split(",")
        ratio_col = head.split(",").index("ratio")
        cells[ratio_col] = repr(float(cells[ratio_col]) * 10.0)
        doctored = tmp_path / "doctored.csv"
        doctored.write_text("\n".join([head, ",".join(cells), *rest]) + "\n")
        assert cli.main(["report", str(doctored)]) == 2
