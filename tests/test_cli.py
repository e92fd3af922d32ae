"""CLI: dispatch, formats, exit codes, determinism."""

import argparse
import io
import json

import pytest

import dynamo
from conftest import run_python
from dynamo.cli import run


@pytest.fixture
def sq_json(tmp_path):
    p = tmp_path / "sq.json"
    p.write_text('{"num": ["0", "0", "1"], "den": ["1"]}')
    return str(p)


@pytest.fixture
def basilica_json(tmp_path):
    p = tmp_path / "basilica.json"
    p.write_text('{"num": ["-1", "0", "1"], "den": ["1"]}')
    return str(p)


@pytest.fixture
def diagonal_json(tmp_path):
    p = tmp_path / "diag.json"
    p.write_text(json.dumps({
        "n": 2, "multidegree": [1, 1],
        "terms": [{"exps": [1, 0], "coeff": "1"}, {"exps": [0, 1], "coeff": "-1"}],
    }))
    return str(p)


def _run(argv):
    out = io.StringIO()
    code = run(argv, out=out)
    return code, out.getvalue()


def test_height_power_map(sq_json):
    code, text = _run(["height", "--map", sq_json, "--point", "2",
                       "--err", "1e-9", "--json"])
    assert code == 0
    res = json.loads(text)["result"]
    assert abs(float(res["value"]) - 0.6931471805599453) <= 1e-9
    assert float(res["error_radius"]) <= 1e-9


def test_height_nan_target_is_usage_error(basilica_json, capsys):
    code, text = _run(["height", "--map", basilica_json, "--point", "2",
                       "--err", "nan", "--json"])
    assert code == 1
    assert text == ""
    assert capsys.readouterr().err.startswith("error:")


def test_height_inf_target_is_the_zero_step_interval(basilica_json):
    code, text = _run(["height", "--map", basilica_json, "--point", "2",
                       "--err", "inf", "--json"])
    assert code == 0
    res = json.loads(text)["result"]
    assert res["iterations"] == 0
    assert abs(res["value"] - 0.6931471805599453) <= 1e-15
    assert res["error_radius"] >= res["height_step_bound"]


def test_preper_verdict_json(basilica_json):
    code, text = _run(["preper", "--map", basilica_json, "--point", "1", "--json"])
    assert code == 0
    res = json.loads(text)["result"]
    assert res["status"] == "preperiodic"
    assert (int(res["tail"]), int(res["period"])) == (1, 2)


def test_preper_divergent(sq_json):
    code, text = _run(["preper", "--map", sq_json, "--point", "2", "--json"])
    res = json.loads(text)["result"]
    assert res["status"] == "not_preperiodic"
    assert float(res["height_lower_bound"]) > 0.69


def test_orbit_csv_header_embeds_config(sq_json):
    code, text = _run(["orbit", "--map", sq_json, "--point", "1", "--cap-digits", "99"])
    assert code == 0
    assert "# cap_digits=99" in text
    assert "# version=" in text


def test_periodic_csv(sq_json):
    code, text = _run(["periodic", "--map", sq_json, "--period", "1"])
    assert code == 0
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    assert lines[0] == "period,point,multiplier,abs_multiplier"
    assert len(lines) == 4  # header + three fixed points


def test_periodic_repelling_only(sq_json):
    code, text = _run(["periodic", "--map", sq_json, "--period", "1",
                       "--repelling-only"])
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    assert len(lines) == 2


def test_parser_built_once_per_process(sq_json):
    # each command's parser is built once, and a command run never builds the
    # full parser, which serves --help, --version and unknown commands
    import dynamo.cli

    dynamo.cli.build_parser.cache_clear()
    dynamo.cli.command_parser.cache_clear()
    for _ in range(2):
        assert _run(["periodic", "--map", sq_json, "--period", "1"])[0] == 0
        assert _run(["preper", "--map", sq_json, "--point", "2"])[0] == 0
    info = dynamo.cli.command_parser.cache_info()
    assert (info.misses, info.hits) == (2, 2)
    assert dynamo.cli.build_parser.cache_info().currsize == 0
    assert _run(["--version"])[0] == 0
    assert _run(["no-such-command"])[0] == 1
    info = dynamo.cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


@pytest.mark.parametrize("argv", [
    ["preper", "--map", "m.json", "--point", "5/3"],
    ["height", "--map", "m.json", "--point", "2", "--err", "1e-3", "--diagnostics", "--json"],
    ["mm-verify", "--hyp", "h.json", "--map", "a.json", "b.json", "--maps", "c.json",
     "--samples", "50", "--trials", "3"],
    ["compare-measures", "--hyp", "h.json", "--map", "a.json", "--map", "b.json", "--n", "7",
     "--i", "2", "--j", "1"],
    ["periodic", "--map", "m.json", "--period", "3", "--repelling-only"],
    ["self-test"],
])
def test_command_parser_namespace_is_the_full_parsers(argv):
    # the header echoes the namespace in order, so its keys keep their order too
    from dynamo.cli import build_parser, command_parser

    full = build_parser().parse_args(argv)
    one = command_parser(argv[0]).parse_args(argv[1:])
    assert one == full
    echoed = [[k for k in vars(ns) if k not in ("command", "func")] for ns in (full, one)]
    assert echoed[0] == echoed[1]


def test_unrecognized_argument_names_the_subcommand(sq_json, capsys):
    code, _ = _run(["preper", "--map", sq_json, "--point", "2", "--bogus"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: dynamo preper ")
    assert "dynamo preper: error: unrecognized arguments: --bogus" in err


def test_map_lists_do_not_leak_between_runs(monkeypatch, diagonal_json, sq_json,
                                            basilica_json):
    # --map uses action="extend" on the shared parser: each run must see only
    # its own list
    import types

    import dynamo.measure

    seen = []

    def fake_compare(H, maps, i, j, **kwargs):
        seen.append([F.f0 for F in maps])
        return types.SimpleNamespace(statistic=0.0, threshold=1.0, equal_within_noise=True,
                                     per_chart=(), discarded=())

    monkeypatch.setattr(dynamo.measure, "measure_compare", fake_compare)
    for maps in ([sq_json, sq_json], [basilica_json, sq_json]):
        assert _run(["compare-measures", "--hyp", diagonal_json, "--map", *maps])[0] == 0
    assert seen == [[(0, 0, 1), (0, 0, 1)], [(-1, 0, 1), (0, 0, 1)]]


@pytest.mark.parametrize("command, extra", [
    ("curve-orbit", ["--max-iter", "3"]),
    ("ms-check", ["--max-iter", "3"]),
    ("compare-measures", ["--samples", "200", "--depth", "5"]),
    ("mm-verify", ["--samples", "200", "--depth", "5", "--trials", "4", "--max-iter", "3"]),
])
def test_each_map_path_is_loaded_once(monkeypatch, command, extra, diagonal_json, sq_json,
                                      basilica_json):
    # a map named twice is read, parsed and certified once, and the output
    # is byte for byte that of loading it once per mention
    import dynamo.cli
    import dynamo.projective

    load_map, loads = dynamo.projective.load_map, []

    def counted_load(path):
        loads.append(path)
        return load_map(path)

    monkeypatch.setattr(dynamo.projective, "load_map", counted_load)
    cases = [([sq_json, sq_json], 1), ([sq_json, basilica_json], 2)]
    if command == "curve-orbit":  # one map, used on both axes
        cases.append(([sq_json], 1))
    for maps, want in cases:
        argv = [command, "--hyp", diagonal_json, "--map", *maps, *extra]
        del loads[:]
        got = _run(argv)
        assert got[0] == 0 and len(loads) == want, (maps, loads)
        with monkeypatch.context() as m:
            m.setattr(dynamo.cli, "_load_maps", lambda paths: [load_map(p) for p in paths])
            assert _run(argv) == got, maps


def test_classify_json(basilica_json, sq_json):
    _, text = _run(["classify", "--map", sq_json, "--json"])
    assert json.loads(text)["result"]["verdict"] == "PowerConjugate"
    _, text = _run(["classify", "--map", basilica_json, "--json"])
    res = json.loads(text)["result"]
    assert res["verdict"] == "NonExceptional"
    assert res["pcf"] is True


def test_sample_measure_deterministic(sq_json):
    args = ["sample-measure", "--map", sq_json, "--samples", "200",
            "--depth", "10", "--seed", "5"]
    code1, t1 = _run(args)
    code2, t2 = _run(args)
    assert code1 == code2 == 0
    assert t1 == t2
    _, t3 = _run(args[:-1] + ["6"])
    assert t3 != t1


def test_sample_measure_sphere_chart(sq_json):
    code, text = _run(["sample-measure", "--map", sq_json, "--samples", "50",
                       "--depth", "8", "--chart", "sphere"])
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    assert lines[0] == "x,y,z"
    assert len(lines) == 51


def test_float_table_csv_matches_csv_writer():
    # rows written by one format string are the bytes csv.writer writes
    import csv

    from dynamo.cli import _emit_floats, build_parser

    cols = [[float("inf"), float("nan"), -0.0, 1e-300, -2.5e17, 0.1],
            [float("-inf"), 1 / 3, 0.0, -1e-300, 123456789012345.0, 7.0],
            [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]]
    args = build_parser().parse_args(["sample-measure", "--map", "m.json"])
    for width in (2, 3):
        got = io.StringIO()
        _emit_floats(["a", "b", "c"][:width], cols[:width], args, got)
        want = io.StringIO()
        for k, v in [("version", dynamo.__version__), ("map", "m.json"), ("samples", 10_000),
                     ("depth", 30), ("seed", 7), ("chart", "affine"), ("json", False)]:
            want.write(f"# {k}={v}\n")
        writer = csv.writer(want, lineterminator="\n")
        writer.writerow(["a", "b", "c"][:width])
        writer.writerows([f"{v:.12g}" for v in row] for row in zip(*cols[:width]))
        assert got.getvalue() == want.getvalue()


def test_compare_measures(diagonal_json, sq_json, basilica_json):
    code, text = _run(["compare-measures", "--hyp", diagonal_json,
                       "--map", sq_json, basilica_json,
                       "--samples", "4000", "--depth", "20", "--json"])
    assert code == 0
    res = json.loads(text)["result"]
    assert res["equal_within_noise"] == "False" or res["equal_within_noise"] is False


def test_curve_orbit_cli(diagonal_json, sq_json):
    code, text = _run(["curve-orbit", "--hyp", diagonal_json,
                       "--map", sq_json, sq_json, "--json"])
    assert code == 0
    res = json.loads(text)["result"]
    assert res["preperiodic"] is True or res["preperiodic"] == "True"


def test_ms_check_cli(diagonal_json, sq_json):
    code, text = _run(["ms-check", "--hyp", diagonal_json,
                       "--map", sq_json, sq_json, "--json"])
    assert code == 0
    res = json.loads(text)["result"]
    assert res["certified"] is True or res["certified"] == "True"


def test_mm_verify_cli(diagonal_json, sq_json):
    code, text = _run(["mm-verify", "--hyp", diagonal_json,
                       "--map", sq_json, sq_json,
                       "--samples", "2000", "--depth", "15", "--trials", "20",
                       "--json"])
    assert code == 0
    res = json.loads(text)["result"]
    assert res["failed_conditions"] == []
    assert "ms_certificate" in res


def test_self_test_passes():
    code, text = _run(["self-test"])
    assert code == 0
    assert "chebyshev_identity_d_le_12,True" in text


def test_usage_error_exit_code(tmp_path):
    missing = str(tmp_path / "nope.json")
    code, _ = _run(["height", "--map", missing, "--point", "2"])
    assert code == 1


def test_computation_error_exit_code(tmp_path, sq_json):
    bad = tmp_path / "bad.json"
    bad.write_text('{"num": ["0", "1", "0"], "den": ["0", "0", "1"]}')  # X*Y/X^2 shares X
    code, _ = _run(["height", "--map", str(bad), "--point", "2"])
    assert code == 2


def test_classify_linear_critical_factor_beyond_float_range(tmp_path):
    # z^2 + (10^400 + 1) z + 1: the critical factor (10^400 + 1) + 2z is
    # linear, so its root -(10^400 + 1)/2 is exact and its orbit certified
    p = tmp_path / "huge.json"
    p.write_text(json.dumps({"num": ["1", str(10**400 + 1), "1"]}))
    code, text = _run(["classify", "--map", str(p), "--json"])
    assert code == 0
    assert json.loads(text)["result"] == {"verdict": "NonExceptional", "signature": [],
                                          "pcf": False, "exact": True}


def test_classify_critical_quadratic_beyond_float_range_is_computation_error(tmp_path,
                                                                             capsys):
    # z^3 + (10^400 + 1) z^2 + z: the critical factor 1 + 2(10^400 + 1) z + 3z^2
    # has degree 2 and coefficients spanning past the float range
    p = tmp_path / "huge.json"
    p.write_text(json.dumps({"num": ["0", "1", str(10**400 + 1), "1"]}))
    code, text = _run(["classify", "--map", str(p), "--json"])
    assert code == 2 and text == ""
    err = capsys.readouterr().err
    assert err.startswith("computation error:") and "float range" in err


@pytest.mark.parametrize("argv", [["sample-measure", "--samples", "10", "--depth", "3"],
                                  ["periodic", "--period", "2"]])
def test_coefficients_beyond_float_range_are_computation_errors(tmp_path, argv):
    # z^2 + 10^384: sample-measure ended in an OverflowError traceback, and
    # periodic, whose scaled F1 underflows to zero, in NotACycle after two
    # RuntimeWarnings
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({"num": [str(10**384), "0", "1"]}))
    proc = run_python("-W", "default", "-m", "dynamo.cli", *argv, "--map", str(huge))
    assert proc.returncode == 2 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith("computation error:") and "float range" in lines[0]


@pytest.mark.parametrize("argv, message", [
    # the (depth, N) branch table ended in a numpy _ArrayMemoryError traceback
    (["sample-measure", "--depth", "1000000000", "--samples", "10000"],
     "the branch table of depth x samples = 1000000000 x 10000 draws does not fit "
     "in memory"),
    # forming 3^n to check the period cap took 1.8 s, and printing it failed
    (["periodic", "--period", "3000000"],
     "d^n with d = 3, n = 3000000 exceeds the configured cap 4096"),
])
def test_work_beyond_memory_or_cap_is_computation_error(tmp_path, argv, message):
    cubic = tmp_path / "cubic.json"
    cubic.write_text('{"num": ["1", "0", "0", "1"]}')
    proc = run_python("-W", "default", "-m", "dynamo.cli", *argv, "--map", str(cubic),
                      timeout=30)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == f"computation error: {message}\n"


def test_compare_measures_same_axis_is_usage_error(diagonal_json, sq_json, capsys):
    # i == j sampled one pullback twice and exited 0 with statistic 0
    code, text = _run(["compare-measures", "--hyp", diagonal_json, "--map", sq_json,
                       sq_json, "--i", "1", "--j", "1"])
    assert code == 1 and text == ""
    assert capsys.readouterr().err == "error: compare two distinct axes, got i = j = 1\n"


def test_mm_verify_repeatable_map_flag(diagonal_json, sq_json):
    code, text = _run(["mm-verify", "--hyp", diagonal_json,
                       "--map", sq_json, "--map", sq_json,
                       "--samples", "1000", "--depth", "10", "--trials", "10",
                       "--json"])
    assert code == 0
    assert json.loads(text)["result"]["failed_conditions"] == []


def test_sample_measure_n_alias(sq_json):
    code, text = _run(["sample-measure", "--map", sq_json, "--n", "60",
                       "--depth", "5"])
    assert code == 0
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    assert len(lines) == 61


def test_python_m_runs_the_cli():
    # -W error: runpy warns when dynamo.cli is in sys.modules before it runs
    # as __main__
    proc = run_python("-W", "error", "-m", "dynamo.cli", "self-test")
    assert proc.returncode == 0 and proc.stderr == ""
    assert "check,ok" in proc.stdout
    assert "chebyshev_identity_d_le_12,True" in proc.stdout


def test_point_with_zero_denominator_is_usage_error(sq_json, capsys):
    code, _ = _run(["preper", "--map", sq_json, "--point", "1/0"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'1/0'" in err
    code, text = _run(["preper", "--map", sq_json, "--point", "inf", "--json"])
    assert code == 0
    assert json.loads(text)["result"]["status"] == "preperiodic"


def test_threads_environment_variable_is_ignored(sq_json, monkeypatch):
    monkeypatch.setenv("DYNAMO_THREADS", "abc")
    code, text = _run(["orbit", "--map", sq_json, "--point", "1"])
    assert code == 0
    # the header echoes the map path, whose temporary directory carries this
    # test's name: look for the setting among the header keys
    keys = [l[2:].split("=", 1)[0] for l in text.splitlines() if l.startswith("# ")]
    assert keys == ["version", "map", "point", "cap_digits", "json"]
    assert "abc" not in text


@pytest.fixture
def steep_line_json(tmp_path):
    # x2 = 10^80 x1: its image under (z^2, z^2) is x2 = 10^160 x1, reached
    # through the square (s - 10^160 u)^2, whose constant 10^320 is no float
    p = tmp_path / "steep.json"
    p.write_text(json.dumps({
        "n": 2, "multidegree": [1, 1],
        "terms": [{"exps": [0, 1], "coeff": "1"}, {"exps": [1, 0], "coeff": str(-10**80)}],
    }))
    return str(p)


def test_curve_orbit_of_steep_line(steep_line_json, sq_json):
    code, text = _run(["curve-orbit", "--hyp", steep_line_json,
                       "--map", sq_json, sq_json, "--max-iter", "1", "--json"])
    assert code == 0
    res = json.loads(text)["result"]
    assert res["bidegrees"] == [[1, 1], [1, 1]] and res["preperiodic"] is False


def test_curve_orbit_beyond_float_range_runs(steep_line_json, sq_json):
    # the third step is x2 = 10^320 x1, whose coefficient no float holds:
    # the float check of the pushforward failed there (exit 2)
    code, text = _run(["curve-orbit", "--hyp", steep_line_json,
                       "--map", sq_json, sq_json, "--max-iter", "3", "--json"])
    assert code == 0
    res = json.loads(text)["result"]
    assert res["bidegrees"] == [[1, 1]] * 4 and res["preperiodic"] is False


@pytest.mark.parametrize("text", ['{"num": 5}', '[1, 2]', '{"num": ["1", "0", "1"], "den": 3}',
                                  '{"num": ["1/0", "1"]}'])
def test_malformed_map_json_is_usage_error(tmp_path, capsys, text):
    p = tmp_path / "bad.json"
    p.write_text(text)
    code, out = _run(["preper", "--map", str(p), "--point", "2"])
    assert code == 1 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("bad", [{"multidegree": 5}, {"terms": 7},
                                 {"terms": [{"exps": 3, "coeff": "1"}]},
                                 {"terms": [{"exps": [1, 0], "coeff": "1/0"}]}])
def test_malformed_hypersurface_json_is_usage_error(tmp_path, sq_json, capsys, bad):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"n": 2, "multidegree": [1, 1],
                             "terms": [{"exps": [1, 0], "coeff": "1"}], **bad}))
    code, out = _run(["curve-orbit", "--hyp", str(p), "--map", sq_json])
    assert code == 1 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    # axes outside 1..n: 5 indexed past the maps, 0 read axis n as index -1
    "compare-measures --hyp {diag} --map {sq} {sq} --i 5",
    "compare-measures --hyp {diag} --map {sq} {sq} --i 0",
    "ms-check --hyp {diag} --map {sq}",  # one map for two axes
    "classify --map {sq} --max-orbit -1",  # would follow no critical orbit
    # budgets below 1 ran nothing and exited 0
    "mm-verify --hyp {diag} --map {sq} {sq} --trials 0",
    "mm-verify --hyp {diag} --map {sq} {sq} --trials -3",
    "curve-orbit --hyp {diag} --map {sq} {sq} --max-iter 0",
    "curve-orbit --hyp {diag} --map {sq} {sq} --max-iter -1",
    "ms-check --hyp {diag} --map {sq} {sq} --exponent-bound -2",
])
def test_bad_axis_map_count_or_budget_is_usage_error(diagonal_json, sq_json, capsys, argv):
    argv = argv.format(diag=diagonal_json, sq=sq_json).split()
    if argv[0] in ("compare-measures", "mm-verify"):  # keep the sampling small
        argv += ["--samples", "200", "--depth", "5"]
    code, out = _run(argv)
    assert code == 1 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_mm_verify_sampling_budget_below_one_is_usage_error(tmp_path, sq_json, capsys):
    # x2 = 3 has one dominant axis, so no measure comparison ran to reject
    # the budget: mm-verify exited 0
    hyp = tmp_path / "x2_is_3.json"
    hyp.write_text(json.dumps({
        "n": 2, "multidegree": [0, 1],
        "terms": [{"exps": [0, 1], "coeff": "1"}, {"exps": [0, 0], "coeff": "-3"}],
    }))
    code, out = _run(["mm-verify", "--hyp", str(hyp), "--map", sq_json, sq_json,
                      "--samples", "0", "--depth", "-4"])
    assert code == 1 and out == ""
    assert capsys.readouterr().err == "error: samples must be >= 1, got 0\n"


@pytest.mark.parametrize("command", ["mm-verify", "compare-measures"])
def test_constant_form_is_usage_error(tmp_path, sq_json, capsys, command):
    # the constant 1 defines the empty set: mm-verify ran no test and exited 0
    hyp = tmp_path / "one.json"
    hyp.write_text(json.dumps({"n": 2, "multidegree": [0, 0],
                               "terms": [{"exps": [0, 0], "coeff": "1"}]}))
    code, out = _run([command, "--hyp", str(hyp), "--map", sq_json, sq_json,
                      "--samples", "200", "--depth", "5"])
    assert code == 1 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_curve_orbit_takes_at_most_two_maps(diagonal_json, sq_json, capsys):
    # a third map was silently ignored
    code, out = _run(["curve-orbit", "--hyp", diagonal_json, "--map", sq_json, sq_json, sq_json])
    assert code == 1 and out == ""
    assert capsys.readouterr().err == ("error: curve-orbit takes one map, used on both "
                                       "axes, or two; got 3\n")


def test_curve_orbit_on_three_blocks_is_usage_error(tmp_path, sq_json, capsys):
    # x1 + x2 + x3 = 0 is no curve in P^1 x P^1: this exited 2, a computation error
    hyp = tmp_path / "three.json"
    hyp.write_text(json.dumps({"n": 3, "multidegree": [1, 1, 1], "terms": [
        {"exps": [1, 0, 0], "coeff": "1"}, {"exps": [0, 1, 0], "coeff": "1"},
        {"exps": [0, 0, 1], "coeff": "1"}]}))
    code, out = _run(["curve-orbit", "--hyp", str(hyp), "--map", sq_json])
    assert code == 1 and out == ""
    assert capsys.readouterr().err == "error: curve-orbit expects a two-block form (n = 2)\n"


@pytest.mark.parametrize("cap", ["0", "-5"])
@pytest.mark.parametrize("argv", [
    # preper and orbit gave a verdict and exited 0; height and curve-orbit
    # exited 2 on a cap violation
    "preper --map {basilica} --point 5/3",
    "orbit --map {basilica} --point 5/3",
    "height --map {basilica} --point 5/3",
    "curve-orbit --hyp {diag} --map {sq} {sq}",
])
def test_cap_digits_below_one_is_usage_error(diagonal_json, sq_json, basilica_json, capsys,
                                             argv, cap):
    argv = argv.format(diag=diagonal_json, sq=sq_json, basilica=basilica_json).split()
    code, out = _run(argv + ["--cap-digits", cap])
    assert code == 1 and out == ""
    err = capsys.readouterr().err
    assert err == f"error: cap_digits must be >= 1, got {cap}\n"


def test_orbit_divergent_json(sq_json):
    code, text = _run(["orbit", "--map", sq_json, "--point", "2", "--json"])
    assert code == 0
    res = json.loads(text)["result"]
    assert res["status"] == "divergent"
    assert res["height_lower_bound"] > 0


# each subcommand's options besides --json, as in the README's CLI table
SUBCOMMAND_OPTIONS = {
    "height": ["map", "point", "err", "cap_digits", "diagnostics"],
    "preper": ["map", "point", "cap_digits"],
    "orbit": ["map", "point", "cap_digits"],
    "periodic": ["map", "period", "tol", "repelling_only"],
    "classify": ["map", "tol", "max_orbit"],
    "sample-measure": ["map", "samples", "depth", "seed", "chart"],
    "compare-measures": ["hyp", "map", "samples", "depth", "seed", "i", "j"],
    "curve-orbit": ["hyp", "map", "max_iter", "cap_digits"],
    "ms-check": ["hyp", "map", "max_iter", "exponent_bound"],
    "mm-verify": ["hyp", "map", "samples", "depth", "seed", "trials", "exponent_bound",
                  "max_iter"],
    "self-test": ["seed"],
}


def _subparsers():
    from dynamo.cli import build_parser

    action = next(a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_each_subcommand_takes_exactly_its_options():
    parsers = _subparsers()
    assert sorted(parsers) == sorted(SUBCOMMAND_OPTIONS)
    for name, sp in parsers.items():
        dests = [a.dest for a in sp._actions if a.dest != "help"]
        assert dests == SUBCOMMAND_OPTIONS[name] + ["json"], name


def test_shared_option_has_one_default_across_subcommands():
    seen = {}
    for name, sp in _subparsers().items():
        for a in sp._actions:
            if a.dest != "help":
                seen.setdefault(a.dest, {})[name] = (a.default, a.type, a.required)
    for dest, by_command in seen.items():
        assert len(set(by_command.values())) == 1, (dest, by_command)
    assert seen["seed"]["self-test"] == (7, int, False)
    assert seen["samples"]["mm-verify"] == (10_000, int, False)


@pytest.mark.parametrize("num, budget", [(["-2", "0", "1"], 1), (["0", "-3", "0", "1"], 0),
                                         (["1", "0", "2", "0", "1"], 1)])
def test_classify_open_orbit_budget_is_inconclusive(tmp_path, capsys, num, budget):
    # T2 at --max-orbit 1, T3 at 0 and Lattes at 1 exited 0 as NonExceptional
    path = tmp_path / "map.json"
    spec = {"num": num}
    if len(num) == 5:
        spec["den"] = ["0", "-4", "0", "4"]
    path.write_text(json.dumps(spec))
    code, text = _run(["classify", "--map", str(path), "--max-orbit", str(budget)])
    assert (code, text) == (2, "")
    err = capsys.readouterr().err
    assert err == (f"computation error: a critical orbit is still open after max_orbit = "
                   f"{budget} steps; a larger budget may close it\n")


@pytest.mark.parametrize("argv", [
    "height --map {sq} --point 3/2",
    "preper --map {sq} --point 1",
    "orbit --map {sq} --point 2",
    "periodic --map {sq} --period 2",
    "classify --map {sq} --max-orbit 9",
    "sample-measure --map {sq} --samples 20 --depth 3 --chart sphere",
    "compare-measures --hyp {diag} --map {sq} {sq} --samples 200 --depth 5 --i 2 --j 1",
    "curve-orbit --hyp {diag} --map {sq} {sq} --max-iter 2",
    "ms-check --hyp {diag} --map {sq} {sq} --max-iter 2",
    "mm-verify --hyp {diag} --map {sq} {sq} --samples 200 --depth 5 --trials 3",
    "self-test --seed 3",
])
def test_header_echoes_exactly_the_parsed_options(diagonal_json, sq_json, argv):
    argv = argv.format(diag=diagonal_json, sq=sq_json).split()
    code, text = _run(argv)
    assert code == 0
    header = [l[2:].split("=", 1) for l in text.splitlines() if l.startswith("# ")]
    assert [k for k, _ in header] == ["version", *SUBCOMMAND_OPTIONS[argv[0]], "json"]
    code, text = _run(argv + ["--json"])
    config = json.loads(text)["config"]
    assert list(config) == [k for k, _ in header]
    assert config["json"] is True and dict(header)["json"] == "False"


def test_header_records_the_options_that_ran(sq_json):
    _, text = _run(["periodic", "--map", sq_json, "--period", "2"])
    assert "# period=2\n" in text and "# tol=1e-09\n" in text and "seed" not in text
    _, text = _run(["height", "--map", sq_json, "--point", "3/2", "--err", "1e-7"])
    assert "# point=3/2\n" in text and "# err=1e-07\n" in text
    assert "samples" not in text and "max_iter" not in text
    _, text = _run(["mm-verify", "--hyp", sq_json, "--map", sq_json, sq_json, "--trials", "0",
                    "--json"])  # a usage error writes no header
    assert text == ""


@pytest.mark.parametrize("argv", ["height --map {sq} --point 2 --samples 5",
                                  "preper --map {sq} --point 2 --tol 1e-3",
                                  "orbit --map {sq} --point 2 --seed 3",
                                  "periodic --map {sq} --period 1 --max-iter 3",
                                  "self-test --depth 4"])
def test_option_outside_the_subcommand_is_usage_error(sq_json, capsys, argv):
    code, out = _run(argv.format(sq=sq_json).split())
    assert code == 1 and out == ""
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", ["classify --map {sq} --tol -1",
                                  "classify --map {sq} --tol 0",
                                  "classify --map {sq} --tol nan",
                                  "periodic --map {sq} --period 2 --tol nan",
                                  "periodic --map {sq} --period 2 --tol -1",
                                  "periodic --map {sq} --period 2 --tol inf"])
def test_tol_outside_unit_interval_is_usage_error(sq_json, capsys, argv):
    code, out = _run(argv.format(sq=sq_json).split())
    assert code == 1 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("error: tol must be") and "(0, 1)" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("period", ["0", "-3"])
def test_period_below_one_is_usage_error(sq_json, capsys, period):
    code, out = _run(["periodic", "--map", sq_json, "--period", period])
    assert code == 1 and out == ""
    err = capsys.readouterr().err
    assert err.startswith(f"error: period must be >= 1, got {period}")
    assert "Traceback" not in err


# -- coefficients beyond the float range: a result or exit 2, never a traceback ------

_B = 10**400


@pytest.fixture
def near_basilica_json(tmp_path):
    # ((B+1) z^2 - (B+3)) / (B+2) with B = 10^400: z^2 - 1 up to float
    # rounding, though no coefficient is a float
    p = tmp_path / "near_basilica.json"
    p.write_text(json.dumps({"num": [str(-(_B + 3)), "0", str(_B + 1)], "den": [str(_B + 2)]}))
    return str(p)


@pytest.mark.parametrize("argv", [
    ["periodic", "--period", "3", "--map", "M"],
    ["classify", "--map", "M"],
    ["sample-measure", "--samples", "200", "--depth", "5", "--map", "M"],
    ["compare-measures", "--hyp", "D", "--samples", "200", "--depth", "5", "--map", "M", "M"],
    ["curve-orbit", "--hyp", "D", "--map", "M", "M"],
    ["ms-check", "--hyp", "D", "--map", "M", "M"],
])
def test_map_beyond_float_range_runs_every_command(near_basilica_json, basilica_json,
                                                   diagonal_json, argv):
    files = {"M": near_basilica_json, "D": diagonal_json}
    code, text = _run([files.get(a, a) for a in argv] + ["--json"])
    assert code == 0
    want_code, want = _run([{"M": basilica_json, "D": diagonal_json}.get(a, a)
                            for a in argv] + ["--json"])
    assert want_code == 0
    got, want = json.loads(text)["result"], json.loads(want)["result"]
    if argv[0] == "periodic":  # the same cycles, to the rounding of the map
        assert len(got["rows"]) == len(want["rows"]) == 9
    elif argv[0] == "classify":
        # M(0) = -(B+3)/(B+2) is not -1: the critical orbit of 0 is certified
        # to escape, where z^2 - 1 is post-critically finite
        assert got["verdict"] == "NonExceptional" and got["exact"] is True
    elif argv[0] == "compare-measures":
        assert got["equal_within_noise"] is True and got["discarded"] == [0, 0]
    elif argv[0] != "sample-measure":
        assert got == want


@pytest.mark.parametrize("argv", [
    ["curve-orbit", "--hyp", "D", "--map", "S", "S"],
    ["ms-check", "--hyp", "D", "--map", "S", "S"],
    ["compare-measures", "--hyp", "H", "--map", "B", "B", "--samples", "200", "--depth", "5"],
])
def test_former_overflow_tracebacks_are_computation_errors(tmp_path, diagonal_json,
                                                           basilica_json, argv):
    # curve-orbit and ms-check on z^2 + 10^400, and compare-measures on
    # 10^400 X1 Y2 - X2 Y1, ended in a bare OverflowError traceback (exit 1).
    # compare-measures samples in floats and still fails, typed; the
    # pushforward check is exact, so the other two certify the diagonal fixed
    huge_map = tmp_path / "huge.json"
    huge_map.write_text(json.dumps({"num": [str(_B), "0", "1"]}))
    huge_hyp = tmp_path / "huge_hyp.json"
    huge_hyp.write_text(json.dumps({"n": 2, "multidegree": [1, 1], "terms": [
        {"exps": [1, 0], "coeff": str(_B)}, {"exps": [0, 1], "coeff": "-1"}]}))
    files = {"D": diagonal_json, "S": str(huge_map), "H": str(huge_hyp), "B": basilica_json}
    proc = run_python("-m", "dynamo.cli", *[files.get(a, a) for a in argv])
    if argv[0] != "compare-measures":
        assert proc.returncode == 0 and proc.stderr == ""
        rows = [line for line in proc.stdout.splitlines() if not line.startswith("#")]
        assert rows[1].startswith({"curve-orbit": "True,", "ms-check": "pair curve is "
                                   "preperiodic under the matched iterates,True,"}[argv[0]])
        return
    assert proc.returncode == 2 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith("computation error:") and "float range" in lines[0]


def test_periodic_prints_a_large_finite_point_as_finite(tmp_path):
    # z^2 - 10^16 z fixes 10^16 + 1, whose y is 1e-16 after normalization:
    # it printed as inf
    p = tmp_path / "pole.json"
    p.write_text(json.dumps({"num": ["0", str(-10**16), "1"]}))
    code, text = _run(["periodic", "--period", "1", "--map", str(p), "--json"])
    assert code == 0
    points = sorted(row[1] for row in json.loads(text)["result"]["rows"])
    assert len(points) == 3 and points.count("inf") == 1
    assert complex(max(points, key=len)).real == pytest.approx(1e16)
