import contextlib
import io
import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tfade.cli as cli
from tfade.soe import CertificationError


def _read(path):
    return path.read_text().splitlines()


class TestSoeCheck:
    def test_certifies_and_writes_csv(self, tmp_path):
        out = tmp_path / "soe.csv"
        rc = cli.main([
            "soe-check", "--alpha", "0.5", "--eps", "1e-10",
            "--t-min", "1e-4", "--t-max", "2", "--samples", "2000",
            "--out", str(out),
        ])
        assert rc == 0
        lines = _read(out)
        assert lines[0].startswith("#")
        header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        assert lines[header_idx] == "t,kernel,soe,rel_err"
        rel = [float(l.split(",")[3]) for l in lines[header_idx + 1:]]
        assert max(rel) <= 1e-10

    def test_second_alpha(self, tmp_path):
        rc = cli.main([
            "soe-check", "--alpha", "0.25", "--eps", "1e-10",
            "--t-min", "1e-3", "--t-max", "2", "--samples", "500",
            "--out", str(tmp_path / "s.csv"),
        ])
        assert rc == 0

    def test_rejected_epsilon_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            cli.main([
                "soe-check", "--alpha", "0.5", "--eps", "1e-16",
                "--t-min", "1e-4", "--t-max", "2", "--out", str(tmp_path / "x.csv"),
            ])
        assert err.value.code == 1

    def test_certification_failure_exit_code(self, tmp_path, monkeypatch):
        def broken(*a, **k):
            raise CertificationError("forced")

        monkeypatch.setattr(cli, "build_soe", broken)
        rc = cli.main([
            "soe-check", "--alpha", "0.5", "--eps", "1e-10",
            "--t-min", "1e-4", "--t-max", "2", "--out", str(tmp_path / "x.csv"),
        ])
        assert rc == 2


class TestConvergence:
    def test_layout_and_determinism(self, tmp_path):
        args = [
            "convergence", "--case", "1", "--alpha", "0.25", "--N", "4,8,16",
            "--M", "24", "--method", "both", "--out",
        ]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(args + [str(out1)]) == 0
        assert cli.main(args + [str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = _read(out1)
        assert any("alpha=0.25" in l for l in lines if l.startswith("#"))
        header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        assert lines[header_idx] == "knob,error,order,method,norm"
        data = [l.split(",") for l in lines[header_idx + 1:]]
        assert [d[3] for d in data] == ["fast"] * 3 + ["direct"] * 3
        assert data[0][2] == "" and data[1][2] != ""

    def test_h1_norm_flag(self, tmp_path):
        out = tmp_path / "h1.csv"
        rc = cli.main([
            "convergence", "--case", "1", "--alpha", "0.5", "--N", "4,8",
            "--M", "16", "--norm", "h1", "--out", str(out),
        ])
        assert rc == 0
        assert _read(out)[-1].endswith(",h1")

    def test_space_sweep(self, tmp_path):
        out = tmp_path / "space.csv"
        rc = cli.main([
            "convergence", "--case", "1", "--alpha", "0.5", "--N", "32",
            "--M", "8,16,32", "--method", "direct", "--out", str(out),
        ])
        assert rc == 0
        lines = _read(out)
        header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        assert [l.split(",")[0] for l in lines[header_idx + 1:]] == ["8", "16", "32"]

    def test_empty_sweep_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            cli.main(["convergence", "--case", "1", "--out", str(tmp_path / "x.csv")])
        assert err.value.code == 1

    def test_double_sweep_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            cli.main([
                "convergence", "--case", "1", "--N", "4,8", "--M", "8,16",
                "--out", str(tmp_path / "x.csv"),
            ])
        assert err.value.code == 1

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": 0.25, "n_list": [4, 8], "m_list": [16]}))
        out = tmp_path / "c.csv"
        rc = cli.main([
            "convergence", "--case", "1", "--config", str(cfg),
            "--method", "direct", "--alpha", "0.5", "--out", str(out),
        ])
        assert rc == 0
        assert any("alpha=0.5" in l for l in _read(out))  # flag wins


class TestSolve:
    def test_zero_problem_all_zero(self, tmp_path):
        out = tmp_path / "zero.csv"
        rc = cli.main([
            "solve", "--case", "0", "--alpha", "0.5", "--N", "8", "--M", "8",
            "--out", str(out),
        ])
        assert rc == 0
        lines = _read(out)
        header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        u_col = [float(l.split(",")[2]) for l in lines[header_idx + 1:]]
        assert all(v == 0.0 for v in u_col)

    def test_zero_problem_reports_zero_error(self, tmp_path, capsys):
        rc = cli.main([
            "solve", "--case", "0", "--N", "8", "--M", "8", "--out", str(tmp_path / "z.csv"),
        ])
        assert rc == 0
        assert "final-level L2 error: 0.000000e+00" in capsys.readouterr().out

    def test_case2_boundaries_exact_zero(self, tmp_path):
        out = tmp_path / "c2.csv"
        rc = cli.main([
            "solve", "--case", "2", "--alpha", "0.5", "--N", "16", "--M", "16",
            "--out", str(out),
        ])
        assert rc == 0
        lines = _read(out)
        header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        rows = [l.split(",") for l in lines[header_idx + 1:]]
        for r in rows:
            assert np.isfinite(float(r[2]))
            if float(r[0]) in (0.0, 1.0):
                assert float(r[2]) == 0.0

    def test_determinism(self, tmp_path):
        args = ["solve", "--case", "2", "--alpha", "0.25", "--N", "8", "--M", "12", "--out"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(args + [str(a)]) == 0
        assert cli.main(args + [str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestBench:
    def test_small_bench_layout(self, tmp_path):
        out = tmp_path / "bench.csv"
        rc = cli.main([
            "bench", "--case", "1", "--alpha", "0.5", "--N", "4,8,16,32,64",
            "--M", "12", "--reps", "1", "--out", str(out),
        ])
        assert rc == 0
        lines = _read(out)
        header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        assert lines[header_idx] == "N,wall_seconds_fast,wall_seconds_direct,n_exp"
        assert lines[-1].startswith("# loglog")
        data = [l.split(",") for l in lines[header_idx + 1 : -1]]
        assert [d[0] for d in data] == ["4", "8", "16", "32", "64"]
        nexp = [int(d[3]) for d in data]
        assert all(b >= a for a, b in zip(nexp, nexp[1:]))

    def test_direct_cutoff(self, tmp_path):
        out = tmp_path / "bench.csv"
        rc = cli.main([
            "bench", "--case", "1", "--alpha", "0.5", "--N", "4,8,16,32,64",
            "--M", "12", "--reps", "1", "--direct-max-n", "16", "--out", str(out),
        ])
        assert rc == 0
        lines = _read(out)
        header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        data = [l.split(",") for l in lines[header_idx + 1:] if not l.startswith("#")]
        assert data[-1][2] == ""  # direct skipped above the cutoff
        assert data[0][2] != ""

    def test_not_doubling_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            cli.main([
                "bench", "--case", "1", "--N", "4,8,12,24,48", "--M", "12",
                "--out", str(tmp_path / "x.csv"),
            ])
        assert err.value.code == 1

    def test_too_short_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            cli.main([
                "bench", "--case", "1", "--N", "4,8", "--M", "12",
                "--out", str(tmp_path / "x.csv"),
            ])
        assert err.value.code == 1


class TestInvalidInput:
    """An invalid config value is a usage error (exit 1, one line, no
    traceback) and never starts a solve or the convergence pool."""

    @pytest.fixture(autouse=True)
    def no_solve(self, monkeypatch):
        def refuse(*a, **k):
            raise AssertionError("an invalid config reached the solver")

        monkeypatch.setattr(cli, "run", refuse)
        monkeypatch.setattr(cli, "ThreadPoolExecutor", refuse)

    def _assert_usage_error(self, argv, capsys, names=""):
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 1
        stderr = capsys.readouterr().err
        assert "Traceback" not in stderr
        assert len(stderr.strip().splitlines()) == 1
        assert names in stderr

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--lambda", "nan"), ("--T", "inf"), ("--r", "nan"),
            ("--delta", "inf"), ("--delta", "nan"), ("--delta", "-0.2"),
            ("--eps", "0.5"), ("--eps", "1e-16"),
            ("--alpha", "abc"),  # plain argparse would exit 2, the numerical-failure code
        ],
    )
    def test_non_finite_solve_flag(self, tmp_path, capsys, flag, value):
        self._assert_usage_error([
            "solve", "--case", "1", "--N", "8", "--M", "8", flag, value,
            "--out", str(tmp_path / "x.csv"),
        ], capsys)

    def test_level_past_n_refused_before_the_solve(self, tmp_path, capsys):
        self._assert_usage_error([
            "solve", "--case", "1", "--N", "8", "--M", "8", "--levels", "0,9",
            "--out", str(tmp_path / "x.csv"),
        ], capsys)

    def test_non_integer_step_count_in_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_list": [16.5]}))
        self._assert_usage_error([
            "solve", "--case", "1", "--config", str(cfg), "--M", "8",
            "--out", str(tmp_path / "x.csv"),
        ], capsys)

    def test_convergence_checks_configs_before_the_pool(self, tmp_path, capsys):
        self._assert_usage_error([
            "convergence", "--case", "1", "--N", "8,16", "--M", "8", "--lambda", "nan",
            "--method", "both", "--out", str(tmp_path / "x.csv"),
        ], capsys)

    def test_string_alpha_in_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": "abc"}))
        self._assert_usage_error(
            ["solve", "--config", str(cfg), "--N", "16", "--M", "8"], capsys
        )
        # the one line names the key (capsys was drained above, so rerun)
        with pytest.raises(SystemExit):
            cli.main(["solve", "--config", str(cfg), "--N", "16", "--M", "8"])
        assert "alpha" in capsys.readouterr().err

    def test_norm_outside_its_choices_in_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"norm": "h3"}))
        self._assert_usage_error([
            "convergence", "--config", str(cfg), "--case", "1", "--N", "8", "--M", "8,16",
            "--method", "both", "--out", str(tmp_path / "x.csv"),
        ], capsys, "norm")

    @pytest.mark.parametrize("argv", [
        ["solve", "--N", "8", "--M", "8"],
        ["convergence", "--case", "1", "--N", "500", "--M", "20,40,80,160", "--method", "both"],
        ["bench", "--N", "4,8,16,32,64", "--M", "12"],
    ])
    def test_missing_out_refused_before_the_solve(self, capsys, argv):
        self._assert_usage_error(argv, capsys, "--out")

    @pytest.mark.parametrize("count", ["-5", "0"])
    @pytest.mark.parametrize("command,flag,extra", [
        ("soe-check", "--samples", ["--t-min", "1e-4", "--t-max", "2"]),
        ("bench", "--reps", ["--N", "4,8,16,32,64", "--M", "12"]),
    ])
    def test_count_below_one_refused(self, tmp_path, capsys, monkeypatch, command, flag, extra, count):
        """As a flag and as a config value, before any certification or timing."""
        monkeypatch.setattr(cli, "build_soe", lambda *a, **k: pytest.fail("certified"))
        argv = [command, *extra, "--out", str(tmp_path / "x.csv")]
        self._assert_usage_error(argv + [flag, count], capsys, flag)
        cfg = tmp_path / "cfg.json"
        key = flag.removeprefix("--")
        cfg.write_text(json.dumps({key: int(count)}))
        self._assert_usage_error(argv + ["--config", str(cfg)], capsys, key)


# keys a config file may set, by the type their values must have
_FLOAT_KEYS = ["alpha", "lam", "delta", "r", "epsilon", "T"]
_OPTIONAL_FLOAT_KEYS = ["t_min", "t_max"]
_INT_KEYS = ["case_id", "samples", "reps"]
_OPTIONAL_INT_KEYS = ["direct_max_n"]
_STR_KEYS = ["method", "norm"]
_OPTIONAL_STR_KEYS = ["out"]
_LIST_KEYS = ["n_list", "m_list"]
_OPTIONAL_LIST_KEYS = ["levels"]
_ALL_KEYS = (_FLOAT_KEYS + _OPTIONAL_FLOAT_KEYS + _INT_KEYS + _OPTIONAL_INT_KEYS
             + _STR_KEYS + _OPTIONAL_STR_KEYS + _LIST_KEYS + _OPTIONAL_LIST_KEYS)
_CHOICES = {"method": ("fast", "direct", "both"), "norm": ("l2", "h1")}

_junk = st.one_of(
    st.text(max_size=5),
    st.booleans(),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)
_not_a_number = st.one_of(_junk, st.lists(st.integers(), max_size=3))
_not_an_int = st.one_of(_not_a_number, st.floats())
_not_a_str = st.one_of(st.booleans(), st.integers(), st.floats(), st.lists(st.text(max_size=3), max_size=3))
_not_an_int_list = st.one_of(
    _junk.filter(lambda v: not isinstance(v, list)),
    st.integers(),
    st.tuples(
        st.lists(st.integers(), max_size=3),
        st.one_of(st.floats(), st.text(max_size=3), st.booleans(), st.none()),
    ).map(lambda t: t[0] + [t[1]]),
)


def _wrong_value(key):
    """Values that the flag setting ``key`` could not take: a wrong type, or
    a string outside its choices."""
    for keys, optional, wrong in (
        (_FLOAT_KEYS, _OPTIONAL_FLOAT_KEYS, _not_a_number),
        (_INT_KEYS, _OPTIONAL_INT_KEYS, _not_an_int),
        (_STR_KEYS, _OPTIONAL_STR_KEYS, _not_a_str),
        (_LIST_KEYS, _OPTIONAL_LIST_KEYS, _not_an_int_list),
    ):
        if key in _CHOICES and key in keys + optional:
            wrong = st.one_of(wrong, st.text(max_size=6).filter(lambda v: v not in _CHOICES[key]))
        if key in keys:
            return st.one_of(wrong, st.none())
        if key in optional:
            return wrong
    raise KeyError(key)


class TestConfigFileTypes:
    def test_every_spec_field_is_covered(self):
        _, commands = cli._build_parser()
        assert sorted(_ALL_KEYS) == sorted({k for p in commands.values() for k in p.options})
        for key, choices in _CHOICES.items():
            assert all(p.options[key].choices == choices for p in commands.values())

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(_ALL_KEYS).flatmap(lambda k: st.tuples(st.just(k), _wrong_value(k))))
    @example(("norm", "h3"))
    @example(("method", "both2"))
    def test_any_wrongly_typed_value_is_a_usage_error(self, key_value):
        """Exit 1 with one stderr line naming the key; nothing is solved."""
        key, value = key_value
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "cfg.json"
            cfg.write_text(json.dumps({key: value}))
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr), mock.patch.object(
                cli, "run", side_effect=AssertionError("reached the solver")
            ), pytest.raises(SystemExit) as err:
                cli.main(["solve", "--config", str(cfg), "--N", "16", "--M", "8"])
        assert err.value.code == 1
        lines = stderr.getvalue().strip().splitlines()
        assert len(lines) == 1
        assert key in lines[0]

    @pytest.mark.parametrize("key", ["alpah", "L", "command"])
    def test_unknown_key_is_a_usage_error(self, tmp_path, capsys, key):
        """A misspelt or retired key, or one that names no flag, is refused,
        not silently ignored."""
        cfg = tmp_path / "typo.json"
        cfg.write_text(json.dumps({key: 0.25, "n_list": [16], "m_list": [8]}))
        with mock.patch.object(cli, "run", side_effect=AssertionError("reached the solver")):
            with pytest.raises(SystemExit) as err:
                cli.main(["solve", "--case", "1", "--config", str(cfg),
                          "--out", str(tmp_path / "x.csv")])
        assert err.value.code == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and repr(key) in lines[0]

    @pytest.mark.parametrize("values", [
        {"alpha": 1, "lam": 0, "T": 2},
        {"t_min": None, "levels": None, "direct_max_n": None, "out": None},
        {"n_list": [], "m_list": [8], "levels": [0, 4]},
    ])
    def test_well_typed_values_pass(self, tmp_path, values):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        argv = ["solve", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]
        if "out" in values:  # --out is optional only for soe-check
            argv = ["soe-check", "--config", str(cfg)]
        args = cli._parse(argv)
        for key, value in values.items():
            # a key of another subcommand is checked, then ignored
            assert getattr(args, key, value) == value
