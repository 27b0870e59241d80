"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_list_subcommand(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_design_defaults(self):
        args = build_parser().parse_args(["design", "sym6_145"])
        assert args.buses is None
        assert args.trials == 10_000

    def test_evaluate_accepts_multiple_benchmarks(self):
        args = build_parser().parse_args(["evaluate", "sym6_145", "qft_16", "--plot"])
        assert args.benchmarks == ["sym6_145", "qft_16"]
        assert args.plot

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep", "sym6_145"])
        assert args.command == "sweep"
        assert args.jobs == 1
        assert args.trials == 10_000
        assert args.configs is None

    def test_sweep_accepts_jobs_and_configs(self):
        args = build_parser().parse_args(
            ["sweep", "sym6_145", "qft_16", "--jobs", "4", "--configs", "eff-full"]
        )
        assert args.benchmarks == ["sym6_145", "qft_16"]
        assert args.jobs == 4
        assert args.configs == ["eff-full"]

    def test_sweep_rejects_unknown_config(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "sym6_145", "--configs", "nope"])

    def test_router_knob_defaults(self):
        for command in ("evaluate", "sweep"):
            args = build_parser().parse_args([command, "sym6_145"])
            assert args.router_passes == 3
            assert args.router_restarts == 1

    def test_router_knobs_accepted(self):
        args = build_parser().parse_args(
            ["sweep", "sym6_145", "--router-passes", "3", "--router-restarts", "4"]
        )
        assert args.router_passes == 3
        assert args.router_restarts == 4

    def test_even_router_passes_rejected(self):
        with pytest.raises(SystemExit):
            main(["evaluate", "sym6_145", "--trials", "50", "--router-passes", "2"])

    def test_design_knob_defaults(self):
        for command in ("evaluate", "sweep"):
            args = build_parser().parse_args([command, "sym6_145"])
            assert args.allocation_strategy == "bfs-greedy"
            assert args.design_cache is None
            assert args.local_trials == 2000

    def test_design_knobs_accepted(self):
        args = build_parser().parse_args(
            ["sweep", "sym6_145", "--allocation-strategy", "analytic-guided",
             "--design-cache", "plans.json", "--local-trials", "500"]
        )
        assert args.allocation_strategy == "analytic-guided"
        assert args.design_cache == "plans.json"
        assert args.local_trials == 500

    def test_unknown_allocation_strategy_rejected(self):
        for command in ("evaluate", "sweep"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(
                    [command, "sym6_145", "--allocation-strategy", "nope"]
                )

    def test_all_commands_accept_both_strategy_spellings(self):
        for command in ("design", "evaluate", "sweep"):
            for flag in ("--allocation-strategy", "--alloc-strategy"):
                args = build_parser().parse_args(
                    [command, "sym6_145", flag, "analytic-guided"]
                )
                assert args.allocation_strategy == "analytic-guided"

    def test_screening_flag_defaults_on(self):
        for command in ("design", "evaluate", "sweep"):
            args = build_parser().parse_args([command, "sym6_145"])
            assert args.no_screening is False

    def test_no_screening_accepted_everywhere(self):
        for command in ("design", "evaluate", "sweep"):
            args = build_parser().parse_args([command, "sym6_145", "--no-screening"])
            assert args.no_screening is True

    def test_cache_backend_defaults_to_auto(self):
        for command in ("evaluate", "sweep"):
            args = build_parser().parse_args([command, "sym6_145"])
            assert args.cache_backend == "auto"

    def test_cache_backend_choices(self):
        for backend in ("json", "sharded", "sqlite"):
            args = build_parser().parse_args(
                ["sweep", "sym6_145", "--cache-backend", backend]
            )
            assert args.cache_backend == backend
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["sweep", "sym6_145", "--cache-backend", "nope"]
            )

    def test_sweep_checkpoint_flags(self):
        args = build_parser().parse_args(
            ["sweep", "sym6_145", "--checkpoint", "ck.sqlite", "--resume",
             "--output", "report.json"]
        )
        assert args.checkpoint == "ck.sqlite"
        assert args.resume is True
        assert args.output == "report.json"

    def test_sweep_checkpoint_defaults(self):
        args = build_parser().parse_args(["sweep", "sym6_145"])
        assert args.checkpoint is None
        assert args.resume is False
        assert args.output is None


class TestCommands:
    def test_list_outputs_all_benchmarks(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "sym6_145" in output
        assert "qft_16" in output
        assert "synthetic substitute" in output

    def test_profile_outputs_matrix_and_degree_list(self, capsys):
        assert main(["profile", "sym6_145"]) == 0
        output = capsys.readouterr().out
        assert "coupling strength matrix" in output
        assert "coupling degree list" in output

    def test_design_with_explicit_bus_count(self, capsys):
        assert main(["design", "sym6_145", "--buses", "1", "--trials", "500"]) == 0
        output = capsys.readouterr().out
        assert "estimated yield" in output
        assert "Architecture:" in output

    def test_unknown_benchmark_raises(self):
        with pytest.raises(KeyError):
            main(["profile", "nope"])

    def test_sweep_prints_table(self, capsys):
        assert main(
            ["sweep", "sym6_145", "--jobs", "2", "--trials", "300",
             "--configs", "eff-layout-only"]
        ) == 0
        output = capsys.readouterr().out
        assert "sym6_145" in output
        assert "eff-layout-only" in output

    def test_sweep_unknown_benchmark_raises_before_forking(self):
        with pytest.raises(KeyError):
            main(["sweep", "nope", "--jobs", "2"])

    @pytest.mark.parametrize("command", ["evaluate", "sweep"])
    @pytest.mark.parametrize("bad", [
        {"yield_trials": 10_000.5},
        {"yield_trials": 0},
        {"frequency_local_trials": True},
        {"sigma_ghz": float("nan")},
        {"sigma_ghz": -0.03},
    ])
    def test_invalid_runtime_config_value_exits_2(self, tmp_path, capsys, command, bad):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(SystemExit) as excinfo:
            main([command, "sym6_145", "--runtime-config", str(path)])
        assert excinfo.value.code == 2
        assert next(iter(bad)) in capsys.readouterr().err


class TestDesignCacheRoundTrip:
    """CLI round trips of --design-cache / --allocation-strategy."""

    FAST = ["--trials", "200", "--local-trials", "60"]

    def test_evaluate_warm_cache_is_byte_identical_without_searches(
        self, tmp_path, capsys
    ):
        from repro.design import allocation_call_count, reset_allocation_call_count

        cache = str(tmp_path / "design_cache.json")
        assert main(["evaluate", "sym6_145", *self.FAST, "--design-cache", cache]) == 0
        cold = capsys.readouterr().out
        assert (tmp_path / "design_cache.json").exists()

        reset_allocation_call_count()
        assert main(["evaluate", "sym6_145", *self.FAST, "--design-cache", cache]) == 0
        warm = capsys.readouterr().out
        assert warm == cold
        assert allocation_call_count() == 0

    def test_sweep_warm_cache_output_identical_across_jobs(self, tmp_path, capsys):
        """The acceptance grid at the CLI surface: with a warm cache and the
        analytic-guided ablation, sweep output is byte-identical for
        --jobs 1 vs --jobs 4."""
        cache = str(tmp_path / "design_cache.json")
        ablation = ["sweep", "sym6_145", *self.FAST, "--configs", "eff-full",
                    "--design-cache", cache, "--allocation-strategy",
                    "analytic-guided"]
        assert main([*ablation, "--jobs", "1"]) == 0
        warm_serial = capsys.readouterr().out
        assert (tmp_path / "design_cache.json").exists()
        assert main([*ablation, "--jobs", "4"]) == 0
        warm_parallel = capsys.readouterr().out
        assert warm_parallel == warm_serial

    def test_ablation_changes_sweep_output(self, tmp_path, capsys):
        assert main(["sweep", "sym6_145", *self.FAST, "--configs", "eff-full"]) == 0
        base = capsys.readouterr().out
        assert main(["sweep", "sym6_145", *self.FAST, "--configs", "eff-full",
                     "--allocation-strategy", "analytic-guided"]) == 0
        ablation = capsys.readouterr().out
        assert ablation != base


class TestCacheBackendFlag:
    """``--cache-backend`` routes unprefixed cache paths to a backend."""

    FAST = ["--trials", "200", "--local-trials", "60"]

    def test_store_path_prefixing(self):
        from repro.cli import _store_path

        assert _store_path(None, "sqlite") is None
        assert _store_path("cache.json", "auto") == "cache.json"
        assert _store_path("cache", "sharded") == "sharded:cache"
        # An explicit scheme on the path always wins over the flag.
        assert _store_path("json:cache", "sqlite") == "json:cache"

    def test_evaluate_writes_sqlite_design_cache(self, tmp_path, capsys):
        from repro.persistence import SQLITE_MAGIC

        cache = tmp_path / "design-cache"
        assert main(["evaluate", "sym6_145", *self.FAST,
                     "--design-cache", str(cache),
                     "--cache-backend", "sqlite"]) == 0
        capsys.readouterr()
        assert cache.read_bytes()[: len(SQLITE_MAGIC)] == SQLITE_MAGIC

    def test_evaluate_writes_sharded_design_cache(self, tmp_path, capsys):
        cache = tmp_path / "design-cache"
        assert main(["evaluate", "sym6_145", *self.FAST,
                     "--design-cache", str(cache),
                     "--cache-backend", "sharded"]) == 0
        capsys.readouterr()
        assert cache.is_dir()
        assert (cache / "shards.json").exists()

    def test_resume_without_checkpoint_is_an_error(self, capsys):
        assert main(["sweep", "sym6_145", *self.FAST, "--resume"]) == 2
        assert "--resume requires --checkpoint" in capsys.readouterr().err


class TestScreeningAndStatsFlags:
    FAST = ["--trials", "200", "--local-trials", "60"]

    @staticmethod
    def _drop_process_caches():
        """Drop every cache keyed without the screening flag, so the
        unscreened run actually recomputes instead of replaying the
        screened run's memoized plans."""
        from repro.design import reset_shared_caches
        from repro.evaluation import parallel

        parallel.reset_worker_state()
        reset_shared_caches()

    def test_no_screening_sweep_output_is_byte_identical(self, capsys):
        """The acceptance criterion at the CLI surface: screening on vs
        off produces byte-identical sweep output."""
        from repro.design import allocation_call_count, reset_allocation_call_count

        base = ["sweep", "sym6_145", *self.FAST, "--configs", "eff-full"]
        self._drop_process_caches()
        assert main(base) == 0
        screened = capsys.readouterr().out
        self._drop_process_caches()
        reset_allocation_call_count()
        assert main([*base, "--no-screening"]) == 0
        unscreened = capsys.readouterr().out
        assert allocation_call_count() > 0
        assert unscreened == screened
