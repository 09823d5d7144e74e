"""Tests for the stable :mod:`repro.api` facade, its deprecation shims, the
removed deprecation aliases, and the package-wide ``__all__`` audit."""

from __future__ import annotations

import importlib
import pkgutil
import warnings

import numpy as np
import pytest

import repro
import repro.api as api
from repro import CandidateTable, Ranking, RankingSet, kernels
from repro.exceptions import KernelError, ValidationError
from repro.fair.make_mr_fair import MakeMRFairResult
from repro.io.csv_io import write_candidate_table, write_ranking_set


@pytest.fixture
def profile():
    table = CandidateTable(
        {
            "Gender": ["M", "M", "W", "W", "M", "M", "W", "W"],
            "Race": ["A", "B", "A", "B", "A", "B", "A", "B"],
        }
    )
    rankings = RankingSet.from_orders(
        [[0, 1, 4, 5, 2, 3, 6, 7], [1, 0, 5, 4, 3, 2, 7, 6], [0, 4, 1, 5, 2, 6, 3, 7]]
    )
    return rankings, table


class TestFacadeVerbs:
    def test_load_profile_round_trips(self, tmp_path, profile):
        rankings, table = profile
        write_candidate_table(table, tmp_path / "candidates.csv")
        write_ranking_set(rankings, table, tmp_path / "rankings.csv")
        loaded = api.load_profile(
            tmp_path / "candidates.csv", tmp_path / "rankings.csv"
        )
        assert loaded.table.names == table.names
        assert loaded.rankings.to_order_lists() == rankings.to_order_lists()

    def test_load_profile_positions_errors(self, tmp_path, profile):
        _, table = profile
        write_candidate_table(table, tmp_path / "candidates.csv")
        (tmp_path / "rankings.csv").write_text("label,1,2\nr0,c0,nobody\n")
        with pytest.raises(ValidationError, match="rankings.csv:2"):
            api.load_profile(tmp_path / "candidates.csv", tmp_path / "rankings.csv")

    def test_aggregate_returns_payload(self, profile):
        rankings, table = profile
        payload = api.aggregate(rankings, table, method="fair-borda", delta=0.2)
        assert sorted(payload["consensus"]["order"]) == list(range(8))
        assert payload["method"] == "fair-borda"

    def test_repair_single_ranking(self, profile):
        _, table = profile
        result = api.repair(Ranking(range(8)), table, delta=0.2)
        assert isinstance(result, MakeMRFairResult)
        assert api.evaluate_fairness(result.ranking, table, delta=0.2).satisfied

    def test_repair_batch_matches_serial(self, profile):
        _, table = profile
        rng = np.random.default_rng(5)
        batch = [Ranking(rng.permutation(8).tolist()) for _ in range(5)]
        serial = [api.repair(r, table, delta=0.2) for r in batch]
        sharded = api.repair(batch, table, delta=0.2, n_shards=2)
        assert [r.ranking for r in sharded] == [r.ranking for r in serial]

    def test_evaluate_fairness_accepts_plain_order(self, profile):
        _, table = profile
        report = api.evaluate_fairness([0, 1, 4, 5, 2, 3, 6, 7], table, delta=0.5)
        assert report.satisfied in (True, False)

    def test_open_cache_memory_only(self, profile):
        rankings, table = profile
        service = api.open_cache()
        first = service.aggregate(rankings, table, delta=0.2)
        second = service.aggregate(rankings, table, delta=0.2)
        assert not first["cached"] and second["cached"]
        assert first["result"] == second["result"]

    def test_open_cache_with_disk_tier(self, tmp_path, profile):
        rankings, table = profile
        service = api.open_cache(tmp_path / "cache", policy="cost-aware")
        service.aggregate(rankings, table, delta=0.2)
        assert any((tmp_path / "cache").iterdir())


#: The backend-registry names the facade keeps importable for one release.
API_KERNEL_NAMES = (
    "KernelBackend",
    "BACKEND_ENV_VAR",
    "available_backends",
    "unavailable_backends",
    "create_backend",
    "get_backend",
    "resolve_backend",
    "active_backend",
    "active_backend_name",
    "set_default_backend",
    "use_backend",
    "describe_backends",
)
#: The subset the top-level package re-exported.
TOP_LEVEL_KERNEL_NAMES = (
    "available_backends",
    "active_backend_name",
    "set_default_backend",
    "use_backend",
)


@pytest.fixture
def fresh_warnings(monkeypatch):
    """Forget which deprecated names already warned in this process."""
    monkeypatch.setattr(api, "_warned", set())


@pytest.fixture
def quiet(fresh_warnings):
    """Use the deprecated names without their warnings."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        yield


class TestDeprecatedKernelNames:
    """The numpy-only stand-ins for the removed backend registry."""

    @pytest.mark.parametrize("name", API_KERNEL_NAMES)
    def test_api_name_warns_once_naming_the_removal_release(
        self, fresh_warnings, name
    ):
        with pytest.warns(
            DeprecationWarning, match=rf"repro\.api\.{name} .*removed in repro 1\.1\.0"
        ):
            first = getattr(api, name)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert getattr(api, name) is first

    @pytest.mark.parametrize("name", TOP_LEVEL_KERNEL_NAMES)
    def test_top_level_name_forwards_to_the_api_table(self, fresh_warnings, name):
        with pytest.warns(
            DeprecationWarning, match=rf"repro\.{name} .*removed in repro 1\.1\.0"
        ):
            value = getattr(repro, name)
        assert value is api._DEPRECATED_KERNEL_NAMES[name]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            getattr(repro, name)

    def test_from_import_still_works(self, fresh_warnings):
        with pytest.warns(DeprecationWarning, match="use_backend"):
            from repro.api import use_backend
        with use_backend("numpy") as backend:
            assert backend is kernels

    def test_names_left_the_dunder_all_lists(self):
        assert not set(API_KERNEL_NAMES) & set(api.__all__)
        assert not set(TOP_LEVEL_KERNEL_NAMES) & set(repro.__all__)

    def test_stand_ins_answer_numpy(self, quiet):
        assert api.available_backends() == ("numpy",)
        assert api.unavailable_backends() == {}
        assert api.active_backend_name() == "numpy"
        assert api.describe_backends()["active"]["name"] == "numpy"
        assert isinstance(api.BACKEND_ENV_VAR, str)
        lookups = (
            api.get_backend("numpy"),
            api.create_backend(),
            api.create_backend("numpy"),
            api.resolve_backend(None),
            api.resolve_backend("numpy"),
            api.resolve_backend(kernels),
            api.active_backend(),
        )
        for backend in lookups:
            assert backend is kernels
            assert isinstance(backend, api.KernelBackend)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: api.get_backend("numba"),
            lambda: api.create_backend("numba"),
            lambda: api.resolve_backend("numba"),
            lambda: api.set_default_backend("numba"),
            lambda: api.use_backend("numba").__enter__(),
        ],
    )
    def test_any_other_backend_raises(self, quiet, call):
        with pytest.raises(KernelError, match="numpy is the only kernel"):
            call()

    def test_setters_hold_no_state(self, quiet):
        before = (dict(vars(api)), dict(vars(kernels)))
        api.set_default_backend("numpy")
        api.set_default_backend(None)
        with api.use_backend("numpy"):
            pass
        assert (dict(vars(api)), dict(vars(kernels))) == before


class TestDeprecatedBackendArgument:
    @pytest.mark.parametrize("backend", ["numpy", kernels])
    def test_aggregate_accepts_numpy_with_one_warning(
        self, fresh_warnings, profile, backend
    ):
        rankings, table = profile
        with pytest.warns(
            DeprecationWarning, match=r"aggregate\(backend=\).*removed in repro 1\.1\.0"
        ):
            explicit = api.aggregate(rankings, table, delta=0.2, backend=backend)
        assert explicit == api.aggregate(rankings, table, delta=0.2)

    def test_repair_accepts_numpy_with_one_warning(self, fresh_warnings, profile):
        _, table = profile
        ranking = Ranking(range(8))
        with pytest.warns(
            DeprecationWarning, match=r"repair\(backend=\).*removed in repro 1\.1\.0"
        ):
            explicit = api.repair(ranking, table, delta=0.2, backend="numpy")
        assert explicit.ranking == api.repair(ranking, table, delta=0.2).ranking
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = api.repair(
                [ranking, ranking], table, delta=0.2, n_shards=1, backend="numpy"
            )
        assert [r.ranking for r in batch] == [explicit.ranking] * 2

    def test_other_backends_raise(self, quiet, profile):
        rankings, table = profile
        with pytest.raises(KernelError):
            api.aggregate(rankings, table, delta=0.2, backend="numba")
        with pytest.raises(KernelError):
            api.repair(Ranking(range(8)), table, delta=0.2, backend="numba")

    @pytest.mark.parametrize("backend", [None, "numpy"])
    def test_repair_still_rejects_non_ranking_items(self, quiet, profile, backend):
        _, table = profile
        with pytest.raises(ValidationError, match="item 1"):
            api.repair([Ranking(range(8)), [0, 1]], table, delta=0.2, backend=backend)


class TestDeprecatedAliases:
    @pytest.mark.parametrize("name", ["cache_key", "compute_consensus_payload"])
    def test_removed_aliases_no_longer_resolve(self, name):
        with pytest.raises(AttributeError):
            getattr(repro, name)

    def test_unknown_attribute_still_raises(self):
        with pytest.raises(AttributeError):
            repro.no_such_symbol


class TestAllAudit:
    """Every ``__all__`` name across ``repro`` and its subpackages resolves."""

    def _modules(self):
        yield repro
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
            yield importlib.import_module(info.name)

    def test_every_dunder_all_name_resolves(self):
        checked = 0
        for module in self._modules():
            for name in getattr(module, "__all__", ()):
                assert hasattr(module, name), f"{module.__name__}.{name} missing"
                checked += 1
        assert checked > 100

    def test_facade_all_is_complete(self):
        for name in api.__all__:
            assert hasattr(api, name)
        for verb in ("load_profile", "aggregate", "repair", "evaluate_fairness",
                     "open_cache"):
            assert verb in api.__all__
