"""Epoch-stream (delta) jobs through the FactorizationService."""

import numpy as np
import pytest

from repro import FactorizationSession
from repro.core import DbtfConfig
from repro.distengine import SimulatedRuntime
from repro.incremental import SessionResult
from repro.service import (
    FactorizationService,
    JobSpec,
    JobState,
    ServiceConfig,
)
from repro.tensor import SparseBoolTensor, TensorDelta, planted_tensor


def make_tensor(seed=0, dim=10):
    tensor, _ = planted_tensor(
        (dim, dim, dim), rank=3, factor_density=0.3,
        rng=np.random.default_rng(seed),
    )
    return tensor


def make_deltas(tensor, n_epochs=2, seed=1, n_changes=4):
    rng = np.random.default_rng(seed)
    deltas = []
    current = tensor
    for _ in range(n_epochs):
        coords = current.coords
        removed = coords[
            rng.choice(len(coords), size=n_changes // 2, replace=False)
        ]
        present = {tuple(int(x) for x in cell) for cell in coords}
        added = []
        while len(added) < n_changes - len(removed):
            cell = tuple(
                int(rng.integers(0, dim)) for dim in current.shape
            )
            if cell not in present:
                present.add(cell)
                added.append(cell)
        delta = TensorDelta.from_coords(
            current.shape, np.array(added, dtype=np.int64), removed
        )
        deltas.append(delta)
        current = current.apply_delta(delta)
    return deltas


def make_spec(tensor, deltas, tenant="acme", **kwargs):
    kwargs.setdefault("rank", 3)
    kwargs.setdefault("max_iterations", 3)
    return JobSpec(tenant=tenant, tensor=tensor, deltas=deltas, **kwargs)


class TestSpecValidation:
    def test_deltas_change_job_id(self):
        tensor = make_tensor()
        deltas = make_deltas(tensor)
        batch = JobSpec(tenant="a", tensor=tensor, rank=3, max_iterations=3)
        epochs = make_spec(tensor, deltas, tenant="a")
        assert batch.job_id != epochs.job_id
        assert epochs.job_id == make_spec(tensor, deltas, tenant="a").job_id
        assert epochs.job_id != make_spec(
            tensor, deltas[:1], tenant="a"
        ).job_id

    def test_deltas_require_dbtf(self):
        tensor = make_tensor()
        deltas = make_deltas(tensor)
        with pytest.raises(ValueError, match="dbtf"):
            make_spec(tensor, deltas, method="tucker")

    def test_delta_shape_must_match_tensor(self):
        tensor = make_tensor()
        with pytest.raises(ValueError, match="shape"):
            make_spec(tensor, [TensorDelta.empty((2, 2, 2))])

    def test_non_delta_entries_rejected(self):
        tensor = make_tensor()
        with pytest.raises(ValueError):
            make_spec(tensor, ["not a delta"])


class TestEpochJobs:
    def test_drain_returns_session_result(self):
        tensor = make_tensor()
        deltas = make_deltas(tensor)
        with FactorizationService() as service:
            job_id = service.submit(make_spec(tensor, deltas)).job_id
            statuses = service.drain()
            result = service.result(job_id)
        assert [s.state for s in statuses] == [JobState.DONE]
        assert isinstance(result, SessionResult)
        assert len(result.epochs) == len(deltas) + 1
        assert result.final.epoch == len(deltas)

    def test_matches_direct_session(self):
        tensor = make_tensor()
        deltas = make_deltas(tensor)
        with FactorizationService() as service:
            job_id = service.submit(make_spec(tensor, deltas)).job_id
            service.drain()
            served = service.result(job_id)
        config = DbtfConfig(rank=3, max_iterations=3, seed=0)
        with SimulatedRuntime(ServiceConfig().cluster) as runtime:
            with FactorizationSession(tensor, config, runtime) as session:
                direct = session.run(deltas)
        assert served.errors_per_epoch == direct.errors_per_epoch
        for mine, theirs in zip(served.epochs, direct.epochs):
            for a, b in zip(mine.result.factors, theirs.result.factors):
                assert np.array_equal(a.words, b.words)

    def test_epoch_and_batch_jobs_coexist(self):
        tensor = make_tensor()
        deltas = make_deltas(tensor)
        with FactorizationService() as service:
            epochs = service.submit(make_spec(tensor, deltas)).job_id
            batch = service.submit(
                JobSpec(tenant="b", tensor=tensor, rank=3, max_iterations=3)
            ).job_id
            statuses = {s.job_id: s for s in service.drain()}
            assert statuses[epochs].state is JobState.DONE
            assert statuses[batch].state is JobState.DONE
            assert isinstance(service.result(epochs), SessionResult)
            assert not isinstance(service.result(batch), SessionResult)

    def test_no_leases_leak(self):
        tensor = make_tensor()
        deltas = make_deltas(tensor)
        with FactorizationService() as service:
            service.submit(make_spec(tensor, deltas))
            service.drain()
            assert service.factory.open_leases == 0

    def test_bad_delta_stream_fails_alone(self):
        # The second delta re-removes the first's cells: valid shape-wise,
        # but inconsistent with the evolved tensor — the job must fail
        # without taking the sibling down.
        tensor = make_tensor()
        first = make_deltas(tensor, n_epochs=1)[0]
        bad = [first, first]
        with FactorizationService() as service:
            failing = service.submit(make_spec(tensor, bad)).job_id
            good = service.submit(
                JobSpec(tenant="b", tensor=tensor, rank=3, max_iterations=2)
            ).job_id
            statuses = {s.job_id: s for s in service.drain()}
        assert statuses[failing].state is JobState.FAILED
        assert statuses[good].state is JobState.DONE


class TestEpochCheckpoints:
    def test_per_epoch_dirs_pruned(self, tmp_path):
        tensor = make_tensor()
        deltas = make_deltas(tensor, n_epochs=3)
        config = ServiceConfig(checkpoint_root=tmp_path, keep_last=2)
        with FactorizationService(config) as service:
            job_id = service.submit(make_spec(tensor, deltas)).job_id
            service.drain()
        names = sorted(p.name for p in (tmp_path / job_id).glob("epoch-*"))
        assert names == ["epoch-0002", "epoch-0003"]

    def test_kill_and_resubmit_bit_identical(self, tmp_path):
        tensor = make_tensor()
        deltas = make_deltas(tensor, n_epochs=2)
        spec_kwargs = dict(max_iterations=4)

        def run(root, kill_after=None):
            config = ServiceConfig(checkpoint_root=root, keep_last=8)
            service = FactorizationService(config)
            try:
                job_id = service.submit(
                    make_spec(tensor, deltas, **spec_kwargs)
                ).job_id
                if kill_after is not None:
                    for _ in range(kill_after):
                        if not service.step():
                            break
                    return None
                service.drain()
                return service.result(job_id)
            finally:
                service.close()

        baseline = run(tmp_path / "baseline")
        assert run(tmp_path / "killed", kill_after=4) is None
        resumed = run(tmp_path / "killed")
        assert resumed.errors_per_epoch == baseline.errors_per_epoch
        for mine, theirs in zip(resumed.epochs, baseline.epochs):
            assert mine.result.errors_per_iteration == (
                theirs.result.errors_per_iteration
            )
            for a, b in zip(mine.result.factors, theirs.result.factors):
                assert np.array_equal(a.words, b.words)
