"""The cooperative step generators under the one-shot entry points.

``dbtf_steps`` / ``cp_nway_steps`` / ``boolean_tucker_steps`` are the same
code paths as ``dbtf`` / ``cp_nway`` / ``boolean_tucker`` — the one-shot
functions just drain them — so these tests pin the *generator contract*
the service depends on: event shape, yield-at-checkpoint-boundary, clean
cancellation via ``close()``, and drained-equals-monolithic results.
"""

import numpy as np
import pytest

from repro.core import DbtfConfig, StepEvent, dbtf, dbtf_steps, drive
from repro.distengine import ClusterConfig, SimulatedRuntime
from repro.nway import NwayCpConfig, cp_nway, cp_nway_steps
from repro.resilience import CheckpointConfig
from repro.tensor import planted_tensor
from repro.tucker import (
    BooleanTuckerConfig,
    boolean_tucker,
    boolean_tucker_steps,
)


# Tucker partitions the tensor into one block per slot; four keep these
# small runs fast (the default cluster has 128 slots).
TUCKER_CLUSTER = ClusterConfig(n_machines=2, cores_per_machine=2)


def make_tensor(seed=0, dim=10):
    tensor, _ = planted_tensor(
        (dim, dim, dim), rank=3, factor_density=0.3,
        rng=np.random.default_rng(seed),
    )
    return tensor


class TestStepEvent:
    def test_frozen(self):
        event = StepEvent(step=1, error=5, converged=False)
        with pytest.raises(AttributeError):
            event.step = 2

    def test_drive_returns_generator_value(self):
        def gen():
            yield StepEvent(0, 1, False)
            return "done"

        assert drive(gen()) == "done"


class TestDbtfSteps:
    def test_drained_equals_monolithic(self):
        tensor = make_tensor()
        config = DbtfConfig(rank=3, max_iterations=3)
        with SimulatedRuntime(ClusterConfig()) as runtime:
            stepped = drive(dbtf_steps(tensor, config, runtime))
        direct = dbtf(tensor, rank=3, max_iterations=3)
        assert stepped.error == direct.error
        assert stepped.errors_per_iteration == direct.errors_per_iteration
        for mine, theirs in zip(stepped.factors, direct.factors):
            assert np.array_equal(mine.words, theirs.words)

    def test_event_sequence(self):
        tensor = make_tensor()
        config = DbtfConfig(rank=3, max_iterations=3)
        with SimulatedRuntime(ClusterConfig()) as runtime:
            events = list(dbtf_steps(tensor, config, runtime))
        assert events[0].phase == "init"
        assert events[0].step == 0
        assert all(e.phase == "iteration" for e in events[1:])
        assert [e.step for e in events[1:]] == list(
            range(1, len(events))
        )
        # Errors are monotonically non-increasing across yields.
        errors = [e.error for e in events]
        assert errors == sorted(errors, reverse=True)
        assert events[-1].converged or len(events) - 1 == 3

    def test_close_unpersists(self):
        tensor = make_tensor()
        config = DbtfConfig(rank=3, max_iterations=5)
        with SimulatedRuntime(ClusterConfig()) as runtime:
            steps = dbtf_steps(tensor, config, runtime)
            next(steps)
            next(steps)
            assert len(runtime._persisted_nodes) > 0
            steps.close()
            assert len(runtime._persisted_nodes) == 0

    def test_yield_lands_after_checkpoint(self, tmp_path):
        from repro.resilience import CheckpointManager, config_fingerprint

        tensor = make_tensor()
        config = DbtfConfig(
            rank=3, max_iterations=4,
            checkpoint=CheckpointConfig(directory=tmp_path),
        )
        with SimulatedRuntime(ClusterConfig()) as runtime:
            steps = dbtf_steps(tensor, config, runtime)
            snapshots_seen = []
            for event in steps:
                snapshots = sorted(tmp_path.glob("checkpoint-*.ckpt"))
                # The event's own step is already on disk when it yields.
                assert any(
                    f"{event.step:08d}" in path.name for path in snapshots
                ), event
                snapshots_seen.append(len(snapshots))
        assert snapshots_seen  # the loop ran


class TestNwayCpSteps:
    def test_drained_equals_monolithic(self, tmp_path):
        tensor = make_tensor()
        checkpointed = NwayCpConfig(
            rank=3, max_iterations=3, n_initial_sets=3,
            checkpoint=CheckpointConfig(directory=tmp_path),
        )
        plain = NwayCpConfig(rank=3, max_iterations=3, n_initial_sets=3)
        stepped = drive(cp_nway_steps(tensor, checkpointed))
        direct = cp_nway(tensor, config=plain)
        assert stepped.error == direct.error
        for mine, theirs in zip(stepped.factors, direct.factors):
            assert np.array_equal(mine.words, theirs.words)

    def test_yields_one_event_per_restart(self):
        tensor = make_tensor()
        config = NwayCpConfig(rank=3, max_iterations=2, n_initial_sets=3)
        events = list(cp_nway_steps(tensor, config))
        assert len(events) == 3
        assert all(e.phase == "restart" for e in events)
        assert [e.step for e in events] == [0, 1, 2]
        assert events[-1].converged


class TestTuckerSteps:
    def test_drained_equals_monolithic(self):
        tensor = make_tensor()
        config = BooleanTuckerConfig(core_shape=(2, 2, 2), max_iterations=2)
        with SimulatedRuntime(TUCKER_CLUSTER) as runtime:
            stepped = drive(boolean_tucker_steps(tensor, config, runtime))
            direct = boolean_tucker(tensor, config=config, runtime=runtime)
        assert stepped.error == direct.error
        assert np.array_equal(
            stepped.core.to_dense(), direct.core.to_dense()
        )
        for mine, theirs in zip(stepped.factors, direct.factors):
            assert np.array_equal(mine.words, theirs.words)

    def test_close_unpersists(self):
        tensor = make_tensor()
        config = BooleanTuckerConfig(core_shape=(2, 2, 2), max_iterations=5)
        with SimulatedRuntime(TUCKER_CLUSTER) as runtime:
            steps = boolean_tucker_steps(tensor, config, runtime)
            next(steps)
            assert len(runtime._persisted_nodes) > 0
            steps.close()
            assert len(runtime._persisted_nodes) == 0

    def test_step_encodes_restart_and_iteration(self):
        tensor = make_tensor()
        config = BooleanTuckerConfig(
            core_shape=(2, 2, 2), max_iterations=3, n_initial_sets=2
        )
        with SimulatedRuntime(TUCKER_CLUSTER) as runtime:
            events = list(boolean_tucker_steps(tensor, config, runtime))
        # Steps are restart * max_iterations + iteration: strictly
        # increasing across the whole sweep.
        steps = [e.step for e in events]
        assert steps == sorted(set(steps))
        assert steps[0] == 0
