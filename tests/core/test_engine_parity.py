"""End-to-end decision parity: the lazy step-1 engine against the dense oracle.

The acceptance bar for the lazy step-1 engine is not "equally good"
replication but *the same* replication: identical decision logs (every
candidate jump examined, in order, with the same outcome, sequence kind
and sizes) and identical final RTL.  This is checked on the adversarial
random-CFG fuzzer (unstructured graphs: backward branches, multiple
returns), on a deterministic 200-block fuzzed function (the regime where
the dense O(n³) matrix hurts), on random mini-C programs (while /
do-while / bounded forward goto — the shapes the paper is about) and on
Table-3 benchmarks, the last two through the full optimizer pipeline.

The replicator always builds :class:`LazyShortestPaths`; the paper's
Floyd/Warshall matrix is swapped in at that one construction site by
:func:`dense_step1`.
"""

import random
from contextlib import contextmanager
from unittest.mock import patch

import pytest
from hypothesis import HealthCheck, given, settings

from repro.benchsuite.programs import PROGRAMS
from repro.cfg import check_function, compute_flow
from repro.cfg.block import BasicBlock, Function
from repro.core import (
    CodeReplicator,
    Policy,
    ReplicationMode,
    ShortestPathMatrix,
    clone_function,
    replication,
)
from repro.frontend import compile_c
from repro.obs import observing
from repro.opt import OptimizationConfig, optimize_program
from repro.rtl import (
    Assign,
    BinOp,
    Compare,
    CondBranch,
    Const,
    Jump,
    Reg,
    Return,
    format_function,
)
from repro.targets import get_target
from tests.core.test_random_cfgs import random_functions
from tests.integration.test_random_programs import programs


@contextmanager
def dense_step1():
    """Make the replicator build the dense Floyd/Warshall matrix for step 1."""
    with patch.object(
        replication, "LazyShortestPaths", side_effect=ShortestPathMatrix
    ) as build:
        yield
    # Guards against a vacuous lazy-vs-lazy comparison should the
    # construction site ever stop going through this name.
    assert build.called, "the replicator did not build step 1 here"


def assert_lazy_matches_dense(run):
    """``run()`` returns (decision rows, final RTL); both engines must agree."""
    lazy_decisions, lazy_rtl = run()
    with dense_step1():
        dense_decisions, dense_rtl = run()
    assert lazy_decisions == dense_decisions
    assert lazy_rtl == dense_rtl


def replicate(func, **options):
    """(decision rows, final RTL text) of one replicator run on a copy."""
    work = clone_function(func)
    with observing(spans=False) as obs:
        CodeReplicator(**options).run(work)
    check_function(work)
    return obs.decisions.as_dicts(), format_function(work)


def optimize(source):
    """(decision rows, final RTL text) of the full JUMPS pipeline."""
    program = compile_c(source)
    with observing(spans=False) as obs:
        optimize_program(
            program, get_target("sparc"), OptimizationConfig(replication="jumps")
        )
    rtl = "\n\n".join(format_function(f) for f in program.functions.values())
    return obs.decisions.as_dicts(), rtl


def fuzzed_function(n_blocks: int, seed: int) -> Function:
    """A deterministic unstructured CFG in the style of the fuzzer tests.

    Fuel-bounded like ``tests/core/test_random_cfgs.py``: every block
    burns one unit, backward conditional branches stop once the fuel is
    gone, and unconditional jumps (~6% of blocks — Table 2 reports jumps
    are 4-8% of instructions in real code) only go forward.
    """
    rng = random.Random(seed)
    fuel = Reg("d", 6)
    func = Function(f"fuzz{seed}")
    entry = BasicBlock("INIT")
    entry.insns.append(Assign(fuel, Const(n_blocks * 3)))
    for k in range(4):
        entry.insns.append(Assign(Reg("d", k), Const(rng.randint(-9, 9))))
    blocks = [BasicBlock(f"N{i}") for i in range(n_blocks)]
    func.blocks = [entry] + blocks
    for index, block in enumerate(blocks):
        block.insns.append(Assign(fuel, BinOp("-", fuel, Const(1))))
        for _ in range(rng.randint(0, 2)):
            dst = Reg("d", rng.randint(0, 3))
            op = rng.choice(["+", "-", "*", "^", "&", "|"])
            block.insns.append(
                Assign(dst, BinOp(op, Reg("d", rng.randint(0, 3)), Const(rng.randint(-7, 7))))
            )
        is_last = index == n_blocks - 1
        roll = rng.random()
        if is_last or roll < 0.04:
            block.insns.append(Assign(Reg("rv", 0), Reg("d", 0)))
            block.insns.append(Return())
        elif roll < 0.10:  # ~6% unconditional forward jumps
            block.insns.append(Jump(f"N{rng.randint(index + 1, n_blocks - 1)}"))
        elif roll < 0.55:
            target = rng.randint(0, n_blocks - 1)
            if target != index:
                block.insns.append(Compare(fuel, Const(0)))
                block.insns.append(CondBranch(">", f"N{target}"))
        # otherwise: fall through.
    compute_flow(func)
    return func


class TestFuzzedCFGParity:
    @settings(max_examples=50, deadline=None)
    @given(random_functions())
    def test_identical_decision_log_and_rtl(self, func):
        assert_lazy_matches_dense(
            lambda: replicate(
                func,
                mode=ReplicationMode.JUMPS,
                policy=Policy.SHORTEST,
                max_replications_per_function=60,
                max_function_blocks=120,
            )
        )

    @settings(max_examples=30, deadline=None)
    @given(random_functions())
    def test_loops_mode_parity(self, func):
        assert_lazy_matches_dense(
            lambda: replicate(
                func, mode=ReplicationMode.LOOPS, policy=Policy.FAVOR_LOOPS
            )
        )

    def test_200_block_function_parity(self):
        # The §6 sequence-length bound keeps the run to the step-1 work
        # the engines differ in, instead of long hopeless apply/undo cycles.
        func = fuzzed_function(200, seed=1000)
        assert_lazy_matches_dense(
            lambda: replicate(
                func,
                mode=ReplicationMode.JUMPS,
                policy=Policy.SHORTEST,
                max_replications_per_function=80,
                max_function_blocks=len(func.blocks) * 2,
                max_rtls=16,
            )
        )


class TestMiniCPipelineParity:
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(programs())
    def test_full_pipeline_identical_output(self, source):
        assert_lazy_matches_dense(lambda: optimize(source))


class TestBenchmarkPipelineParity:
    @pytest.mark.parametrize("name", ["wc", "sieve", "bubblesort", "queens"])
    def test_full_pipeline_identical_output(self, name):
        assert_lazy_matches_dense(lambda: optimize(PROGRAMS[name].source))
