"""Property-based semantic preservation of the scalar optimizer passes.

Random straight-line blocks of register arithmetic are run before and
after each pass (and after the whole pass pipeline); the observable
result — the returned register value — must be identical.  This pins the
passes' semantics independently of the front-end and of replication.
"""

from hypothesis import given, settings, strategies as st

from repro.cfg import Program, compute_flow
from repro.cfg.block import BasicBlock, Function
from repro.core import clone_function
from repro.ease import Interpreter
from repro.opt import (
    combine,
    eliminate_dead_variables,
    fold_constants,
    legalize,
    local_cse,
    propagate_copies,
)
from repro.rtl import Assign, BinOp, Const, Reg, Return, UnOp
from repro.targets import get_target

N_REGS = 5


@st.composite
def straightline_functions(draw):
    func = Function("main")
    block = BasicBlock("B0")
    func.blocks = [block]
    for k in range(N_REGS):
        block.insns.append(Assign(Reg("v", k), Const(draw(st.integers(-20, 20)))))
    for _ in range(draw(st.integers(1, 12))):
        dst = Reg("v", draw(st.integers(0, N_REGS - 1)))
        shape = draw(st.integers(0, 3))
        if shape == 0:
            src = Const(draw(st.integers(-100, 100)))
        elif shape == 1:
            src = Reg("v", draw(st.integers(0, N_REGS - 1)))
        elif shape == 2:
            op = draw(st.sampled_from(["+", "-", "*", "&", "|", "^", "<<", ">>"]))
            left = Reg("v", draw(st.integers(0, N_REGS - 1)))
            if op in ("<<", ">>"):
                right = Const(draw(st.integers(0, 8)))
            else:
                right = draw(
                    st.one_of(
                        st.integers(-50, 50).map(Const),
                        st.integers(0, N_REGS - 1).map(lambda k: Reg("v", k)),
                    )
                )
            src = BinOp(op, left, right)
        else:
            src = UnOp(
                draw(st.sampled_from(["-", "~"])),
                Reg("v", draw(st.integers(0, N_REGS - 1))),
            )
        block.insns.append(Assign(dst, src))
    result_reg = Reg("v", draw(st.integers(0, N_REGS - 1)))
    block.insns.append(Assign(Reg("rv", 0), BinOp("&", result_reg, Const(0xFFFF))))
    block.insns.append(Return())
    compute_flow(func)
    return func


def run(func):
    program = Program()
    program.add_function(func)
    return Interpreter(program).run().exit_code


PASSES = [
    ("fold_constants", lambda f, t: fold_constants(f)),
    ("local_cse", lambda f, t: local_cse(f, t)),
    ("copy_prop", lambda f, t: propagate_copies(f)),
    ("dead_vars", lambda f, t: eliminate_dead_variables(f)),
    ("combine", lambda f, t: combine(f, t)),
    ("legalize", lambda f, t: legalize(f, t)),
]


class TestPassSemantics:
    @settings(max_examples=60, deadline=None)
    @given(straightline_functions())
    def test_each_pass_preserves_result(self, func):
        reference = run(clone_function(func))
        for target_name in ("m68020", "sparc"):
            target = get_target(target_name)
            for name, apply_pass in PASSES:
                candidate = clone_function(func)
                apply_pass(candidate, target)
                assert run(candidate) == reference, (name, target_name)

    @settings(max_examples=60, deadline=None)
    @given(straightline_functions())
    def test_pass_pipeline_preserves_result(self, func):
        reference = run(clone_function(func))
        for target_name in ("m68020", "sparc"):
            target = get_target(target_name)
            candidate = clone_function(func)
            for _ in range(3):
                changed = False
                changed |= fold_constants(candidate)
                changed |= local_cse(candidate, target)
                changed |= propagate_copies(candidate)
                changed |= legalize(candidate, target)
                changed |= combine(candidate, target)
                changed |= eliminate_dead_variables(candidate)
                if not changed:
                    break
            assert run(candidate) == reference, target_name

    @settings(max_examples=40, deadline=None)
    @given(straightline_functions())
    def test_dead_vars_never_grows_code(self, func):
        candidate = clone_function(func)
        before = candidate.insn_count()
        eliminate_dead_variables(candidate)
        assert candidate.insn_count() <= before

    @settings(max_examples=40, deadline=None)
    @given(straightline_functions())
    def test_legalize_produces_legal_code(self, func):
        for target_name in ("m68020", "sparc"):
            target = get_target(target_name)
            candidate = clone_function(func)
            legalize(candidate, target)
            for insn in candidate.insns():
                assert target.legal(insn)


from repro.opt import Liveness
from repro.opt.liveness import block_use_def
from tests.core.test_random_cfgs import random_functions


class TestLivenessEquations:
    """The dataflow fixpoint equations hold on random CFGs."""

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_liveness_fixpoint(self, data):
        func = data.draw(random_functions())
        liveness = Liveness(func)
        for block in func.blocks:
            # live-out = union of successors' live-in.
            expected_out = set()
            for succ in block.succs:
                expected_out |= liveness.block_live_in(succ)
            assert liveness.block_live_out(block) == expected_out
            # live-in = use ∪ (live-out − def), via the backward walk.
            # walk_backward yields a *shared mutated* set, so copy it.
            walked = None
            for insn, live_after in liveness.walk_backward(block):
                walked = set(live_after)
            # After walking past the first instruction, applying its
            # transfer gives live-in.
            first = block.insns[0]
            live_in = set(walked)
            defined = first.defined_reg()
            if defined is not None:
                live_in.discard(defined)
            live_in |= first.used_regs()
            assert live_in == liveness.block_live_in(block)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_solution_kept_after_edit_matches_fresh_solve(self, data):
        func = data.draw(random_functions())
        liveness = Liveness(func)
        block = data.draw(st.sampled_from(func.blocks))
        body = [i for i, insn in enumerate(block.insns) if insn is not block.terminator]
        if not body:
            return
        before = block_use_def(block)
        del block.insns[data.draw(st.sampled_from(body))]
        if liveness.still_exact_after_edit(block, before):
            fresh = Liveness(func)
            assert fresh.live_in == liveness.live_in
            assert fresh.live_out == liveness.live_out

    def test_edit_verdicts(self):
        from tests.conftest import function_from_text

        func = function_from_text("f", "v[1]=5;\nrv[0]=v[2];\nPC=RT;")
        liveness = Liveness(func)
        (block,) = func.blocks
        before = block_use_def(block)
        del block.insns[0]  # a dead definition: nothing moves
        assert liveness.still_exact_after_edit(block, before)
        before = block_use_def(block)
        del block.insns[0]  # the only use of v[2]: v[2] is no longer live
        assert not liveness.still_exact_after_edit(block, before)

    def test_dropped_use_in_loop_is_not_kept(self):
        # Once v[3]'s only use goes, the stale sets still solve the loop
        # block's equation (v[3] "live" around the back edge), but they
        # are no longer the least solution.
        from tests.conftest import function_from_text

        func = function_from_text(
            "f",
            """
            d[0]=0;
            L1:
              v[2]=v[3];
              d[0]=d[0]+1;
              NZ=d[0]?100;
              PC=NZ<0,L1;
            rv[0]=d[0];
            PC=RT;
            """,
        )
        liveness = Liveness(func)
        loop = next(b for b in func.blocks if b.label == "L1")
        before = block_use_def(loop)
        del loop.insns[0]
        out = liveness.block_live_out(loop)
        assert Reg("v", 3) in out and Reg("v", 3) not in Liveness(func).block_live_out(loop)
        assert not liveness.still_exact_after_edit(loop, before)
