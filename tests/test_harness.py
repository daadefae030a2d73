"""Deterministic generators and the splittable RNG behind them."""

from aggfix.errors import LimitExceeded
from aggfix.evaluate import eval_aggregate_atom
from aggfix.fixpoint import enumerate_answer_sets
from aggfix.harness import GenParams, SplitMix64, generate_program, generate_scp_instance, mix64
from aggfix.solutions import is_solution, is_solution_oracle
from aggfix.syntax import (
    atom_universe,
    ground_program,
    herbrand_base,
    parse_program,
    render_program,
)

# Reference outputs of the documented SplitMix64 scheme.  These pin the
# exact constants: regenerated corpora stay byte-identical across
# platforms and implementations.
SEED0_STREAM = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)
SEED42_FIRST = 0xBDD732262FEB6E95


def test_splitmix_reference_stream():
    rng = SplitMix64(0)
    assert tuple(rng.next_u64() for _ in range(3)) == SEED0_STREAM
    assert SplitMix64(42).next_u64() == SEED42_FIRST
    assert mix64(0x9E3779B97F4A7C15) == SEED0_STREAM[0]


def test_splitmix_below_and_randint():
    rng = SplitMix64(0)
    values = [rng.below(7) for _ in range(100)]
    assert all(0 <= v < 7 for v in values)
    replay = SplitMix64(0)
    assert values == [replay.below(7) for _ in range(100)]
    rng = SplitMix64(5)
    assert all(-3 <= rng.randint(-3, 4) <= 4 for _ in range(100))


def test_splitmix_split_is_independent():
    parent = SplitMix64(0)
    child = parent.split()
    assert child.next_u64() == 0xA706DD2F4D197E6F
    # the parent stream continues unharmed past the split draw
    assert parent.next_u64() == SEED0_STREAM[1]


def test_generate_program_deterministic():
    a = generate_program(GenParams(7))
    b = generate_program(GenParams(7))
    assert a == b
    assert generate_program(GenParams(0)) != generate_program(GenParams(1))


def test_generate_program_round_trips():
    for seed in range(200, 360):
        p = generate_program(GenParams(seed))
        assert parse_program(render_program(p)) == p, f"seed {seed}"


def test_generate_without_aggregates_is_normal():
    for seed in range(40):
        p = generate_program(GenParams(seed, aggregate_permille=0))
        assert all(not r.agg for r in p.rules)


def test_generate_no_rules_is_empty():
    p = generate_program(GenParams(3, num_rules=0))
    assert p.rules == ()


def test_default_scale_stays_desk_sized():
    for seed in range(200):
        p = generate_program(GenParams(seed))
        assert len(herbrand_base(p)) <= 16


def test_coverage_steering():
    # The default knobs must produce both contradiction-free programs
    # with several answer sets and programs with none, early in the
    # seed sequence, so differential sweeps are never vacuous.
    found_multi = found_none = False
    for seed in range(1000):
        p = ground_program(generate_program(GenParams(seed)))
        answers = enumerate_answer_sets(p)
        found_multi = found_multi or len(answers) >= 2
        found_none = found_none or not answers
        if found_multi and found_none:
            break
    assert found_multi and found_none


def test_scp_instances_deterministic_and_well_formed():
    for seed in range(150):
        inst = generate_scp_instance(GenParams(seed))
        again = generate_scp_instance(GenParams(seed))
        assert inst == again
        universe = frozenset(atom_universe(inst.atom, inst.program))
        assert inst.pair.p | inst.pair.n <= universe
        assert not (inst.pair.p & inst.pair.n)


def test_scp_instances_cover_degenerate_shapes():
    saw_empty_universe = saw_no_free = False
    for seed in range(400):
        inst = generate_scp_instance(GenParams(seed))
        universe = frozenset(atom_universe(inst.atom, inst.program))
        if not universe:
            saw_empty_universe = True
        if universe and inst.pair.p | inst.pair.n == universe:
            saw_no_free = True
            # with no free atoms the check collapses to direct evaluation
            assert is_solution(inst.atom, inst.pair, inst.program) == \
                eval_aggregate_atom(inst.atom, inst.pair.p, inst.program)
    assert saw_empty_universe and saw_no_free


def test_scp_instances_agree_with_oracle():
    for seed in range(300):
        inst = generate_scp_instance(GenParams(seed))
        try:
            fast = is_solution(inst.atom, inst.pair, inst.program)
            slow = is_solution_oracle(inst.atom, inst.pair, inst.program)
        except LimitExceeded:
            continue
        assert fast == slow, f"seed {seed}"


def test_program_index_is_built_on_first_engine_use():
    program = generate_program(GenParams(3))
    render_program(program)
    assert "index" not in vars(program)
    enumerate_answer_sets(program)
    assert "index" in vars(program)
