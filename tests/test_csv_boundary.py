"""The array-native cohort CSV boundary against the per-row oracle.

``_oracles.py`` keeps the row-at-a-time writer, reader and trajectory
builder. The writer must produce the same bytes, the reader the same
trajectories in the same order, or the same ``ValueError`` message on a
corrupted file, and the sampler the same trajectories. Cohorts built
from trajectory objects, valid or not, must give the objects back,
collapse to the same counts and fail validation with the message of
their first invalid patient.
"""

import io
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ttebench.dgp as dgp_mod
from ttebench import (
    UNCLEAR,
    Cohort,
    ScenarioKind,
    Trajectory,
    TrajectoryCounts,
    default_dgp,
    read_cohort_csv,
    sample_cohort,
    validate_trajectory,
    write_cohort_csv,
)

from ._oracles import (
    counts_by_trajectory,
    oracle_counts,
    oracle_read_cohort_csv,
    oracle_trajectories,
    oracle_write_cohort_csv,
)

SCENARIOS = (ScenarioKind.from_code("A"), ScenarioKind.from_code("B"))

cohorts = st.builds(
    lambda kind, n, seed: sample_cohort(default_dgp(kind), kind, n, seed),
    st.sampled_from(SCENARIOS),
    st.integers(min_value=1, max_value=300),
    st.integers(min_value=0, max_value=2**32),
)


@st.composite
def hand_built(draw):
    """A scenario and fresh, unshared trajectory objects, valid or not;
    equal trajectories repeat as separate objects."""
    kind = draw(st.sampled_from(SCENARIOS))
    T = draw(st.integers(min_value=1, max_value=5))
    row = st.tuples(
        st.lists(st.sampled_from((0, 1, UNCLEAR)), min_size=T, max_size=T),
        st.lists(st.sampled_from((0, 1)), min_size=T, max_size=T),
    )
    rows = draw(st.lists(row, min_size=1, max_size=8))
    picks = draw(st.lists(st.sampled_from(rows), min_size=1, max_size=80))
    return kind, tuple(Trajectory(tuple(xs), tuple(ys)) for xs, ys in picks)


#: A scenario and the trajectories of a sampled or a hand-built cohort.
trajectory_sets = st.one_of(
    cohorts.map(lambda c: (c.scenario, c.trajectories)), hand_built()
)

#: Rows (reader) or patients (writer) per step, so that files span
#: several steps.
chunk_sizes = st.sampled_from([1, 5, 64, 1 << 14])


def error_message(fn, *args):
    try:
        fn(*args)
    except ValueError as exc:
        return str(exc)
    return None


def assert_counts_match_trajectories(cohort):
    counts = TrajectoryCounts.from_cohort(cohort)
    assert counts_by_trajectory(counts) == oracle_counts(cohort)


def read_outcome(reader, path, kind):
    try:
        cohort = reader(path, kind)
    except ValueError as exc:
        return ("raised", type(exc), str(exc))
    return ("ok", cohort.trajectories, cohort.scenario, cohort.seed)


def assert_readers_agree(path, kind):
    new = read_outcome(read_cohort_csv, path, kind)
    assert new == read_outcome(oracle_read_cohort_csv, path, kind)
    return new


def data_rows(cohort):
    buf = io.StringIO()
    write_cohort_csv(cohort, buf)
    return [line.split(",") for line in buf.getvalue().splitlines()[1:]]


def write_rows(path, header, rows):
    path.write_text("\n".join(",".join(r) for r in [header] + rows) + "\n")


@given(trajectory_sets, chunk_sizes)
@settings(max_examples=100, deadline=None)
def test_writer_bytes_match_the_oracle(tmp_path_factory, case, chunk):
    kind, trajectories = case
    cohort = Cohort.from_trajectories(trajectories, kind)
    assert oracle_trajectories(cohort.x, cohort.y) == trajectories
    assert cohort.trajectories == trajectories
    assert_counts_match_trajectories(cohort)
    first_error = next(
        filter(None, (error_message(validate_trajectory, t, kind)
                      for t in trajectories)),
        None,
    )
    assert error_message(cohort.validate) == first_error
    tmp = tmp_path_factory.mktemp("write")
    stream = io.StringIO(newline="")
    with mock.patch.object(dgp_mod, "_WRITE_CHUNK", chunk):
        write_cohort_csv(cohort, tmp / "new.csv")
        write_cohort_csv(cohort, stream)
    oracle_write_cohort_csv(cohort, tmp / "oracle.csv")
    assert (tmp / "new.csv").read_bytes() == (tmp / "oracle.csv").read_bytes()
    assert stream.getvalue().encode() == (tmp / "oracle.csv").read_bytes()


@given(
    st.sampled_from(SCENARIOS),
    st.integers(min_value=1, max_value=300),
    st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=60, deadline=None)
def test_sampler_matches_per_row_trajectories(kind, n, seed):
    x, y = dgp_mod._sample_batch(
        default_dgp(kind), kind, n, np.array([seed], dtype=np.uint64)
    )
    expected = oracle_trajectories(x[0], y[0])
    got = sample_cohort(default_dgp(kind), kind, n, seed).trajectories
    assert got == expected
    # Equal trajectories share one object.
    assert len({id(t) for t in got}) == len(set(expected))


@given(cohorts, st.randoms(use_true_random=False), st.data(), chunk_sizes)
@settings(max_examples=80, deadline=None)
def test_reader_matches_the_oracle_on_rewritten_files(
    tmp_path_factory, cohort, rng, data, chunk
):
    """Shuffled rows, arbitrary ids, extra and reordered columns and
    padded ``x`` cells read the same as through the oracle."""
    rows = data_rows(cohort)
    ids = rng.sample(range(-10**6, 10**6), cohort.n)
    rows = [[str(ids[int(pid)]), t, x, y] for pid, t, x, y in rows]
    rng.shuffle(rows)
    if data.draw(st.booleans(), label="pad x"):
        rows = [[pid, t, f" {x} ", y] for pid, t, x, y in rows]
    header = ["id", "period", "x", "y"]
    n_extra = data.draw(st.integers(min_value=0, max_value=2), label="extra")
    header += [f"extra{i}" for i in range(n_extra)]
    rows = [r + [str(rng.randrange(10))] * n_extra for r in rows]
    order = rng.sample(range(len(header)), len(header))
    header = [header[c] for c in order]
    rows = [[r[c] for c in order] for r in rows]
    path = tmp_path_factory.mktemp("read") / "cohort.csv"
    write_rows(path, header, rows)
    with mock.patch.object(dgp_mod, "_READ_CHUNK", chunk):
        outcome = assert_readers_agree(path, cohort.scenario)
    assert outcome[0] == "ok"
    assert sorted(outcome[1], key=repr) == sorted(cohort.trajectories, key=repr)


CORRUPTIONS = (
    "duplicate",
    "drop row",
    "short row",
    "bad x",
    "bad y",
    "resurrect",
    "extra period",
    "swap ids",
)


def corrupt(rows, how, rng):
    rows = [list(r) for r in rows]
    full = [j for j, r in enumerate(rows) if len(r) == 4]
    if not full:
        return rows
    i = rng.choice(full)
    if how == "duplicate":
        rows.insert(rng.randrange(len(rows) + 1), list(rows[i]))
    elif how == "drop row":  # a period gap, or a shorter trajectory
        del rows[i]
    elif how == "short row":
        rows[i] = rows[i][: rng.randrange(1, 4)]
    elif how == "bad x":
        rows[i][2] = rng.choice(["2", "-1", "abc", UNCLEAR, "0", "1", "", "1.5"])
    elif how == "bad y":
        rows[i][3] = rng.choice(["2", "-1", UNCLEAR, "0", "1", "", "x"])
    elif how == "resurrect":
        rows[i][2:] = ["0", "0"]
    elif how == "extra period":  # mixed lengths
        pid = rows[i][0]
        last = max(int(rows[j][1]) for j in full if rows[j][0] == pid)
        rows.append([pid, str(last + 1), UNCLEAR, "1"])
    elif how == "swap ids":
        rows[i][0] = rows[rng.choice(full)][0]
    return rows


@given(
    cohorts,
    st.lists(st.sampled_from(CORRUPTIONS), min_size=1, max_size=3),
    st.randoms(use_true_random=False),
    chunk_sizes,
)
@settings(max_examples=150, deadline=None)
def test_corrupted_files_fail_like_the_oracle(
    tmp_path_factory, cohort, corruptions, rng, chunk
):
    rows = data_rows(cohort)
    for how in corruptions:
        rows = corrupt(rows, how, rng)
    path = tmp_path_factory.mktemp("corrupt") / "cohort.csv"
    write_rows(path, ["id", "period", "x", "y"], rows)
    with mock.patch.object(dgp_mod, "_READ_CHUNK", chunk):
        outcome = assert_readers_agree(path, cohort.scenario)
    if corruptions == ["duplicate"]:
        assert outcome[0] == "raised" and "duplicate row" in outcome[2]
    if corruptions == ["short row"]:
        assert outcome[0] == "raised" and "fields, expected 4" in outcome[2]


@pytest.mark.parametrize(
    "text",
    [
        "id,period,x,y\n",
        "id,period,x,y\n\n\n",
        "x,y,period,id,note\n",
        "id,period,x\n0,1,0\n",
        "",
        "id,period,x,y\n0,1,0,0\n0,1,1,0\n",
        "id,period,x,y\n0,1,0,0\n0,3,0,0\n",
        "id,period,x,y\n0,1,u,0\n",
        "id,period,x,y\n0,1,0\n",
        "id,period,x,y\n0,1,0,0\n\"1\n\",1,0\n",
        "id,period,x,y\n5,1,0,0\n-2,1,1,0\n-2,2,u,1\n",
        "id,period,x,y\n0,1,0,1\n0,2,0,0\n",
        "id,period,x,y\n0,1,u,1\n1,1,0,0\n1,2,0,0\n",
        "id,period,x,y\n0,01,+1,0\n",
        "id,period,x,y\n0,1,0,y\n0,1,0,0\n",
        "id,period,x,y\n0,1,zz,0\n0,1,0,0\n",
        "id,period,x,y\n0,1,0,0\n0,1,zz,0\n",
        "id,period,x,y\n7,1,2,0\n3,1,-1,1\n",
    ],
)
@pytest.mark.parametrize("kind", SCENARIOS)
def test_reader_matches_the_oracle_on_small_files(tmp_path, text, kind):
    path = tmp_path / "cohort.csv"
    path.write_text(text)
    assert_readers_agree(path, kind)


def test_long_horizons_read_like_the_oracle(tmp_path):
    """Horizons whose trajectory code does not fit in 64 bits."""
    rng = random.Random(3)
    kind = SCENARIOS[0]
    T = 64
    trajectories = []
    for _ in range(40):
        death = rng.choice([T + 1, rng.randrange(1, T + 1)])
        xs = tuple(
            rng.choice((0, 1)) if t < death else UNCLEAR for t in range(1, T + 1)
        )
        ys = tuple(int(t >= death) for t in range(1, T + 1))
        trajectories.append(Trajectory(xs, ys))
    trajectories += trajectories[:10]
    cohort = Cohort.from_trajectories(trajectories, kind)
    cohort.validate()
    assert cohort.trajectories == tuple(trajectories)
    assert_counts_match_trajectories(cohort)
    path = tmp_path / "long.csv"
    oracle_write_cohort_csv(cohort, path)
    outcome = assert_readers_agree(path, kind)
    assert outcome[1] == cohort.trajectories


@pytest.mark.parametrize(
    "trajectories, message",
    [
        ([Trajectory((0, 2), (0, 0))], "trajectory cell 2: "),
        ([Trajectory((0,), (0,)), Trajectory(("x",), (0,))], "trajectory cell 'x': "),
        ([Trajectory((0,), (2,))], "trajectory cell 2: "),
        ([Trajectory((0,), (UNCLEAR,))], "trajectory cell 'u': "),
        ([Trajectory((0,), (0,)), Trajectory((0, 0), (0, 0))], "inconsistent lengths"),
        ([Trajectory((0, 0), (0,))], "inconsistent lengths"),
    ],
)
def test_from_trajectories_rejects_what_arrays_cannot_hold(trajectories, message):
    with pytest.raises(ValueError, match=message):
        Cohort.from_trajectories(trajectories, SCENARIOS[0])
