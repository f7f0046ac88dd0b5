"""remote_args: engine tasks share Ray's default worker pool when the
repository is already on the job's worker path, and carry a PYTHONPATH
runtime_env only when it is not."""

import os

import pytest

from engine import rayenv


def test_remote_args_default_env_when_repo_on_job_path(monkeypatch):
    monkeypatch.setattr(rayenv, "_job_sys_path", lambda: ["/elsewhere", rayenv.REPO_DIR + os.sep])
    assert rayenv.remote_args() == {"runtime_env": {}}


def test_remote_args_pythonpath_env_otherwise(monkeypatch):
    monkeypatch.setattr(rayenv, "_job_sys_path", lambda: ["/elsewhere"])
    assert rayenv.remote_args() == {"runtime_env": {"env_vars": {"PYTHONPATH": rayenv.REPO_DIR}}}
    monkeypatch.setattr(rayenv, "_job_sys_path", lambda: [])
    assert rayenv.remote_args() == {"runtime_env": {"env_vars": {"PYTHONPATH": rayenv.REPO_DIR}}}


@pytest.mark.usefixtures("ray_session")
def test_remote_args_task_runs_in_the_default_env():
    """The test session runs from the repository root, so Ray already puts
    it on every worker's path: a task submitted with ``remote_args()``
    carries no env_vars and can import the engine."""
    import ray

    def _env():
        import engine.rayenv as env_mod

        return dict(ray.get_runtime_context().runtime_env), env_mod.REPO_DIR

    assert os.path.realpath(rayenv.REPO_DIR) in [os.path.realpath(p) for p in rayenv._job_sys_path()]
    runtime_env, repo = ray.get(ray.remote(**rayenv.remote_args())(_env).remote())
    assert "env_vars" not in runtime_env
    assert os.path.realpath(repo) == os.path.realpath(rayenv.REPO_DIR)


class _Counted:
    """A stateful stage that records how often it was built."""

    built = 0

    def __init__(self, tag, scale=1):
        type(self).built += 1
        self.tag, self.scale, self.seen = tag, scale, 0

    def __call__(self, batch):
        self.seen += 1
        return (self.tag, batch * self.scale, self.seen)


def test_process_stage_one_instance_per_stage(monkeypatch):
    """A ``ProcessStage`` builds its object on the first batch a process
    sees and keeps it for later batches, as a pool actor would; a second
    stage of the same class gets its own object, and a pickled copy (what
    each task receives) finds the same one. Past ``_STAGES_MAX`` stages
    the least recently used object leaves."""
    import pickle

    monkeypatch.setattr(rayenv, "_STAGES", type(rayenv._STAGES)())
    monkeypatch.setattr(_Counted, "built", 0)
    a = rayenv.ProcessStage(_Counted, "a", scale=2)
    assert _Counted.built == 0  # nothing is built on the driver
    assert a(1) == ("a", 2, 1) and a(3) == ("a", 6, 2)
    assert pickle.loads(pickle.dumps(a))(5) == ("a", 10, 3)
    b = rayenv.ProcessStage(_Counted, "b")
    assert b(1) == ("b", 1, 1) and _Counted.built == 2
    for i in range(rayenv._STAGES_MAX):
        rayenv.ProcessStage(_Counted, i)(0)
    assert len(rayenv._STAGES) == rayenv._STAGES_MAX
    assert a(1) == ("a", 2, 1)  # a left first and is rebuilt


@pytest.mark.usefixtures("ray_session")
def test_process_stage_in_a_dataset():
    """A task stage over ``ProcessStage`` (no ``concurrency``, so no
    actor pool) gives the class's output."""
    import pyarrow as pa
    import ray.data

    from engine.textops import QualityScorer

    tbl = pa.table({"doc_id": pa.array([1, 2, 3], type=pa.int64()), "text": ["a b c.", "", "the cat sat"]})
    ds = ray.data.from_arrow(tbl).map_batches(
        rayenv.ProcessStage(QualityScorer), batch_format="pyarrow", **rayenv.remote_args()
    )
    got = pa.concat_tables(ray.get(ds.to_arrow_refs()))
    assert got.equals(QualityScorer()(tbl))
