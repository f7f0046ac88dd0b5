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
