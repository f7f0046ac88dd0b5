"""Worker-environment plumbing.

Ray puts the driver's working directory and script directory on every
worker's sys.path (the job config's ``py_driver_sys_path``), so a driver
started from the repository needs nothing more: ``remote_args()`` then
gives engine tasks the default runtime_env, and they run in Ray's default
worker pool beside Ray Data's own tasks. A driver started elsewhere would
leave ``engine`` unimportable in workers; for it ``remote_args()`` adds a
PYTHONPATH runtime_env, which Ray serves from a worker pool of its own.
Every engine stage passes ``**remote_args()`` to map_batches /
map_groups / @ray.remote.
"""

from __future__ import annotations

import os
import uuid
from collections import OrderedDict

REPO_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _job_sys_path() -> list[str]:
    """The paths Ray adds to every worker's sys.path for the current job
    (its job config's ``py_driver_sys_path``); [] outside a Ray session.
    Read from the live session on every call: each session has its own."""
    import ray

    if not ray.is_initialized():
        return []
    from ray._private.worker import global_worker

    return list(global_worker.core_worker.get_job_config().py_driver_sys_path)


def remote_args() -> dict:
    """Ray remote options for an engine task: the default runtime_env when
    the repository is already on the job's worker path (``{}`` rather
    than no options: ``ray.remote()`` rejects an empty call), else a
    PYTHONPATH env that makes ``engine`` importable in every worker."""
    repo = os.path.realpath(REPO_DIR)
    if any(os.path.realpath(p) == repo for p in _job_sys_path()):
        return {"runtime_env": {}}
    return {"runtime_env": {"env_vars": {"PYTHONPATH": REPO_DIR}}}


class ProcessStage:
    """A stateful ``map_batches`` stage run as tasks: ``__call__`` feeds
    each batch to one ``cls(*args, **kwargs)`` per worker process, built
    on that process's first batch of the stage and kept for its later
    ones, as an actor pool's actor would be. The arguments ride in this
    object, which Ray Data stores once for the stage. An actor pool
    would take them as constructor arguments beside the location-tracker
    handle that Ray Data passes every pool actor, so with the pool's
    default restarts Ray logs that a restarted actor could not be
    rebuilt (once per driver process); a failed task is retried
    instead."""

    def __init__(self, cls, *args, **kwargs):
        self.cls, self.args, self.kwargs = cls, args, kwargs
        self.key = uuid.uuid4().hex  # one instance per stage and process

    def __call__(self, batch):
        inst = _STAGES.get(self.key)
        if inst is None:
            inst = _STAGES[self.key] = self.cls(*self.args, **self.kwargs)
            if len(_STAGES) > _STAGES_MAX:
                _STAGES.popitem(last=False)
        else:
            _STAGES.move_to_end(self.key)
        return inst(batch)


# this process's stage instances, least recently used first: a
# long-lived worker keeps the last few stages' state, not every stage's
_STAGES_MAX = 8
_STAGES: OrderedDict = OrderedDict()


def read_parquet_clean(paths, columns=None, **kwargs):
    """ray.data.read_parquet with the pandas metadata STRIPPED from the
    schema. Pandas-written parquet carries b'pandas' schema metadata that
    makes pa.Schema unhashable (hash -> dict), so every multi-block batch
    concat in a worker logs 'Failed to hash the schemas (for
    deduplication)'. Passing an explicit metadata-free schema keeps block
    schemas clean (and hashable) end-to-end."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    first = paths[0] if isinstance(paths, (list, tuple)) else paths
    full = pq.read_schema(first).remove_metadata()
    schema = pa.schema([full.field(c) for c in columns]) if columns else full
    return ray.data.read_parquet(paths, columns=columns, schema=schema, **kwargs)
