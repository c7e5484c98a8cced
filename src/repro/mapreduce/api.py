"""The user-facing MapReduce programming model.

This is the API the course's first assignment exercises *without any
cluster at all* — "develop and test MapReduce code on the standard Linux
command line interface without using a supporting HDFS/MapReduce
infrastructure" — and the second assignment reruns unchanged over HDFS.

A job is a :class:`Mapper` (required), an optional :class:`Reducer`, an
optional combiner (usually the reducer itself, or a custom class), and a
:class:`~repro.mapreduce.config.JobConf`.  User code interacts with the
framework only through the :class:`Context`.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from repro.mapreduce.config import JobConf
from repro.mapreduce.counters import Counters
from repro.mapreduce.inputformat import MapInput
from repro.mapreduce.types import Writable, wrap
from repro.util.errors import MapReduceError


class Context:
    """What the framework hands to ``setup``/``map``/``reduce``/``cleanup``.

    Notable teaching hooks:

    - :meth:`read_side_file` — stream an auxiliary file *every call*
      (the inefficient pattern the movie-genre assignment punishes);
    - :meth:`cached_side_file` — read once per node and reuse (the
      "Java object that reads the additional file once and stores the
      content in memory" pattern that is an order of magnitude faster);
    - :attr:`node_cache` — per-node shared memory surviving across tasks
      on the same TaskTracker, used by the third airline-delay variant
      ("global memory on each node to implement a combining mechanism
      without implementing a combiner class").
    """

    def __init__(
        self,
        conf: JobConf,
        counters: Counters,
        side_reader: Callable[[str], tuple[str, float]] | None = None,
        node_cache: dict[str, Any] | None = None,
        task_node: str | None = None,
        input_path: str | None = None,
    ):
        self.conf = conf
        self.counters = counters
        self.node_cache = node_cache if node_cache is not None else {}
        self.task_node = task_node
        #: The HDFS path of the split a map task is reading, None in
        #: reduce tasks.  Multi-input jobs (the sparklite/Hive planners'
        #: tagged-union joins) use it to pick the per-source mapper
        #: behaviour, like Hadoop's MultipleInputs/TaggedInputSplit.
        self.input_path = input_path
        self._side_reader = side_reader
        #: The emitted keys and values, as emitted (see :meth:`write`).
        self._keys: list = []
        self._values: list = []
        #: Simulated seconds of extra I/O charged by user-code helpers
        #: (side-file reads); folded into the task's duration.
        self.extra_time = 0.0

    # -- emission --------------------------------------------------------
    def write(self, key: Any, value: Any) -> None:
        """Emit one key/value pair.

        Plain ``str``/``int``/``float``/``None`` is the cheap path: a map
        attempt types its output once per column and builds a Writable
        per distinct key, not per record.  Writable instances stay
        supported (and are kept as emitted).  Anything else fails the
        attempt with :class:`~repro.util.errors.InvalidWritableError`
        when its output is drained, not here.
        """
        self._keys.append(key)
        self._values.append(value)

    def drain(self) -> list[tuple[Writable, Writable]]:
        """Everything emitted so far as Writable pairs, in emission order
        (plain values wrapped); the buffer starts afresh."""
        keys, values = self.drain_columns()
        return list(zip(map(wrap, keys), map(wrap, values)))

    def drain_columns(self) -> tuple[list, list]:
        """Everything emitted so far as ``(keys, values)``, as emitted;
        the buffer starts afresh."""
        keys, values = self._keys, self._values
        self._keys, self._values = [], []
        return keys, values

    # -- configuration & counters ----------------------------------------
    def get(self, param: str, default: Any = None) -> Any:
        """Read a job parameter (``JobConf.params``)."""
        return self.conf.params.get(param, default)

    def increment(self, counter: tuple[str, str], amount: int = 1) -> None:
        self.counters.increment(counter, amount)

    # -- side files --------------------------------------------------------
    def read_side_file(self, path: str) -> str:
        """Read an auxiliary file, paying full streaming cost this call."""
        if self._side_reader is None:
            raise MapReduceError(
                "no side-file reader configured for this job/runner"
            )
        text, elapsed = self._side_reader(path)
        self.extra_time += elapsed
        return text

    def cached_side_file(self, path: str) -> str:
        """Read an auxiliary file once per node, then serve from memory."""
        key = f"sidefile:{path}"
        if key not in self.node_cache:
            self.node_cache[key] = self.read_side_file(path)
        return self.node_cache[key]


class Mapper:
    """Override :meth:`map`; optionally :meth:`setup`/:meth:`cleanup`.

    Advanced users may override :meth:`run` instead, Hadoop's per-split
    loop, to consume the whole split in one call.

    Emit plain ``str``/``int``/``float``/``None`` where you can
    (``context.write(word, 1)``): that is the cheap path.  Writable
    instances (``Text(word)``, a ``record_writable`` value) work too.
    """

    def run(self, split: MapInput, context: Context) -> None:
        """The map attempt: ``setup``, ``map`` per record, ``cleanup``
        (Hadoop's ``Mapper.run``).  The runtime calls it once per
        attempt.

        An override that never reads the key can loop over
        ``split.lines()`` instead of the ``(key, value)`` records and
        skip a Writable pair per line.
        """
        self.setup(context)
        map_record = self.map
        for key, value in split:
            map_record(key, value, context)
        self.cleanup(context)

    def setup(self, context: Context) -> None:  # noqa: B027 - optional hook
        pass

    def map(self, key: Writable, value: Writable, context: Context) -> None:
        raise NotImplementedError

    def cleanup(self, context: Context) -> None:  # noqa: B027 - optional hook
        pass


class Reducer:
    """Override :meth:`reduce`; optionally :meth:`setup`/:meth:`cleanup`.

    Also the contract for combiners.  A combiner must be a *monoid*
    (associative, emits the same key) for the job's answer to be
    independent of how many times it runs — the property Lin's
    "Monoidify!" reading assigns, and which the property-based tests in
    this repository check mechanically.
    """

    def setup(self, context: Context) -> None:  # noqa: B027 - optional hook
        pass

    def reduce(
        self, key: Writable, values: Iterable[Writable], context: Context
    ) -> None:
        raise NotImplementedError

    def cleanup(self, context: Context) -> None:  # noqa: B027 - optional hook
        pass


class Job:
    """A runnable MapReduce program: classes + configuration.

    Subclass and set the class attributes (the style of the course's
    ``main()``-with-``JobConf`` Java skeletons)::

        class WordCountJob(Job):
            mapper = TokenizerMapper
            reducer = SumReducer
            combiner = SumReducer
    """

    mapper: type[Mapper] | None = None
    reducer: type[Reducer] | None = None
    combiner: type[Reducer] | None = None
    #: Partitioner instance or None for the default hash partitioner.
    partitioner = None
    #: Input format class; None means TextInputFormat.
    input_format = None
    #: Declare True when the job's tasks read or mutate state shared
    #: across tasks — ``Context.node_cache``, ``read_side_file`` /
    #: ``cached_side_file`` — so the job is placed inline (serial
    #: semantics) at submission instead of on the pool, where
    #: per-node shared state and side-file cost accounting would not be
    #: reproduced bit-identically.  Side-file readers are simply absent
    #: on the pool, so an undeclared job fails loudly, not subtly.
    shares_node_state: bool = False

    def __init__(self, conf: JobConf | None = None, **params: Any):
        if self.mapper is None:
            raise MapReduceError(f"{type(self).__name__} defines no mapper")
        self.conf = conf or JobConf(name=type(self).__name__)
        self.conf.params.update(params)

    @property
    def name(self) -> str:
        return self.conf.name

    def describe(self) -> str:
        pieces = [f"mapper={self.mapper.__name__}"]
        if self.combiner is not None:
            pieces.append(f"combiner={self.combiner.__name__}")
        if self.reducer is not None:
            pieces.append(f"reducer={self.reducer.__name__}")
        pieces.append(f"reduces={self.conf.num_reduces}")
        return f"{self.name}({', '.join(pieces)})"
