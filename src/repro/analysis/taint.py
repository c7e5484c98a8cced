"""Purity/nondeterminism taint: the lattice under mrlint 2.0.

PR 3's rules matched call names inside one function body.  This module
tracks *where nondeterminism enters and how it travels*:

- **Sources** — unseeded RNG draws (``random.random`` and friends, on
  the module RNG or an unseeded ``random.Random()``/``SystemRandom``
  instance), wall-clock reads (``time.*``, ``datetime.now``), entropy
  (``os.urandom``, ``uuid.uuid1/4``), address-space leaks (``id()``,
  builtin ``hash()``), and hash-order iteration over ``set``/``dict``.
- **Sanitizers** — seeding from job configuration (``random.Random(x)``
  or ``random.seed(x)`` with a deterministic ``x``, e.g. a JobConf
  value) makes the RNG's stream replayable, so draws from it are
  *clean*; ``sorted(...)`` and order-insensitive aggregates
  (``sum``/``min``/``max``/``any``/``all``/``len``/``set``) erase
  hash-order taint.
- **Propagation** — flow-sensitively through local assignments (one
  walk over the function's own statements), through ``self.<attr>``
  fields (joined across a class's methods, so ``setup()`` seeding is
  visible from ``map()``), and
  *interprocedurally* through the module call graph: every function
  gets a :class:`Summary` of the nondeterministic effects running it
  causes — unconditionally, or conditionally on what a caller passes
  for a parameter — and call sites splice callee summaries in with the
  call chain preserved for diagnostics.

The walk interprets a statement list in source order: both arms of an
``if`` are joined, a loop body repeats until the loop head's
environment stops changing, and code after ``return`` / ``raise`` /
``break`` / ``continue`` is never analysed.  A ``try`` handler is
entered from the state at the end of every straight-line run of the
body, because any statement in it may raise.  Source order and
insertion-ordered dicts make the result independent of the hash seed.
Evaluation is monotone — more taint in never means less taint out — so
the order statements are visited in cannot change a finding either.

Rules consume the result through :class:`ModuleTaint`: MRJ001 asks for
a task method's effects, MRS201/MRH301 ask for a closure's, MRH303 asks
for the *value* taint of an expression interpolated into SQL.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field, replace
from functools import cached_property

from repro.analysis.callgraph import CallGraph, FunctionInfo, Scope

# --------------------------------------------------------------------------
# taint tags

#: Nondeterministic *call* kinds (an effect happened when control passed
#: the site).
KIND_RANDOM = "random"
KIND_TIME = "time"
KIND_ENTROPY = "entropy"
KIND_ADDRESS = "address"
#: A *value* whose ordering/content depends on hash iteration order.
KIND_HASH_ORDER = "hash-order"

#: Kinds that make re-executed task attempts diverge (MRJ001's gate).
EFFECT_KINDS = frozenset(
    {KIND_RANDOM, KIND_TIME, KIND_ENTROPY, KIND_ADDRESS}
)

#: Object-shape tag for an RNG instance nobody seeded.
TAG_RNG_UNSEEDED = "rng-unseeded"

_PARAM = "param:{}"  # value IS parameter i (identity flow)
_PARAM_DRAW = "param-draw:{}"  # value drawn from parameter i's RNG
_PARAM_RE = re.compile(r"^param(?:-draw)?:(\d+)$")


#: Dotted suffixes that are nondeterministic sources, with their kind.
#: Matched like PR 3 did — exact dotted name or ``.``-suffix — so
#: aliased module imports still hit.
NONDET_CALLS: dict[str, str] = {
    "os.urandom": KIND_ENTROPY,
    "uuid.uuid1": KIND_ENTROPY,
    "uuid.uuid4": KIND_ENTROPY,
    "time.time": KIND_TIME,
    "time.time_ns": KIND_TIME,
    "time.monotonic": KIND_TIME,
    "time.monotonic_ns": KIND_TIME,
    "time.perf_counter": KIND_TIME,
    "time.perf_counter_ns": KIND_TIME,
    "datetime.now": KIND_TIME,
    "datetime.utcnow": KIND_TIME,
    "datetime.today": KIND_TIME,
    "date.today": KIND_TIME,
}

#: Draw methods on RNG objects (and the ``random`` module itself).
RNG_DRAW_METHODS = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "choice",
        "choices",
        "sample",
        "shuffle",
        "uniform",
        "triangular",
        "gauss",
        "normalvariate",
        "lognormvariate",
        "expovariate",
        "betavariate",
        "gammavariate",
        "paretovariate",
        "vonmisesvariate",
        "weibullvariate",
        "getrandbits",
        "randbytes",
    }
)

#: Builtins whose *call* is an address/hash-seed leak.
ADDRESS_BUILTINS = frozenset({"id", "hash"})

#: Builtins that consume an iterable order-insensitively: feeding a
#: hash-ordered collection through them yields a deterministic value.
ORDER_INSENSITIVE_AGGREGATES = frozenset(
    {"sum", "len", "any", "all", "min", "max", "set", "frozenset", "sorted"}
)

#: Builtins that *freeze* iteration order into their result.
ORDER_PRESERVING = frozenset({"list", "tuple", "iter", "reversed", "enumerate"})


def dotted_name(node: ast.expr) -> str | None:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def own_expressions(stmt: ast.AST) -> list[ast.expr]:
    """The expressions a statement evaluates itself: a compound
    statement's (or ``except`` clause's) header, never a nested body."""
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items]
    children = ast.iter_child_nodes(stmt)
    return [child for child in children if isinstance(child, ast.expr)]


def _suffix_lookup(name: str, table: dict[str, str]) -> str | None:
    for suffix, kind in table.items():
        if name == suffix or name.endswith("." + suffix):
            return kind
    return None


# --------------------------------------------------------------------------
# set-typedness inference (shared with the MRE101 rule)


_SET_ANNOTATION = re.compile(r"\b(set|frozenset|Set|AbstractSet|MutableSet)\b")


def annotation_text(annotation: ast.expr | None) -> str:
    """An annotation's source text; empty when there is none."""
    return "" if annotation is None else ast.unparse(annotation)


def is_set_annotation(annotation: ast.expr | None) -> bool:
    return bool(_SET_ANNOTATION.search(annotation_text(annotation)))


def is_set_literalish(node: ast.expr) -> bool:
    """A value expression that is statically a set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    ):
        return True
    return False


def _holds_set(bound: list[tuple]) -> bool:
    """Is one of these ``(value, annotation)`` bindings a set?"""
    return any(
        is_set_annotation(annotation) or is_set_literalish(value)
        for value, annotation in bound
    )


class SetTypes:
    """Module-wide syntactic inference of set-typed names/attributes.

    Grown from PR 3's ``engine_rules._SetTypes`` — now shared by the
    taint engine (hash-order sources) and MRE101.
    """

    def __init__(self, graph: CallGraph):
        #: Attribute names declared set-typed somewhere in this module
        #: (class annotations or ``self.x = set()``); any ``expr.<name>``
        #: access is then treated as a set.
        self.attr_names: set[str] = {
            name
            for scope in graph.scope.walk()
            if isinstance(scope.node, ast.ClassDef)
            for name, bound in scope.bindings.items()
            if any(is_set_annotation(annotation) for _, annotation in bound)
        }
        self.attr_names |= {
            attr for attr, bound in graph.self_attrs.items() if _holds_set(bound)
        }

    def local_sets(self, scope: Scope) -> set[str]:
        """Names bound to a set in ``scope`` or in any scope nested in
        it: set-annotated parameters and names, set-valued assignments."""
        return {
            name
            for inner in scope.walk()
            for name, bound in inner.bindings.items()
            if _holds_set(bound)
        }

    def is_set_expr(self, node: ast.expr, local: set[str]) -> bool:
        if is_set_literalish(node):
            return True
        if isinstance(node, ast.Name):
            return node.id in local
        if isinstance(node, ast.Attribute):
            return node.attr in self.attr_names
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self.is_set_expr(node.left, local) or self.is_set_expr(
                node.right, local
            )
        return False


def order_insensitive_generator_iters(tree: ast.AST) -> set[int]:
    """ids of generator ``iter`` expressions consumed order-insensitively.

    A comprehension/generator that is the *sole* argument of an
    order-insensitive aggregate (``sum(1 for d in dns if live(d))``,
    ``any(... for d in s)``, ``sorted(x for x in s)``) visits its
    iterable in hash order, but the aggregate's value provably does not
    depend on that order — the dataflow fact that lets MRE101 pass the
    NameNode's replication arithmetic without suppressions.
    """
    sinks: set[int] = set()
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ORDER_INSENSITIVE_AGGREGATES
            and len(node.args) == 1
            and not any(kw.arg == "key" for kw in node.keywords)
        ):
            continue
        arg = node.args[0]
        if isinstance(arg, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
            for gen in arg.generators:
                sinks.add(id(gen.iter))
        else:
            sinks.add(id(arg))
    return sinks


# --------------------------------------------------------------------------
# function summaries


@dataclass(frozen=True)
class Effect:
    """One nondeterministic effect of running a function.

    ``site`` is a node *inside the summarised function* (for transitive
    effects: the local call that leads there).  ``chain`` spells the
    path for diagnostics — ``("noise", "random.random")`` reads as
    "calls noise() → random.random()".  ``param`` marks conditional
    effects: the effect only happens when argument ``param`` is an
    unseeded RNG.  ``module_rng`` marks draws on the shared ``random``
    module RNG, which a ``random.seed(...)`` in ``setup()`` tames.
    """

    kind: str
    site: ast.AST
    chain: tuple[str, ...]
    param: int | None = None
    module_rng: bool = False

    def render_chain(self) -> str:
        return " → ".join(f"{part}()" for part in self.chain)


@dataclass
class Summary:
    """What calling a function does, nondeterminism-wise."""

    effects: list[Effect] = field(default_factory=list)
    #: Taint tags of the return value (may include param markers).
    returns: frozenset = frozenset()
    #: Does any method body call ``random.seed(<deterministic>)``?
    seeds_module_rng: bool = False

    def key(self):
        return (tuple(self.effects), self.returns, self.seeds_module_rng)


_EMPTY = frozenset()
#: The tag of an attribute key some joined path never assigned: there
#: it still holds what it held before the function ran.
_UNASSIGNED = frozenset({"unassigned"})


class ModuleTaint:
    """Taint analysis of one module: call graph + per-function summaries
    + per-class attribute taint, iterated to a fixpoint.

    The scope table (:attr:`graph`) and the syntactic facts
    (:attr:`set_types`, :attr:`order_sinks`) are built up front; the
    fixpoint only on first use, so a rule family that reads none of it
    (the engine's) pays for none of it.
    """

    def __init__(self, tree: ast.Module):
        self.tree = tree
        self.graph = CallGraph(tree)
        self.set_types = SetTypes(self.graph)
        self.order_sinks = order_insensitive_generator_iters(tree)
        self._summaries: dict[FunctionInfo, Summary] | None = None

    @property
    def attr_taint(self) -> dict[tuple[ast.ClassDef, str], frozenset]:
        """(class, attr) -> taint tags, joined over every
        ``self.attr = ...`` in the code of the class's methods."""
        self._solve()
        return self._attr_taint

    @property
    def rng_seeding_classes(self) -> set[ast.ClassDef]:
        """The classes whose setup()/__init__ seeds the module RNG."""
        self._solve()
        return self._rng_seeding_classes

    # ------------------------------------------------------------------
    def summary(self, info: FunctionInfo) -> Summary:
        self._solve()
        return self._summaries.get(info, Summary())

    def effects_of(self, info: FunctionInfo) -> list[Effect]:
        """Unconditional nondeterministic effects of calling ``info``,
        with class-level sanitisation (module-RNG seeding) applied."""
        out = []
        seeded = self.graph.self_class(info) in self.rng_seeding_classes
        for effect in self.summary(info).effects:
            if effect.param is not None:
                continue
            if effect.module_rng and seeded:
                continue
            out.append(effect)
        return out

    def analysis_for(self, info: FunctionInfo) -> "_FunctionAnalysis":
        """A fresh intraprocedural pass over ``info`` for rules needing
        per-statement environments (:meth:`_FunctionAnalysis.statement_envs`)."""
        return _FunctionAnalysis(self, info)

    # ------------------------------------------------------------------
    def _solve(self) -> None:
        if self._summaries is not None:
            return  # solved, or solving: the fixpoint reads its own state
        self._summaries = {info: Summary() for info in self.graph.functions}
        self._attr_taint: dict[tuple[ast.ClassDef, str], frozenset] = {}
        # Monotone summaries: iterate until stable.  Chain lengths are
        # capped by the visited-set inside effect splicing, so this
        # terminates even on recursion.
        for _round in range(len(self.graph.functions) + 2):
            changed = False
            for info in self.graph.functions:
                summary = self.analysis_for(info).run()
                if summary.key() != self._summaries[info].key():
                    self._summaries[info] = summary
                    changed = True
            if not changed:
                break
        # Read off the settled summaries: a seed that looked clean on an
        # early round may be tainted once attribute taint has grown.
        self._rng_seeding_classes = {
            info.klass
            for info, summary in self._summaries.items()
            if info.klass is not None
            and info.name in ("setup", "__init__")
            and summary.seeds_module_rng
        }


class _FunctionAnalysis:
    """Flow-sensitive intraprocedural pass: one walk over the statements
    of a function (or, for ``info is None``, of the module body)."""

    def __init__(self, module: ModuleTaint, info: FunctionInfo | None):
        self.module = module
        self.info = info
        self.effects: list[Effect] = []
        self._recorded: set[Effect] = set()
        self.returns: set = set()
        #: id(random.seed call) -> was its seed clean on every visit?
        self._seeds: dict[int, bool] = {}
        #: id(stmt) -> (stmt, env before it), kept by statement_envs().
        self._envs: dict | None = None
        #: States the current straight-line run flows into when it ends:
        #: an enclosing ``try``'s handlers, or its ``finally``.
        self._open: dict[int, list] = {}
        #: The innermost ``try`` body's handler-entry states.
        self._handlers: list[list] = []
        #: (break states, continue states) of each enclosing loop.
        self._loops: list[tuple[list, list]] = []

    # ------------------------------------------------------------------
    def _initial_env(self) -> dict[str, frozenset]:
        env: dict[str, frozenset] = {}
        if self.info is not None:
            params = self.info.params
            start = 0
            if self.info.klass and params and params[0] in ("self", "cls"):
                start = 1
            for index, param in enumerate(params[start:], start=start):
                env[param] = frozenset({_PARAM.format(index - start)})
        return env

    def _body(self) -> list[ast.stmt]:
        if self.info is None:
            return self.module.tree.body
        node = self.info.node
        if isinstance(node, ast.Lambda):
            return [ast.copy_location(ast.Expr(value=node.body), node.body)]
        return node.body

    def run(self) -> Summary:
        self._walk(self._body(), self._initial_env())
        return Summary(
            effects=self.effects,
            returns=frozenset(self.returns),
            seeds_module_rng=any(self._seeds.values()),
        )

    def statement_envs(self) -> list[tuple[ast.AST, dict[str, frozenset]]]:
        """``(stmt, env before it)`` for every reachable statement
        (compound statements and ``except`` clauses stand for their
        headers), in source order."""
        self._envs = {}
        self._walk(self._body(), self._initial_env())
        return list(self._envs.values())

    @staticmethod
    def _join(states: list[dict]) -> dict:
        merged: dict[str, frozenset] = {}
        for state in states:
            for name, tags in state.items():
                merged[name] = merged.get(name, _EMPTY) | tags
        # An attribute some path left alone may still hold its old value.
        for name in merged:
            if "." in name and any(name not in state for state in states):
                merged[name] |= _UNASSIGNED
        return merged

    # ------------------------------------------------------------------
    # the walk
    def _walk(self, body: list[ast.stmt], env: dict) -> dict | None:
        """Interpret ``body`` in source order from ``env``; the env that
        falls out, or None once every path has left."""
        for stmt in body:
            self._note(stmt, env)
            env = self._step(stmt, env)
            if env is None:
                return None  # the rest of the body is unreachable
        return env

    def _note(self, node: ast.AST, env: dict) -> None:
        if self._envs is not None:
            self._envs[id(node)] = (node, dict(env))

    def _end_run(self, env: dict) -> None:
        """A straight-line run ends: its state reaches every handler or
        ``finally`` that one of its statements could jump to."""
        for states in self._open.values():
            states.append(dict(env))
        self._open = {}

    def _arm(self, body: list[ast.stmt], env: dict) -> dict | None:
        """Walk a nested body from a copy of ``env`` as its own run."""
        out = self._walk(body, dict(env))
        if out is not None:
            self._end_run(out)
        return out

    def _step(self, stmt: ast.stmt, env: dict) -> dict | None:
        if isinstance(stmt, ast.If):
            self._statement(stmt, env)
            self._end_run(env)
            arms = [self._arm(stmt.body, env)]
            arms.append(self._arm(stmt.orelse, env) if stmt.orelse else env)
            live = [arm for arm in arms if arm is not None]
            return self._join(live) if live else None
        if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
            return self._loop(stmt, env)
        if isinstance(stmt, (ast.Try, getattr(ast, "TryStar", ast.Try))):
            return self._try(stmt, env)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            self._statement(stmt, env)
            return self._walk(stmt.body, env)
        if isinstance(stmt, (ast.Break, ast.Continue)):
            self._end_run(env)
            if self._loops:
                exits = self._loops[-1][isinstance(stmt, ast.Continue)]
                exits.append(dict(env))
            return None
        # A plain statement, or return/raise: inside a try body, it may
        # raise into the innermost handlers.
        self._statement(stmt, env)
        if self._handlers:
            self._open[id(self._handlers[-1])] = self._handlers[-1]
        if isinstance(stmt, (ast.Return, ast.Raise)):
            self._end_run(env)
            return None
        return env

    def _loop(self, stmt, env: dict) -> dict | None:
        self._end_run(env)
        head = env
        while True:
            self._note(stmt, head)
            top = dict(head)
            self._statement(stmt, top)  # the test, or iter + target
            breaks: list[dict] = []
            continues: list[dict] = []
            self._loops.append((breaks, continues))
            tail = self._arm(stmt.body, top)
            self._loops.pop()
            back = [head, *continues] + ([tail] if tail is not None else [])
            new_head = self._join(back)
            if new_head == head:
                break
            head = new_head
        if stmt.orelse:
            top = self._arm(stmt.orelse, top)
        exits = breaks + ([top] if top is not None else [])
        return self._join(exits) if exits else None

    def _try(self, stmt, env: dict) -> dict | None:
        entry: list[dict] = []  # the run this try starts in, for finally
        if stmt.finalbody:
            self._open[id(entry)] = entry
        handler_entry: list[dict] = []
        self._handlers.append(handler_entry)
        body = self._walk(stmt.body, env)
        self._handlers.pop()
        if body is not None and stmt.orelse:
            body = self._walk(stmt.orelse, body)
        tails = []
        if body is not None:
            self._end_run(body)
            tails.append(body)
        if handler_entry:
            start = self._join(handler_entry)
            for handler in stmt.handlers:
                self._note(handler, start)
                state = dict(start)
                self._statement(handler, state)  # the exception type
                tail = self._arm(handler.body, state)
                if tail is not None:
                    tails.append(tail)
        if stmt.finalbody:
            # finally runs after every normal exit; when every path has
            # left, it still runs, from the try's first run.
            return self._walk(stmt.finalbody, self._join(tails or entry))
        return self._join(tails) if tails else None

    # ------------------------------------------------------------------
    # statements
    def _statement(self, stmt: ast.AST, env: dict) -> None:
        """Evaluate one statement; a compound statement or ``except``
        clause evaluates only its own header."""
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # analysed as their own functions
        if isinstance(stmt, ast.Assign):
            taint = self.eval_taint(stmt.value, env)
            for target in stmt.targets:
                self._bind_target(target, taint, env)
            return
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                taint = self.eval_taint(stmt.value, env)
                self._bind_target(stmt.target, taint, env)
            return
        if isinstance(stmt, ast.AugAssign):
            taint = self.eval_taint(stmt.value, env)
            existing = self.eval_taint(stmt.target, env, record=False)
            self._bind_target(stmt.target, taint | existing, env)
            return
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.returns |= self.eval_taint(stmt.value, env)
            return
        for expr in own_expressions(stmt):
            self.eval_taint(expr, env)
        # For-loop targets: hash-order taints the loop variable's
        # *sequence*; the element is deterministic content-wise, so the
        # target itself stays clean unless iterating tainted values.
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            iter_taint = self.eval_taint(stmt.iter, env, record=False)
            self._bind_target(stmt.target, iter_taint - {KIND_HASH_ORDER}, env)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                if isinstance(item.optional_vars, ast.Name):
                    env[item.optional_vars.id] = self.eval_taint(
                        item.context_expr, env, record=False
                    )

    def _bind_target(
        self, target: ast.expr, taint: frozenset, env: dict
    ) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = taint
        elif isinstance(target, ast.Starred):
            self._bind_target(target.value, taint, env)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind_target(elt, taint, env)
        elif isinstance(target, ast.Attribute) and isinstance(
            target.value, ast.Name
        ):
            key = f"{target.value.id}.{target.attr}"
            env[key] = taint
            if target.value.id == "self" and self._instance_class is not None:
                attr_key = (self._instance_class, target.attr)
                existing = self.module.attr_taint.get(attr_key, _EMPTY)
                self.module.attr_taint[attr_key] = existing | taint

    # ------------------------------------------------------------------
    # expressions
    def eval_taint(
        self, node: ast.expr, env: dict, record: bool = True
    ) -> frozenset:
        """Taint of an expression; optionally records effects en route."""
        if isinstance(node, ast.Call):
            return self._call(node, env, record)
        if isinstance(node, ast.Name):
            tags = env.get(node.id, _EMPTY)
            if node.id == "self":
                return _EMPTY
            return tags
        if isinstance(node, ast.Attribute):
            tags = _UNASSIGNED
            if isinstance(node.value, ast.Name):
                tags = env.get(f"{node.value.id}.{node.attr}", _UNASSIGNED)
            if not tags & _UNASSIGNED:
                return tags
            # Not assigned here on every path: what it held before.
            klass = self._instance_class
            if (
                isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and klass is not None
            ):
                # Same-module base classes contribute (setup() on a base).
                before = _EMPTY
                for owner in [klass, *self.module.graph.bases_of(klass)]:
                    key = (owner, node.attr)
                    before |= self.module.attr_taint.get(key, _EMPTY)
            else:
                before = self.eval_taint(node.value, env, record)
            return (tags - _UNASSIGNED) | before
        if isinstance(node, ast.Constant):
            return _EMPTY
        if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
            out = _EMPTY
            for elt in node.elts:
                out |= self.eval_taint(elt, env, record)
            return out
        if isinstance(node, ast.Dict):
            out = _EMPTY
            for key in node.keys:
                if key is not None:
                    out |= self.eval_taint(key, env, record)
            for value in node.values:
                out |= self.eval_taint(value, env, record)
            return out
        if isinstance(node, ast.BinOp):
            return self.eval_taint(node.left, env, record) | self.eval_taint(
                node.right, env, record
            )
        if isinstance(node, ast.BoolOp):
            out = _EMPTY
            for value in node.values:
                out |= self.eval_taint(value, env, record)
            return out
        if isinstance(node, ast.UnaryOp):
            return self.eval_taint(node.operand, env, record)
        if isinstance(node, ast.Compare):
            out = self.eval_taint(node.left, env, record)
            for comp in node.comparators:
                out |= self.eval_taint(comp, env, record)
            return out
        if isinstance(node, ast.IfExp):
            self.eval_taint(node.test, env, record)
            return self.eval_taint(node.body, env, record) | self.eval_taint(
                node.orelse, env, record
            )
        if isinstance(node, ast.Subscript):
            return self.eval_taint(node.value, env, record)
        if isinstance(node, ast.Starred):
            return self.eval_taint(node.value, env, record)
        if isinstance(node, ast.JoinedStr):
            out = _EMPTY
            for value in node.values:
                if isinstance(value, ast.FormattedValue):
                    out |= self.eval_taint(value.value, env, record)
            return out
        if isinstance(node, ast.NamedExpr):
            taint = self.eval_taint(node.value, env, record)
            if isinstance(node.target, ast.Name):
                env[node.target.id] = taint
            return taint
        if isinstance(
            node, (ast.GeneratorExp, ast.ListComp, ast.SetComp, ast.DictComp)
        ):
            return self._comprehension(node, env, record)
        if isinstance(node, ast.Lambda):
            return _EMPTY  # a value, not a call; resolved at call sites
        if isinstance(node, ast.Await):
            return self.eval_taint(node.value, env, record)
        return _EMPTY

    def _comprehension(self, node, env: dict, record: bool) -> frozenset:
        out = _EMPTY
        local = dict(env)
        for gen in node.generators:
            iter_taint = self.eval_taint(gen.iter, local, record)
            out |= iter_taint - {KIND_HASH_ORDER}
            if self._is_set_expr(gen.iter) and id(gen.iter) not in (
                self.module.order_sinks
            ):
                out |= {KIND_HASH_ORDER}
            if iter_taint & {KIND_HASH_ORDER}:
                out |= {KIND_HASH_ORDER}
            self._bind_target(
                gen.target, iter_taint - {KIND_HASH_ORDER}, local
            )
            for cond in gen.ifs:
                out |= self.eval_taint(cond, local, record)
        if isinstance(node, ast.DictComp):
            out |= self.eval_taint(node.key, local, record)
            out |= self.eval_taint(node.value, local, record)
        else:
            out |= self.eval_taint(node.elt, local, record)
        return out

    @cached_property
    def _set_names(self) -> set[str]:
        if self.info is None:
            return set()
        return self.module.set_types.local_sets(self.info.scope)

    @cached_property
    def _instance_class(self) -> ast.ClassDef | None:
        return self.module.graph.self_class(self.info)

    def _is_set_expr(self, node: ast.expr) -> bool:
        return self.module.set_types.is_set_expr(node, self._set_names)

    # ------------------------------------------------------------------
    # calls
    def _record(self, effect: Effect) -> None:
        if effect not in self._recorded:
            self._recorded.add(effect)
            self.effects.append(effect)

    def _call(self, node: ast.Call, env: dict, record: bool) -> frozenset:
        arg_taints = [
            self.eval_taint(arg, env, record) for arg in node.args
        ]
        for kw in node.keywords:
            arg_taints.append(self.eval_taint(kw.value, env, record))
        name = dotted_name(node.func)

        # -- RNG constructors ------------------------------------------
        if name is not None:
            last = name.rsplit(".", 1)[-1]
            if last == "SystemRandom" and (
                name in ("random.SystemRandom", "SystemRandom")
                or name.endswith(".random.SystemRandom")
            ):
                return frozenset({TAG_RNG_UNSEEDED})
            if last == "Random" and (
                name in ("random.Random", "Random")
                or name.endswith(".random.Random")
            ):
                if node.args and not self._tainted(arg_taints[0]):
                    return _EMPTY  # seeded: its draws replay
                return frozenset({TAG_RNG_UNSEEDED})
            # -- random.seed(x): sanitises the module RNG ---------------
            if name in ("random.seed",) or name.endswith(".random.seed"):
                # It sanitises only if its seed is clean on every visit:
                # the last visit sees the settled state.
                clean = bool(node.args) and not self._tainted(arg_taints[0])
                key = id(node)
                self._seeds[key] = clean and self._seeds.get(key, True)
                if clean:
                    return _EMPTY
                # seeding from a nondet value is still nondet
                if record:
                    self._record(
                        Effect(KIND_RANDOM, node, (name,), module_rng=True)
                    )
                return _EMPTY

        # -- known nondeterministic sources ----------------------------
        if name is not None:
            kind = _suffix_lookup(name, NONDET_CALLS)
            if kind is not None:
                if record:
                    self._record(Effect(kind, node, (name,)))
                return frozenset({kind})
            if (
                isinstance(node.func, ast.Name)
                and node.func.id in ADDRESS_BUILTINS
            ):
                if record:
                    self._record(Effect(KIND_ADDRESS, node, (node.func.id,)))
                return frozenset({KIND_ADDRESS})

        # -- RNG draws -------------------------------------------------
        if isinstance(node.func, ast.Attribute):
            method = node.func.attr
            if method in RNG_DRAW_METHODS:
                receiver = node.func.value
                receiver_name = dotted_name(receiver)
                draw = (f"{receiver_name or '<rng>'}.{method}",)
                if receiver_name == "random" or (
                    receiver_name or ""
                ).endswith(".random") and receiver_name not in (None,):
                    # module-level RNG draw: random.random()'s cousins
                    # (random.choice etc.) — seedable via random.seed.
                    if record:
                        self._record(
                            Effect(KIND_RANDOM, node, draw, module_rng=True)
                        )
                    return frozenset({KIND_RANDOM})
                receiver_taint = self.eval_taint(receiver, env, record=False)
                out = set()
                if TAG_RNG_UNSEEDED in receiver_taint:
                    if record:
                        self._record(Effect(KIND_RANDOM, node, draw))
                    out.add(KIND_RANDOM)
                # Conditional on what the caller passes for the RNG.
                for index in self._param_indexes(receiver_taint):
                    if record:
                        self._record(
                            Effect(KIND_RANDOM, node, draw, param=index)
                        )
                    out.add(_PARAM_DRAW.format(index))
                return frozenset(out)

        # -- order-insensitive aggregates / order-preserving builtins --
        if isinstance(node.func, ast.Name):
            fname = node.func.id
            if fname in ORDER_INSENSITIVE_AGGREGATES:
                out = _EMPTY
                for taint in arg_taints:
                    out |= taint
                return out - {KIND_HASH_ORDER}
            if fname in ORDER_PRESERVING:
                out = _EMPTY
                for taint in arg_taints:
                    out |= taint
                if node.args and self._is_set_expr(node.args[0]):
                    out |= {KIND_HASH_ORDER}
                return out

        # -- intra-module calls: splice the callee summary -------------
        callee = self.module.graph.resolve_call(node)
        if callee is not None and callee is not self.info:
            return self._splice(node, callee, arg_taints, record)

        # -- unknown call: taint flows through arguments ---------------
        out = _EMPTY
        for taint in arg_taints:
            out |= taint & (EFFECT_KINDS | {KIND_HASH_ORDER})
        return out

    @staticmethod
    def _param_indexes(tags: frozenset) -> list[int]:
        out = []
        for tag in tags:
            match = _PARAM_RE.match(tag)
            if match:
                out.append(int(match.group(1)))
        return sorted(set(out))

    def _tainted(self, tags: frozenset) -> bool:
        return bool(
            tags & (EFFECT_KINDS | {TAG_RNG_UNSEEDED, KIND_HASH_ORDER})
        )

    def _splice(
        self,
        node: ast.Call,
        callee: FunctionInfo,
        arg_taints: list[frozenset],
        record: bool,
    ) -> frozenset:
        summary = self.module.summary(callee)
        if record:
            for effect in summary.effects:
                if len(effect.chain) >= 8:
                    continue  # recursion depth cap
                spliced = replace(
                    effect, site=node, chain=(callee.name,) + effect.chain
                )
                if effect.param is None:
                    self._record(spliced)
                    continue
                # Conditional effect: does our argument trigger it?
                if effect.param >= len(node.args):
                    continue
                taint = arg_taints[effect.param]
                if TAG_RNG_UNSEEDED in taint or taint & EFFECT_KINDS:
                    self._record(replace(spliced, param=None))
                for index in self._param_indexes(taint):
                    self._record(replace(spliced, param=index))
        # Return taint: substitute param markers with argument taints.
        out = set()
        for tag in summary.returns:
            match = _PARAM_RE.match(tag)
            if match is None:
                out.add(tag)
                continue
            index = int(match.group(1))
            arg_taint = (
                arg_taints[index] if index < len(node.args) else _EMPTY
            )
            if tag.startswith("param-draw:"):
                if TAG_RNG_UNSEEDED in arg_taint:
                    out.add(KIND_RANDOM)
                for sub in self._param_indexes(arg_taint):
                    out.add(_PARAM_DRAW.format(sub))
            else:
                out |= arg_taint
        return frozenset(out)
