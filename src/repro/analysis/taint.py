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
- **Propagation** — flow-sensitively through local assignments (via the
  CFG), through ``self.<attr>`` fields (joined across a class's
  methods, so ``setup()`` seeding is visible from ``map()``), and
  *interprocedurally* through the module call graph: every function
  gets a :class:`Summary` of the nondeterministic effects running it
  causes — unconditionally, or conditionally on what a caller passes
  for a parameter — and call sites splice callee summaries in with the
  call chain preserved for diagnostics.

Rules consume the result through :class:`ModuleTaint`: MRJ001 asks for
a task method's effects, MRS201/MRH301 ask for a closure's, MRH303 asks
for the *value* taint of an expression interpolated into SQL.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field, replace

from repro.analysis.callgraph import CallGraph, FunctionInfo, walk_own_nodes
from repro.analysis.cfg import build_cfg, header_expressions, is_header
from repro.analysis.dataflow import solve_forward

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

#: Object-shape tags for RNG instances.
TAG_RNG_SEEDED = "rng-seeded"
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


def _suffix_lookup(name: str, table: dict[str, str]) -> str | None:
    for suffix, kind in table.items():
        if name == suffix or name.endswith("." + suffix):
            return kind
    return None


# --------------------------------------------------------------------------
# set-typedness inference (shared with the MRE101 rule)


_SET_ANNOTATION = re.compile(r"\b(set|frozenset|Set|AbstractSet|MutableSet)\b")


def is_set_annotation(annotation: ast.expr | None) -> bool:
    if annotation is None:
        return False
    try:
        text = ast.unparse(annotation)
    except Exception:  # pragma: no cover - malformed annotation
        return False
    return bool(_SET_ANNOTATION.search(text))


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


class SetTypes:
    """Module-wide syntactic inference of set-typed names/attributes.

    Grown from PR 3's ``engine_rules._SetTypes`` — now shared by the
    taint engine (hash-order sources) and MRE101.
    """

    def __init__(self, tree: ast.Module):
        #: Attribute names declared set-typed somewhere in this module
        #: (class annotations or ``self.x = set()``); any ``expr.<name>``
        #: access is then treated as a set.
        self.attr_names: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    if (
                        isinstance(stmt, ast.AnnAssign)
                        and isinstance(stmt.target, ast.Name)
                        and is_set_annotation(stmt.annotation)
                    ):
                        self.attr_names.add(stmt.target.id)
            elif isinstance(node, ast.Assign):
                if is_set_literalish(node.value):
                    for target in node.targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            self.attr_names.add(target.attr)
            elif isinstance(node, ast.AnnAssign):
                if (
                    isinstance(node.target, ast.Attribute)
                    and isinstance(node.target.value, ast.Name)
                    and node.target.value.id == "self"
                    and is_set_annotation(node.annotation)
                ):
                    self.attr_names.add(node.target.attr)

    def local_sets(self, fn: ast.FunctionDef) -> set[str]:
        names: set[str] = set()
        for arg in list(fn.args.args) + list(fn.args.kwonlyargs):
            if is_set_annotation(arg.annotation):
                names.add(arg.arg)
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and is_set_literalish(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
            elif (
                isinstance(node, ast.AnnAssign)
                and isinstance(node.target, ast.Name)
                and is_set_annotation(node.annotation)
            ):
                names.add(node.target.id)
        return names

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

    def _key(self):
        return (self.kind, id(self.site), self.chain, self.param)


@dataclass
class Summary:
    """What calling a function does, nondeterminism-wise."""

    effects: list[Effect] = field(default_factory=list)
    #: Taint tags of the return value (may include param markers).
    returns: frozenset = frozenset()
    #: Does any method body call ``random.seed(<deterministic>)``?
    seeds_module_rng: bool = False

    def key(self):
        return (
            tuple(e._key() for e in self.effects),
            self.returns,
            self.seeds_module_rng,
        )


_EMPTY = frozenset()


class ModuleTaint:
    """Taint analysis of one module: call graph + per-function summaries
    + per-class attribute taint, iterated to a fixpoint."""

    def __init__(self, tree: ast.Module):
        self.tree = tree
        self.graph = CallGraph(tree)
        self.set_types = SetTypes(tree)
        self.order_sinks = order_insensitive_generator_iters(tree)
        #: (class name, attr) -> taint tags, joined over every
        #: ``self.attr = ...`` in the class's methods.
        self.attr_taint: dict[tuple[str, str], frozenset] = {}
        #: class name -> True when setup()/__init__ seeds the module RNG
        self.rng_seeding_classes: set[str] = set()
        self.summaries: dict[FunctionInfo, Summary] = {
            info: Summary() for info in self.graph.functions
        }
        self._cfgs: dict[FunctionInfo, object] = {}
        self._solve()

    # ------------------------------------------------------------------
    def summary(self, info: FunctionInfo) -> Summary:
        return self.summaries.get(info, Summary())

    def effects_of(self, info: FunctionInfo) -> list[Effect]:
        """Unconditional nondeterministic effects of calling ``info``,
        with class-level sanitisation (module-RNG seeding) applied."""
        out = []
        seeded = (
            info.klass is not None
            and info.klass.name in self.rng_seeding_classes
        )
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
        # Monotone summaries: iterate until stable.  Chain lengths are
        # capped by the visited-set inside effect splicing, so this
        # terminates even on recursion.
        for _round in range(len(self.graph.functions) + 2):
            changed = False
            for info in self.graph.functions:
                analysis = _FunctionAnalysis(self, info)
                summary = analysis.run()
                if summary.key() != self.summaries[info].key():
                    self.summaries[info] = summary
                    changed = True
                if summary.seeds_module_rng and info.klass is not None:
                    if info.name in ("setup", "__init__"):
                        if info.klass.name not in self.rng_seeding_classes:
                            self.rng_seeding_classes.add(info.klass.name)
                            changed = True
            if not changed:
                break


class _FunctionAnalysis:
    """Flow-sensitive intraprocedural pass over one function's CFG."""

    def __init__(self, module: ModuleTaint, info: FunctionInfo | None):
        self.module = module
        self.info = info
        self.effects: list[Effect] = []
        self._effect_keys: set = set()
        self.returns: set = set()
        self.seeds_module_rng = False
        if info is not None:
            cfg = module._cfgs.get(info)
            if cfg is None:
                cfg = build_cfg(info.node, info.qualname)
                module._cfgs[info] = cfg
            self.cfg = cfg
        else:
            self.cfg = None

    # ------------------------------------------------------------------
    def _initial_env(self) -> dict[str, frozenset]:
        env: dict[str, frozenset] = {}
        if self.info is not None:
            params = self.info.params
            start = 0
            if self.info.is_method and params and params[0] in ("self", "cls"):
                start = 1
            for index, param in enumerate(params[start:], start=start):
                env[param] = frozenset({_PARAM.format(index - start)})
        return env

    def run(self) -> Summary:
        if self.cfg is None:
            return Summary()
        self._solve_cfg()
        return Summary(
            effects=self.effects,
            returns=frozenset(self.returns),
            seeds_module_rng=self.seeds_module_rng,
        )

    def statement_envs(self) -> dict[int, dict[str, frozenset]]:
        """``id(stmt) -> env before the statement`` for every statement."""
        if self.cfg is None:
            return {}
        solution = self._solve_cfg()
        envs: dict[int, dict[str, frozenset]] = {}
        for block in self.cfg.blocks:
            state = dict(solution.get(block.index, ({}, {}))[0])
            for stmt in block.statements:
                envs[id(stmt)] = dict(state)
                self._statement(stmt, state)
        return envs

    def _solve_cfg(self):
        return solve_forward(
            self.cfg,
            transfer=self._transfer,
            join=self._join,
            initial=self._initial_env(),
            bottom={},
        )

    @staticmethod
    def _join(states: list[dict]) -> dict:
        merged: dict[str, frozenset] = {}
        for state in states:
            for name, tags in state.items():
                merged[name] = merged.get(name, _EMPTY) | tags
        return merged

    def _transfer(self, block, state: dict) -> dict:
        env = dict(state)
        for stmt in block.statements:
            self._statement(stmt, env)
        return env

    # ------------------------------------------------------------------
    # statements
    def _statement(self, stmt: ast.stmt, env: dict) -> None:
        if is_header(stmt):
            for expr in header_expressions(stmt):
                if expr is None or not isinstance(expr, ast.expr):
                    continue
                taint = self.eval_taint(expr, env)
            # For-loop targets: hash-order taints the loop variable's
            # *sequence*; the element is deterministic content-wise, so
            # the target itself stays clean unless iterating tainted
            # values.
            if isinstance(stmt, (ast.For, ast.AsyncFor)):
                iter_taint = self.eval_taint(stmt.iter, env, record=False)
                self._bind_target(
                    stmt.target, iter_taint - {KIND_HASH_ORDER}, env
                )
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    if item.optional_vars is not None and isinstance(
                        item.optional_vars, ast.Name
                    ):
                        env[item.optional_vars.id] = self.eval_taint(
                            item.context_expr, env, record=False
                        )
            return
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
        # Everything else: evaluate contained expressions for effects.
        for node in ast.iter_child_nodes(stmt):
            if isinstance(node, ast.expr):
                self.eval_taint(node, env)

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
            if (
                target.value.id == "self"
                and self.info is not None
                and self.info.klass is not None
            ):
                attr_key = (self.info.klass.name, target.attr)
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
            root = dotted_name(node)
            if root is not None and isinstance(node.value, ast.Name):
                key = f"{node.value.id}.{node.attr}"
                if key in env:
                    return env[key]
                if (
                    node.value.id == "self"
                    and self.info is not None
                    and self.info.klass is not None
                ):
                    return self._class_attr_taint(
                        self.info.klass, node.attr
                    )
            base = self.eval_taint(node.value, env, record)
            return base
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

    def _class_attr_taint(self, klass: ast.ClassDef, attr: str) -> frozenset:
        tags = self.module.attr_taint.get((klass.name, attr), _EMPTY)
        # Same-module base classes contribute too (setup() on a base).
        for base in self.module.graph._bases_of(klass):
            tags |= self._class_attr_taint(base, attr)
        return tags

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

    def _is_set_expr(self, node: ast.expr) -> bool:
        local: set[str] = set()
        if self.info is not None and isinstance(
            self.info.node, (ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            local = self.module.set_types.local_sets(self.info.node)
        return self.module.set_types.is_set_expr(node, local)

    # ------------------------------------------------------------------
    # calls
    def _record(self, effect: Effect) -> None:
        key = effect._key()
        if key not in self._effect_keys:
            self._effect_keys.add(key)
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
                    return frozenset({TAG_RNG_SEEDED})
                return frozenset({TAG_RNG_UNSEEDED})
            # -- random.seed(x): sanitises the module RNG ---------------
            if name in ("random.seed",) or name.endswith(".random.seed"):
                if node.args and not self._tainted(arg_taints[0]):
                    self.seeds_module_rng = True
                    return _EMPTY
                # seeding from a nondet value is still nondet
                if record:
                    self._record(
                        Effect(
                            kind=KIND_RANDOM,
                            site=node,
                            chain=(name,),
                            module_rng=True,
                        )
                    )
                return _EMPTY

        # -- known nondeterministic sources ----------------------------
        if name is not None:
            kind = _suffix_lookup(name, NONDET_CALLS)
            if kind is not None:
                if record:
                    self._record(Effect(kind=kind, site=node, chain=(name,)))
                return frozenset({kind})
            if (
                isinstance(node.func, ast.Name)
                and node.func.id in ADDRESS_BUILTINS
            ):
                if record:
                    self._record(
                        Effect(
                            kind=KIND_ADDRESS, site=node,
                            chain=(node.func.id,),
                        )
                    )
                return frozenset({KIND_ADDRESS})

        # -- RNG draws -------------------------------------------------
        if isinstance(node.func, ast.Attribute):
            method = node.func.attr
            if method in RNG_DRAW_METHODS:
                receiver = node.func.value
                receiver_name = dotted_name(receiver)
                if receiver_name == "random" or (
                    receiver_name or ""
                ).endswith(".random") and receiver_name not in (None,):
                    # module-level RNG draw: random.random()'s cousins
                    # (random.choice etc.) — seedable via random.seed.
                    if record:
                        self._record(
                            Effect(
                                kind=KIND_RANDOM,
                                site=node,
                                chain=(f"{receiver_name}.{method}",),
                                module_rng=True,
                            )
                        )
                    return frozenset({KIND_RANDOM})
                receiver_taint = self.eval_taint(receiver, env, record=False)
                if TAG_RNG_UNSEEDED in receiver_taint:
                    if record:
                        self._record(
                            Effect(
                                kind=KIND_RANDOM,
                                site=node,
                                chain=(
                                    f"{receiver_name or '<rng>'}.{method}",
                                ),
                            )
                        )
                    return frozenset({KIND_RANDOM})
                params = self._param_indexes(receiver_taint)
                if params and TAG_RNG_SEEDED not in receiver_taint:
                    out = _EMPTY
                    for index in params:
                        if record:
                            self._record(
                                Effect(
                                    kind=KIND_RANDOM,
                                    site=node,
                                    chain=(
                                        f"{receiver_name or '<rng>'}"
                                        f".{method}",
                                    ),
                                    param=index,
                                )
                            )
                        out |= {_PARAM_DRAW.format(index)}
                    return out
                return _EMPTY

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
        callee = self.module.graph.resolve_call(node, self.info)
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
        callee_label = callee.name
        if record:
            for effect in summary.effects:
                if len(effect.chain) >= 8:
                    continue  # recursion depth cap
                if effect.param is None:
                    self._record(
                        replace(
                            effect,
                            site=node,
                            chain=(callee_label,) + effect.chain,
                        )
                    )
                    continue
                # Conditional effect: does our argument trigger it?
                if effect.param < len(node.args):
                    taint = arg_taints[effect.param]
                else:
                    continue
                if TAG_RNG_UNSEEDED in taint or taint & EFFECT_KINDS:
                    self._record(
                        replace(
                            effect,
                            site=node,
                            chain=(callee_label,) + effect.chain,
                            param=None,
                        )
                    )
                else:
                    for index in self._param_indexes(taint):
                        self._record(
                            replace(
                                effect,
                                site=node,
                                chain=(callee_label,) + effect.chain,
                                param=index,
                            )
                        )
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
                else:
                    for sub in self._param_indexes(arg_taint):
                        out.add(_PARAM_DRAW.format(sub))
            else:
                out |= arg_taint
        return frozenset(out)
