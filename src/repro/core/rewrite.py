"""Automatic provenance-maintenance rewrite (Algorithm 1 of the paper).

Given a localized NDlog program, :class:`ProvenanceRewriter` produces a new
program that computes the same derivations *and* maintains the distributed
provenance tables ``prov(@Loc, VID, RID, RLoc)`` and
``ruleExec(@RLoc, RID, R, VIDList)`` (Section 4.1).

For every non-aggregate rule ``rid h(@H1,...,Ho) :- t1(@X,...), ..., cp.``
five rules are generated, exactly mirroring Algorithm 1:

1. a local event ``eProvTmp_rid`` carrying the derived head values plus the
   provenance bookkeeping attributes (RLoc, R, List of input VIDs, RID);
2. ``ruleExec`` insertion at the rule's location;
3. a message event ``eProvMsg_rid`` shipped to the head's location — the
   only cross-node message, carrying just two extra attributes (RID, RLoc);
4. the original head derivation from the message event;
5. the ``prov`` entry at the head's location.

MIN / MAX aggregate rules are handled as described in Section 4.2.2: the
original aggregate rule is kept unchanged and the provenance of the derived
tuple is attributed to the winning input tuple, found by joining the derived
tuple back against the rule body.  Other aggregates raise
:class:`~repro.core.errors.RewriteError`, matching the paper's restriction.

Base (EDB) tuples get ``prov`` entries with a ``null`` RID via one generated
rule per base relation, so the recursive provenance query's base case
(rule ``edb1`` in Section 5.1) terminates.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from ..datalog.ast import (
    Assignment,
    Atom,
    Condition,
    Fact,
    Program,
    Rule,
    TableDecl,
    is_event_predicate,
)
from ..datalog.localize import body_location
from ..datalog.terms import (
    AggregateSpec,
    Constant,
    FunctionCall,
    Term,
    Variable,
)
from .errors import RewriteError

__all__ = ["ProvenanceRewriter", "rewrite_program", "PROV_TABLE", "RULE_EXEC_TABLE"]

PROV_TABLE = "prov"
RULE_EXEC_TABLE = "ruleExec"

#: Aggregates the provenance rewrite supports (Section 4.2.2).
_SUPPORTED_AGGREGATES = ("min", "max")


class ProvenanceRewriter:
    """Rewrites an NDlog program to maintain reference-based provenance."""

    def __init__(self, program: Program):
        self.program = program

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def rewrite(self) -> Program:
        """Return the provenance-maintaining version of the input program."""
        output = Program(name=f"{self.program.name}+prov")
        for declaration in self.program.declarations:
            output.add_declaration(declaration)
        output.add_declaration(TableDecl(PROV_TABLE, 4, (1, 2)))
        output.add_declaration(TableDecl(RULE_EXEC_TABLE, 4, (1,)))

        for rule in self.program.rules:
            if not rule.body_atoms:
                raise RewriteError(
                    f"rule {rule.label} has no body atoms and cannot be rewritten"
                )
            if rule.is_aggregate_rule:
                for generated in self._rewrite_aggregate_rule(rule):
                    output.add_rule(generated)
            else:
                for generated in self._rewrite_regular_rule(rule):
                    output.add_rule(generated)

        for generated in self._edb_prov_rules():
            output.add_rule(generated)
        output.validate()
        return output

    # ------------------------------------------------------------------ #
    # regular rules (Algorithm 1)
    # ------------------------------------------------------------------ #
    def _rewrite_regular_rule(self, rule: Rule) -> List[Rule]:
        used = set(rule.variables())
        fresh = _FreshNames(used)
        head = rule.head
        arity = head.arity

        rloc_var = fresh.make("ProvRLoc")
        rid_var = fresh.make("ProvRID")
        list_var = fresh.make("ProvList")
        rule_name_var = fresh.make("ProvR")
        head_vars = [fresh.make(f"ProvH{index}") for index in range(arity)]

        location_var = self._body_location_variable(rule)
        pid_assignments = self._pid_assignments(rule, fresh)
        vid_var = fresh.make("ProvVID")
        names = _ProvNames(rloc_var, rid_var, list_var, rule_name_var, vid_var, head_vars)

        # The message event to the head location (RID, RLoc piggybacked).
        msg_name = _msg_event_name(rule.label)
        msg_atom = Atom(
            msg_name,
            [*[Variable(name) for name in head_vars], Variable(rid_var),
             Variable(rloc_var)],
            location_index=head.location_index,
        )
        # --- rules 1, 2 and 5: eProvTmp, ruleExec, and prov at the head location
        rule1, tmp_atom, rule2, rule5 = self._shared_rules(
            rule, [], head.args, location_var, pid_assignments, names, msg_atom
        )
        # --- rule 3: the message, the only cross-node one
        rule3 = Rule(f"{rule.label}_pmsg", msg_atom, [tmp_atom])
        # --- rule 4: the original derivation
        rule4 = Rule(
            f"{rule.label}_phead",
            Atom(head.name, [Variable(name) for name in head_vars],
                 location_index=head.location_index),
            [msg_atom],
        )
        return [rule1, rule2, rule3, rule4, rule5]

    # ------------------------------------------------------------------ #
    # aggregate rules (MIN / MAX)
    # ------------------------------------------------------------------ #
    def _rewrite_aggregate_rule(self, rule: Rule) -> List[Rule]:
        position, spec = rule.head.aggregate()
        if spec.func not in _SUPPORTED_AGGREGATES:
            raise RewriteError(
                f"rule {rule.label}: aggregate {spec.func.upper()} is not supported "
                "by the provenance rewrite (only MIN and MAX are, per Section 4.2.2)"
            )
        if len(spec.variables_) != 1:
            raise RewriteError(
                f"rule {rule.label}: MIN/MAX aggregates must aggregate exactly one "
                "variable"
            )
        location_var = self._body_location_variable(rule)
        head = rule.head
        head_location = head.location_term
        if not isinstance(head_location, Variable) or head_location.name != location_var:
            raise RewriteError(
                f"rule {rule.label}: aggregate rules must derive their head at the "
                "body location"
            )

        used = set(rule.variables())
        fresh = _FreshNames(used)
        aggregated_var = spec.variables_[0]

        # The derived tuple's attributes: the head args with the aggregate
        # position replaced by the aggregated variable (the winning value).
        derived_args: List[Term] = []
        for index, arg in enumerate(head.args):
            if index == position:
                derived_args.append(Variable(aggregated_var))
            else:
                derived_args.append(arg)
        derived_atom = Atom(head.name, derived_args, head.location_index)

        rloc_var = fresh.make("ProvRLoc")
        rid_var = fresh.make("ProvRID")
        list_var = fresh.make("ProvList")
        vid_var = fresh.make("ProvVID")
        rule_name_var = fresh.make("ProvR")
        pid_assignments = self._pid_assignments(rule, fresh)
        head_vars = [fresh.make(f"ProvH{index}") for index in range(head.arity)]
        names = _ProvNames(rloc_var, rid_var, list_var, rule_name_var, vid_var, head_vars)

        # The derived tuple joins back against the body: its eProvTmp
        # carries the winning inputs, and its prov entry is local.
        rule_tmp, _, rule_exec, rule_prov = self._shared_rules(
            rule, [derived_atom], derived_args, location_var, pid_assignments, names
        )
        # The original aggregate rule is kept unchanged (it performs the
        # actual derivation); provenance is attributed to the winning tuple.
        return [rule, rule_tmp, rule_exec, rule_prov]

    def _shared_rules(
        self,
        rule: Rule,
        body_prefix: List[Atom],
        head_args: Sequence[Term],
        location_var: str,
        pid_assignments: List[Assignment],
        names: "_ProvNames",
        prov_trigger: Optional[Atom] = None,
    ) -> Tuple[Rule, Atom, Rule, Rule]:
        """Algorithm 1's rules common to both rewrites.

        Returns the ``_ptmp`` rule deriving ``eProvTmp`` (RLoc, the
        *head_args*, R, RID and the input VID List) from *body_prefix* and
        the body; the ``eProvTmp`` atom as downstream rules read it (all
        fresh variables); the ``_pexec`` rule recording the execution in
        ``ruleExec``; and the ``_pprov`` rule adding the head's ``prov``
        entry when *prov_trigger* (default: that atom) arrives.
        """
        rloc, rid, vids = Variable(names.rloc), Variable(names.rid), Variable(names.list)
        tmp_name = _tmp_event_name(rule.label)
        tmp_body: List = [*body_prefix, *rule.body]
        tmp_body.append(Assignment(rloc, Variable(location_var)))
        tmp_body.extend(pid_assignments)
        tmp_body.append(
            Assignment(vids, FunctionCall("f_append", [pid.variable for pid in pid_assignments]))
        )
        tmp_body.append(
            Assignment(rid, FunctionCall("f_sha1", [Constant(rule.label), rloc, vids]))
        )
        tmp_head = Atom(
            tmp_name, [rloc, *head_args, Constant(rule.label), rid, vids], location_index=0
        )
        rule_tmp = Rule(f"{rule.label}_ptmp", tmp_head, tmp_body)

        head_vars = [Variable(name) for name in names.head]
        rule_name = Variable(names.rule)
        tmp_atom = Atom(tmp_name, [rloc, *head_vars, rule_name, rid, vids], location_index=0)
        rule_exec = Rule(
            f"{rule.label}_pexec",
            Atom(RULE_EXEC_TABLE, [rloc, rid, rule_name, vids], location_index=0),
            [tmp_atom],
        )

        head = rule.head
        vid = Variable(names.vid)
        rule_prov = Rule(
            f"{rule.label}_pprov",
            Atom(PROV_TABLE, [head_vars[head.location_index], vid, rid, rloc], location_index=0),
            [
                prov_trigger or tmp_atom,
                Assignment(vid, FunctionCall("f_sha1", [Constant(head.name), *head_vars])),
            ],
        )
        return rule_tmp, tmp_atom, rule_exec, rule_prov

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _body_location_variable(self, rule: Rule) -> str:
        location = body_location(rule)
        if location is None or location.startswith("<"):
            raise RewriteError(
                f"rule {rule.label}: the provenance rewrite requires a variable "
                "location specifier in the rule body"
            )
        return location

    def _pid_assignments(self, rule: Rule, fresh: "_FreshNames") -> List[Assignment]:
        """Assignments computing the VID of each body tuple (PID1..PIDn)."""
        assignments: List[Assignment] = []
        for index, atom in enumerate(rule.body_atoms):
            pid_var = fresh.make(f"ProvPID{index}")
            assignments.append(
                Assignment(
                    Variable(pid_var),
                    FunctionCall("f_sha1", [Constant(atom.name), *atom.args]),
                )
            )
        return assignments

    def _edb_prov_rules(self) -> List[Rule]:
        """Generate prov entries (RID = null) for every base relation."""
        derived = set(self.program.predicates_derived())
        rules: List[Rule] = []
        seen: Set[str] = set()
        for rule in self.program.rules:
            for atom in rule.body_atoms:
                name = atom.name
                if name in derived or name in seen or is_event_predicate(name):
                    continue
                seen.add(name)
                rules.append(self._edb_prov_rule(name, atom))
        return rules

    def _edb_prov_rule(self, name: str, example_atom: Atom) -> Rule:
        arity = example_atom.arity
        location_index = example_atom.location_index
        variables = [Variable(f"ProvE{index}") for index in range(arity)]
        body_atom = Atom(name, variables, location_index)
        vid_var = Variable("ProvVID")
        return Rule(
            f"edb_{name}_pprov",
            Atom(
                PROV_TABLE,
                [variables[location_index], vid_var, Constant(None),
                 variables[location_index]],
                location_index=0,
            ),
            [
                body_atom,
                Assignment(
                    vid_var,
                    FunctionCall("f_sha1", [Constant(name), *variables]),
                ),
            ],
        )


class _ProvNames(NamedTuple):
    """The fresh variables of one rewritten rule, as :class:`_FreshNames`
    allocated them: RLoc, RID, the VID List, R, the VID and the head's."""

    rloc: str
    rid: str
    list: str
    rule: str
    vid: str
    head: List[str]


class _FreshNames:
    """Generates variable names that do not collide with a rule's variables."""

    def __init__(self, used: Set[str]):
        self._used = set(used)

    def make(self, base: str) -> str:
        name = base
        counter = 0
        while name in self._used:
            counter += 1
            name = f"{base}_{counter}"
        self._used.add(name)
        return name


def _tmp_event_name(label: str) -> str:
    return f"eProvTmp_{label}"


def _msg_event_name(label: str) -> str:
    return f"eProvMsg_{label}"


def rewrite_program(program: Program) -> Program:
    """Convenience wrapper: rewrite *program* for provenance maintenance."""
    return ProvenanceRewriter(program).rewrite()
