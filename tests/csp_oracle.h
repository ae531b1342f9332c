#ifndef PPR_TESTS_CSP_ORACLE_H_
#define PPR_TESTS_CSP_ORACLE_H_

// A finite-domain CSP and a backtracking solver: an engine-independent
// decision procedure that tests cross-validate query answers against.
// The paper's starting point is that "evaluating Boolean project-join
// queries is essentially the same as solving constraint-satisfaction
// problems" (Kolaitis & Vardi [26]); CspToQuery makes that
// correspondence executable.

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "encode/sat.h"
#include "query/conjunctive_query.h"
#include "relational/database.h"
#include "relational/relation.h"

namespace ppr {

/// One extensional constraint: the variables in `scope` (distinct, in
/// range) must jointly take a value combination listed in `allowed`, one
/// column per scope position.
struct Constraint {
  std::vector<int> scope;
  Relation allowed;
};

/// A finite-domain constraint-satisfaction problem.
struct Csp {
  /// domains[v] lists the allowed values of variable v.
  std::vector<std::vector<Value>> domains;
  std::vector<Constraint> constraints;

  int num_vars() const { return static_cast<int>(domains.size()); }
};

/// CNF satisfiability as a CSP: Boolean domains, one constraint per
/// clause allowing its 2^k - 1 satisfying assignments.
inline Csp CnfCsp(const Cnf& cnf) {
  Csp csp;
  csp.domains.assign(static_cast<size_t>(cnf.num_vars), {0, 1});
  for (const auto& clause : cnf.clauses) {
    std::vector<int> scope;
    std::vector<AttrId> attrs;
    for (const Literal& lit : clause) {
      scope.push_back(lit.var);
      attrs.push_back(lit.var);
    }
    Relation allowed{Schema(attrs)};
    const unsigned rows = 1u << clause.size();
    for (unsigned row = 0; row < rows; ++row) {
      bool satisfies = false;
      for (size_t i = 0; i < clause.size(); ++i) {
        const bool value = ((row >> i) & 1u) != 0;
        if (value != clause[i].negated) {
          satisfies = true;
          break;
        }
      }
      if (!satisfies) continue;
      std::vector<Value> tuple(clause.size());
      for (size_t i = 0; i < clause.size(); ++i) {
        tuple[i] = static_cast<Value>((row >> i) & 1u);
      }
      allowed.AddTuple(tuple);
    }
    csp.constraints.push_back(Constraint{std::move(scope),
                                         std::move(allowed)});
  }
  return csp;
}

/// A CSP rendered as a Boolean project-join query over a fresh database:
/// each constraint becomes a stored relation ("c0", "c1", ...) and one
/// atom over its scope. The query is nonempty iff the CSP is solvable.
struct CspAsQuery {
  ConjunctiveQuery query;
  Database db;
};

inline CspAsQuery CspToQuery(const Csp& csp) {
  CspAsQuery out;
  for (size_t i = 0; i < csp.constraints.size(); ++i) {
    const Constraint& c = csp.constraints[i];
    const std::string name = "c" + std::to_string(i);
    // Store the relation with positional column ids; the atom binds the
    // scope variables.
    std::vector<AttrId> cols(c.scope.size());
    for (size_t p = 0; p < cols.size(); ++p) {
      cols[p] = static_cast<AttrId>(p);
    }
    Relation stored{Schema(cols)};
    for (int64_t r = 0; r < c.allowed.size(); ++r) {
      stored.AddTuple(c.allowed.row(r));
    }
    out.db.Put(name, std::move(stored));
    Atom atom;
    atom.relation = name;
    atom.args.assign(c.scope.begin(), c.scope.end());
    out.query.AddAtom(std::move(atom));
  }
  // Boolean emulation as in the paper: select the first constrained var.
  PPR_CHECK(!out.query.atoms().empty());
  out.query.SetFreeVars({out.query.atoms().front().args.front()});
  return out;
}

namespace csp_internal {

// True when some allowed tuple of `c` matches every assigned scope
// position of the partial assignment.
inline bool ConstraintViable(const Constraint& c,
                             const std::vector<Value>& value_of,
                             const std::vector<uint8_t>& is_assigned) {
  for (int64_t r = 0; r < c.allowed.size(); ++r) {
    bool matches = true;
    for (size_t p = 0; p < c.scope.size(); ++p) {
      const size_t v = static_cast<size_t>(c.scope[p]);
      if (is_assigned[v] &&
          value_of[v] != c.allowed.at(r, static_cast<int>(p))) {
        matches = false;
        break;
      }
    }
    if (matches) return true;
  }
  return false;
}

inline bool Backtrack(const Csp& csp, std::vector<Value>& value_of,
                      std::vector<uint8_t>& is_assigned,
                      int unassigned_left) {
  if (unassigned_left == 0) return true;

  // Minimum-remaining-values: the unassigned variable with the fewest
  // viable values (each checked by constraint viability).
  int best_var = -1;
  std::vector<Value> best_values;
  for (int v = 0; v < csp.num_vars(); ++v) {
    if (is_assigned[static_cast<size_t>(v)]) continue;
    std::vector<Value> viable;
    for (Value value : csp.domains[static_cast<size_t>(v)]) {
      value_of[static_cast<size_t>(v)] = value;
      is_assigned[static_cast<size_t>(v)] = 1;
      bool ok = true;
      for (const Constraint& c : csp.constraints) {
        if (std::find(c.scope.begin(), c.scope.end(), v) == c.scope.end()) {
          continue;
        }
        if (!ConstraintViable(c, value_of, is_assigned)) {
          ok = false;
          break;
        }
      }
      is_assigned[static_cast<size_t>(v)] = 0;
      if (ok) viable.push_back(value);
    }
    if (best_var < 0 || viable.size() < best_values.size()) {
      best_var = v;
      best_values = std::move(viable);
      if (best_values.empty()) return false;  // dead end
    }
  }

  for (Value value : best_values) {
    value_of[static_cast<size_t>(best_var)] = value;
    is_assigned[static_cast<size_t>(best_var)] = 1;
    if (Backtrack(csp, value_of, is_assigned, unassigned_left - 1)) {
      return true;
    }
    is_assigned[static_cast<size_t>(best_var)] = 0;
  }
  return false;
}

}  // namespace csp_internal

/// Backtracking CSP solver with minimum-remaining-values ordering and
/// forward checking. Returns a satisfying assignment, or nullopt when
/// unsatisfiable.
inline std::optional<std::vector<Value>> SolveCsp(const Csp& csp) {
  std::vector<Value> value_of(static_cast<size_t>(csp.num_vars()), 0);
  std::vector<uint8_t> is_assigned(static_cast<size_t>(csp.num_vars()), 0);
  if (!csp_internal::Backtrack(csp, value_of, is_assigned, csp.num_vars())) {
    return std::nullopt;
  }
  return value_of;
}

}  // namespace ppr

#endif  // PPR_TESTS_CSP_ORACLE_H_
