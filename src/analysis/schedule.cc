#include "analysis/schedule.h"

#include <algorithm>
#include <sstream>

#include "common/strings.h"

namespace ppr {
namespace {

// Appends the operators of `node` (post-order, children left to right,
// fold joins interleaved, optional trailing projection), numbering the
// nodes pre-order as it enters them, and returns the index of the
// operator producing the node's output.
int LowerNode(const ConjunctiveQuery& query, const PlanNode* node,
              OpSchedule* schedule) {
  const int32_t node_id = schedule->num_nodes++;
  int producer = -1;
  if (node->IsLeaf()) {
    ScheduledOp scan;
    scan.kind = OpKind::kScan;
    scan.node_id = node_id;
    scan.atom_index = node->atom_index;
    if (node->atom_index >= 0 && node->atom_index < query.num_atoms()) {
      scan.out_attrs =
          query.atoms()[static_cast<size_t>(node->atom_index)].DistinctAttrs();
    }
    producer = schedule->num_ops();
    schedule->ops.push_back(std::move(scan));
  } else {
    for (size_t i = 0; i < node->children.size(); ++i) {
      const int child = LowerNode(query, node->children[i].get(), schedule);
      if (i == 0) {
        producer = child;
        continue;
      }
      ScheduledOp join;
      join.kind = OpKind::kJoin;
      join.node_id = node_id;
      join.left_input = producer;
      join.right_input = child;
      // Output schema exactly as PlanJoin derives it: all left attributes,
      // then right-only attributes in the right input's column order.
      const auto& left = schedule->ops[static_cast<size_t>(producer)].out_attrs;
      const auto& right = schedule->ops[static_cast<size_t>(child)].out_attrs;
      join.out_attrs = left;
      for (AttrId a : right) {
        if (std::find(left.begin(), left.end(), a) == left.end()) {
          join.out_attrs.push_back(a);
        }
      }
      producer = schedule->num_ops();
      schedule->ops.push_back(std::move(join));
    }
  }
  if (node->Projects()) {
    ScheduledOp project;
    project.kind = OpKind::kProject;
    project.node_id = node_id;
    project.left_input = producer;
    project.out_attrs = node->projected;
    producer = schedule->num_ops();
    schedule->ops.push_back(std::move(project));
  }
  return producer;
}

std::string AttrsToString(const std::vector<AttrId>& attrs) {
  return "{" +
         StrJoinFormatted(attrs, ", ",
                          [](AttrId a) { return "x" + std::to_string(a); }) +
         "}";
}

bool HasDuplicates(std::vector<AttrId> attrs) {
  std::sort(attrs.begin(), attrs.end());
  return std::adjacent_find(attrs.begin(), attrs.end()) != attrs.end();
}

bool SameAttrSet(std::vector<AttrId> a, std::vector<AttrId> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return a == b;
}

}  // namespace

std::string OpSchedule::ToString(const ConjunctiveQuery& query) const {
  std::ostringstream out;
  for (int i = 0; i < num_ops(); ++i) {
    const ScheduledOp& op = ops[static_cast<size_t>(i)];
    out << "#" << i << " ";
    switch (op.kind) {
      case OpKind::kScan:
        out << "scan ";
        if (op.atom_index >= 0 && op.atom_index < query.num_atoms()) {
          out << query.atoms()[static_cast<size_t>(op.atom_index)].ToString();
        } else {
          out << "atom[" << op.atom_index << "]";
        }
        break;
      case OpKind::kJoin:
        out << "join #" << op.left_input << " |><| #" << op.right_input;
        break;
      case OpKind::kProject:
        out << "project #" << op.left_input;
        break;
    }
    out << " -> " << AttrsToString(op.out_attrs) << "\n";
  }
  return out.str();
}

OpSchedule BuildSchedule(const ConjunctiveQuery& query, const Plan& plan) {
  OpSchedule schedule;
  if (plan.empty()) return schedule;
  schedule.root_op = LowerNode(query, plan.root(), &schedule);
  return schedule;
}

Status ValidateSchedule(const ConjunctiveQuery& query,
                        const OpSchedule& schedule) {
  if (schedule.num_ops() == 0 || schedule.root_op < 0) {
    return Status::InvalidArgument("schedule is empty");
  }
  if (schedule.root_op != schedule.num_ops() - 1) {
    return Status::InvalidArgument(
        "root operator is not the last budget-charge point");
  }

  std::vector<int> consumers(static_cast<size_t>(schedule.num_ops()), 0);
  for (int i = 0; i < schedule.num_ops(); ++i) {
    const ScheduledOp& op = schedule.ops[static_cast<size_t>(i)];
    if (HasDuplicates(op.out_attrs)) {
      return Status::InvalidArgument("operator #" + std::to_string(i) +
                                     " emits a duplicate attribute");
    }
    // Budget-charge order: inputs must have charged strictly earlier.
    for (int input : {op.left_input, op.right_input}) {
      if (input == -1) continue;
      if (input < 0 || input >= i) {
        return Status::InvalidArgument(
            "operator #" + std::to_string(i) +
            " consumes #" + std::to_string(input) +
            ", which has not charged the budget yet");
      }
      consumers[static_cast<size_t>(input)]++;
    }

    switch (op.kind) {
      case OpKind::kScan: {
        if (op.atom_index < 0 || op.atom_index >= query.num_atoms()) {
          return Status::InvalidArgument("scan of out-of-range atom index " +
                                         std::to_string(op.atom_index));
        }
        const Atom& atom = query.atoms()[static_cast<size_t>(op.atom_index)];
        if (op.out_attrs != atom.DistinctAttrs()) {
          return Status::InvalidArgument(
              "scan of " + atom.ToString() + " emits " +
              AttrsToString(op.out_attrs) + " instead of the atom schema");
        }
        if (op.left_input != -1 || op.right_input != -1) {
          return Status::InvalidArgument("scan with an input operator");
        }
        break;
      }
      case OpKind::kJoin: {
        if (op.left_input < 0 || op.right_input < 0) {
          return Status::InvalidArgument("join missing an input");
        }
        const auto& left =
            schedule.ops[static_cast<size_t>(op.left_input)].out_attrs;
        const auto& right =
            schedule.ops[static_cast<size_t>(op.right_input)].out_attrs;
        std::vector<AttrId> expected = left;
        for (AttrId a : right) {
          if (std::find(left.begin(), left.end(), a) == left.end()) {
            expected.push_back(a);
          }
        }
        if (op.out_attrs != expected) {
          return Status::InvalidArgument(
              "join emits " + AttrsToString(op.out_attrs) +
              " instead of left ++ right-only " + AttrsToString(expected));
        }
        break;
      }
      case OpKind::kProject: {
        if (op.left_input < 0 || op.right_input != -1) {
          return Status::InvalidArgument("projection must have one input");
        }
        const auto& input =
            schedule.ops[static_cast<size_t>(op.left_input)].out_attrs;
        for (AttrId a : op.out_attrs) {
          if (std::find(input.begin(), input.end(), a) == input.end()) {
            return Status::InvalidArgument(
                "projection reads unbound attribute x" + std::to_string(a) +
                " absent from its input " + AttrsToString(input));
          }
        }
        break;
      }
    }
  }

  // Linear use: the executor hands each intermediate to exactly one
  // consumer; the root is consumed by the caller.
  for (int i = 0; i < schedule.num_ops(); ++i) {
    const int expected = i == schedule.root_op ? 0 : 1;
    if (consumers[static_cast<size_t>(i)] != expected) {
      return Status::InvalidArgument(
          "operator #" + std::to_string(i) + " has " +
          std::to_string(consumers[static_cast<size_t>(i)]) +
          " consumers (expected " + std::to_string(expected) + ")");
    }
  }

  std::vector<AttrId> target = query.free_vars();
  if (!SameAttrSet(schedule.ops[static_cast<size_t>(schedule.root_op)]
                       .out_attrs,
                   target)) {
    return Status::InvalidArgument(
        "final operator does not produce the target schema");
  }
  return Status::Ok();
}

}  // namespace ppr
