#include "check/chan_graph.hpp"

#include <deque>
#include <functional>
#include <optional>
#include <sstream>

namespace fpst::check {

namespace {

using occam::CommKind;
using occam::CommOp;
using occam::CommSpec;

std::string node_op_desc(const CommSpec& spec, net::NodeId n,
                         const CommEvent& e) {
  std::ostringstream os;
  os << "node " << n << " op #" << e.origin << " ("
     << occam::to_string(spec.ops(n)[e.origin]) << ")";
  if (!e.detail.empty()) {
    os << ", " << e.detail;
  }
  return os.str();
}

/// Source line of the CommOp an event lowered from (0 when the spec was
/// built from C++ rather than parsed).
std::size_t op_line(const CommSpec& spec, net::NodeId n, std::size_t origin) {
  return spec.ops(n)[origin].line;
}

struct Mail {
  net::NodeId src;
  std::uint32_t tag;
  std::size_t origin;  ///< sender-side CommOp index, for line mapping
};

}  // namespace

std::vector<CommEvent> lower_comm(const CommSpec& spec, net::NodeId id) {
  const int dim = spec.dimension();
  std::vector<CommEvent> ev;
  std::uint32_t collectives = 0;  // Ctx::internal_tag's counter
  // Collective hops always carry one 64-bit scalar (the occam.cpp
  // schedules exchange a single double per dimension).
  const auto push = [&](bool is_send, net::NodeId peer, std::uint32_t tag,
                        std::uint32_t elems, std::size_t origin,
                        std::string detail) {
    ev.push_back(
        CommEvent{is_send, false, peer, tag, elems, origin, std::move(detail)});
  };

  const std::vector<CommOp>& ops = spec.ops(id);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const CommOp& op = ops[i];
    switch (op.kind) {
      case CommKind::kSend:
        push(true, op.peer, op.tag, op.elems, i, "");
        break;
      case CommKind::kRecv:
        push(false, op.peer, op.tag, op.elems, i, "");
        break;
      case CommKind::kRecvAny:
        ev.push_back(CommEvent{false, true, 0, op.tag, op.elems, i, ""});
        break;
      case CommKind::kBarrier: {
        const std::uint32_t t = occam::collective_tag(collectives++);
        for (int k = 0; k < dim; ++k) {
          const net::NodeId peer = id ^ (net::NodeId{1} << k);
          const std::string d = "exchange, dimension " + std::to_string(k);
          push(true, peer, t, 1, i, d);
          push(false, peer, t, 1, i, d);
        }
        break;
      }
      case CommKind::kBroadcast: {
        const std::uint32_t t = occam::collective_tag(collectives++);
        const int parent = net::tree_parent_dim(id, op.peer);
        if (parent >= 0) {
          push(false, id ^ (net::NodeId{1} << parent), t, 1, i,
               "tree arrival, dimension " + std::to_string(parent));
        }
        for (int k = parent + 1; k < dim; ++k) {
          push(true, id ^ (net::NodeId{1} << k), t, 1, i,
               "tree fan-out, dimension " + std::to_string(k));
        }
        break;
      }
      case CommKind::kReduce: {
        const std::uint32_t t = occam::collective_tag(collectives++);
        const int parent = net::tree_parent_dim(id, op.peer);
        for (int k = dim - 1; k >= 0 && k >= parent; --k) {
          const net::NodeId peer = id ^ (net::NodeId{1} << k);
          if (k > parent) {
            push(false, peer, t, 1, i,
                 "tree merge, dimension " + std::to_string(k));
          } else {
            push(true, peer, t, 1, i,
                 "tree partial, dimension " + std::to_string(k));
          }
        }
        break;
      }
      case CommKind::kAllreduce: {
        const std::uint32_t t = occam::collective_tag(collectives++);
        for (int k = 0; k < dim; ++k) {
          const net::NodeId peer = id ^ (net::NodeId{1} << k);
          const std::string d =
              "dimension exchange, dimension " + std::to_string(k);
          push(true, peer, t, 1, i, d);
          push(false, peer, t, 1, i, d);
        }
        break;
      }
    }
  }
  return ev;
}

CommAnalysis analyze_comm(const CommSpec& spec) {
  CommAnalysis res;
  const std::size_t n = spec.size();

  std::vector<std::vector<CommEvent>> ev(n);
  for (net::NodeId id = 0; id < n; ++id) {
    ev[id] = lower_comm(spec, id);
  }

  // ---- abstract execution: buffered sends, blocking receives ----
  std::vector<std::size_t> pc(n, 0);
  std::vector<std::deque<Mail>> mail(n);

  bool progress = true;
  while (progress) {
    progress = false;
    for (net::NodeId id = 0; id < n; ++id) {
      while (pc[id] < ev[id].size()) {
        const CommEvent& e = ev[id][pc[id]];
        if (e.is_send) {
          mail[e.peer].push_back(Mail{id, e.tag, e.origin});
          ++pc[id];
          progress = true;
          continue;
        }
        auto& box = mail[id];
        auto it = box.end();
        for (auto m = box.begin(); m != box.end(); ++m) {
          if (m->tag == e.tag && (e.any || m->src == e.peer)) {
            it = m;
            break;
          }
        }
        if (it == box.end()) {
          break;  // blocked
        }
        box.erase(it);
        ++pc[id];
        progress = true;
      }
    }
  }

  std::vector<net::NodeId> blocked;
  for (net::NodeId id = 0; id < n; ++id) {
    if (pc[id] < ev[id].size()) {
      blocked.push_back(id);
    }
  }

  if (blocked.empty()) {
    // Every node ran to completion; leftover messages are still suspicious.
    for (net::NodeId id = 0; id < n; ++id) {
      for (const Mail& m : mail[id]) {
        std::ostringstream os;
        os << "message (node " << m.src << " -> node " << id << ", tag "
           << m.tag << ") is sent but never received";
        res.report.add(Severity::kWarning, "unconsumed-message", 0,
                       op_line(spec, m.src, m.origin), os.str(),
                       DiagClass::kValidity);
      }
    }
    return res;
  }

  // ---- wait-for graph over the blocked nodes ----
  std::vector<int> is_blocked(n, 0);
  for (const net::NodeId b : blocked) {
    is_blocked[b] = 1;
  }
  const auto wait_targets = [&](net::NodeId id) {
    std::vector<net::NodeId> out;
    const CommEvent& e = ev[id][pc[id]];
    if (e.any) {
      for (const net::NodeId b : blocked) {
        if (b != id) {
          out.push_back(b);
        }
      }
    } else if (is_blocked[e.peer] != 0) {
      out.push_back(e.peer);
    }
    return out;
  };

  // DFS cycle search over blocked nodes.
  std::vector<int> color(n, 0);  // 0 white, 1 on stack, 2 done
  std::vector<net::NodeId> stack;
  std::optional<std::vector<net::NodeId>> cycle;
  const std::function<bool(net::NodeId)> dfs = [&](net::NodeId u) -> bool {
    color[u] = 1;
    stack.push_back(u);
    for (const net::NodeId v : wait_targets(u)) {
      if (color[v] == 1) {
        // Found a cycle: slice it out of the stack.
        std::vector<net::NodeId> cyc;
        auto it = stack.begin();
        while (*it != v) {
          ++it;
        }
        cyc.assign(it, stack.end());
        cyc.push_back(v);
        cycle = std::move(cyc);
        return true;
      }
      if (color[v] == 0 && dfs(v)) {
        return true;
      }
    }
    stack.pop_back();
    color[u] = 2;
    return false;
  };
  for (const net::NodeId b : blocked) {
    if (color[b] == 0 && dfs(b)) {
      break;
    }
  }

  if (cycle.has_value()) {
    res.deadlock = true;
    res.cycle = *cycle;
    std::ostringstream os;
    os << "communication deadlock: cyclic wait ";
    for (std::size_t i = 0; i < cycle->size(); ++i) {
      os << "node " << (*cycle)[i];
      if (i + 1 < cycle->size()) {
        os << " -> ";
      }
    }
    // The summary spans nodes; the first participant's line anchors it.
    const net::NodeId first = cycle->front();
    res.report.add(Severity::kError, "deadlock", 0,
                   op_line(spec, first, ev[first][pc[first]].origin),
                   os.str(), DiagClass::kValidity);
    for (std::size_t i = 0; i + 1 < cycle->size(); ++i) {
      const net::NodeId b = (*cycle)[i];  // last entry repeats the first
      const CommEvent& e = ev[b][pc[b]];
      std::ostringstream ns;
      ns << node_op_desc(spec, b, e) << " is blocked on ";
      if (e.any) {
        ns << "recv_any(tag " << e.tag << ")";
      } else {
        ns << "recv(src " << e.peer << ", tag " << e.tag << ")";
      }
      res.report.add(Severity::kNote, "deadlock-participant", 0,
                     op_line(spec, b, e.origin), ns.str(),
                     DiagClass::kValidity);
    }
    return res;
  }

  // No cycle: each blocked node waits on a message that is never sent.
  res.deadlock = true;
  for (const net::NodeId b : blocked) {
    const CommEvent& e = ev[b][pc[b]];
    std::ostringstream os;
    os << node_op_desc(spec, b, e) << " waits for ";
    if (e.any) {
      os << "any message with tag " << e.tag;
    } else {
      os << "a message from node " << e.peer << " with tag " << e.tag;
    }
    os << " that is never sent";
    res.report.add(Severity::kError, "stuck-recv", 0,
                   op_line(spec, b, e.origin), os.str(),
                   DiagClass::kValidity);
  }
  return res;
}

}  // namespace fpst::check
