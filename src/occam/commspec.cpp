#include "occam/commspec.hpp"

#include <optional>
#include <sstream>

namespace fpst::occam {

std::string to_string(const CommOp& op) {
  std::ostringstream os;
  switch (op.kind) {
    case CommKind::kSend:
      os << "send(dst=" << op.peer << ", tag=" << op.tag
         << ", elems=" << op.elems << ")";
      break;
    case CommKind::kRecv:
      os << "recv(src=" << op.peer << ", tag=" << op.tag
         << ", elems=" << op.elems << ")";
      break;
    case CommKind::kRecvAny:
      os << "recv_any(tag=" << op.tag << ")";
      break;
    case CommKind::kBarrier:
      os << "barrier";
      break;
    case CommKind::kBroadcast:
      os << "broadcast(root=" << op.peer << ")";
      break;
    case CommKind::kReduce:
      os << "reduce(root=" << op.peer << ")";
      break;
    case CommKind::kAllreduce:
      os << "allreduce";
      break;
  }
  return os.str();
}

CommSpec::CommSpec(int dimension) : dim_{dimension} {
  if (dimension < 0 || dimension > 14) {
    throw CommSpecError("CommSpec: dimension must be in [0, 14]");
  }
  ops_.resize(std::size_t{1} << dimension);
}

void CommSpec::check_node(net::NodeId id) const {
  if (id >= ops_.size()) {
    throw CommSpecError("CommSpec: node " + std::to_string(id) +
                        " out of range for a " + std::to_string(dim_) +
                        "-cube of " + std::to_string(ops_.size()) +
                        " nodes");
  }
}

void CommSpec::append(net::NodeId id, CommOp op) {
  check_node(id);
  if (op.kind == CommKind::kSend || op.kind == CommKind::kRecv ||
      op.kind == CommKind::kBroadcast || op.kind == CommKind::kReduce) {
    check_node(op.peer);
  }
  if (op.elems == 0) {
    throw CommSpecError("CommSpec: payload size must be at least 1 element");
  }
  if (!is_user_tag(op.tag)) {
    throw CommSpecError("CommSpec: tag " + std::to_string(op.tag) +
                        " is outside the user tags 0-32767");
  }
  // Self-sends are legal in the runtime (delivered locally); keep them.
  ops_[id].push_back(op);
}

CommSpec::NodeSeq CommSpec::node(net::NodeId id) {
  check_node(id);
  return NodeSeq{*this, id};
}

CommSpec::NodeSeq& CommSpec::NodeSeq::send(net::NodeId dst, std::uint16_t tag,
                                           std::uint32_t elems) {
  spec_->append(id_, CommOp{CommKind::kSend, dst, tag, elems});
  return *this;
}
CommSpec::NodeSeq& CommSpec::NodeSeq::recv(net::NodeId src, std::uint16_t tag,
                                           std::uint32_t elems) {
  spec_->append(id_, CommOp{CommKind::kRecv, src, tag, elems});
  return *this;
}
CommSpec::NodeSeq& CommSpec::NodeSeq::recv_any(std::uint16_t tag) {
  spec_->append(id_, CommOp{CommKind::kRecvAny, 0, tag});
  return *this;
}
CommSpec::NodeSeq& CommSpec::NodeSeq::barrier() {
  spec_->append(id_, CommOp{CommKind::kBarrier, 0, 0});
  return *this;
}
CommSpec::NodeSeq& CommSpec::NodeSeq::broadcast(net::NodeId root) {
  spec_->append(id_, CommOp{CommKind::kBroadcast, root, 0});
  return *this;
}
CommSpec::NodeSeq& CommSpec::NodeSeq::reduce_sum(net::NodeId root) {
  spec_->append(id_, CommOp{CommKind::kReduce, root, 0});
  return *this;
}
CommSpec::NodeSeq& CommSpec::NodeSeq::allreduce_sum() {
  spec_->append(id_, CommOp{CommKind::kAllreduce, 0, 0});
  return *this;
}

namespace {

[[noreturn]] void parse_fail(std::size_t line, const std::string& what) {
  throw CommSpecError("line " + std::to_string(line) + ": " + what);
}

std::string trimmed(const std::string& s) {
  const std::size_t b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) {
    return "";
  }
  const std::size_t e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

bool parse_u32(const std::string& text, std::uint32_t& out) {
  if (text.empty()) {
    return false;
  }
  std::size_t pos = 0;
  unsigned long v = 0;
  try {
    v = std::stoul(text, &pos, 0);
  } catch (...) {
    return false;
  }
  if (pos != text.size() || v > 0xFFFF'FFFFul) {
    return false;
  }
  out = static_cast<std::uint32_t>(v);
  return true;
}

}  // namespace

CommSpec parse_comm_spec(const std::string& text) {
  std::istringstream in(text);
  std::string raw;
  std::size_t lineno = 0;
  std::optional<CommSpec> spec;

  while (std::getline(in, raw)) {
    ++lineno;
    std::string line = raw;
    if (const std::size_t c = line.find('#'); c != std::string::npos) {
      line = line.substr(0, c);
    }
    line = trimmed(line);
    if (line.empty()) {
      continue;
    }
    if (!spec.has_value()) {
      std::istringstream ls(line);
      std::string kw;
      std::uint32_t d = 0;
      std::string dtext;
      ls >> kw >> dtext;
      if (kw != "dim" || !parse_u32(dtext, d) || d > 14) {
        parse_fail(lineno, "expected `dim <0..14>` as the first statement");
      }
      spec.emplace(static_cast<int>(d));
      continue;
    }
    {
      std::istringstream ls(line);
      std::string kw;
      ls >> kw;
      if (kw == "budget") {
        std::string btext;
        std::uint32_t b = 0;
        ls >> btext;
        std::string extra;
        if (!parse_u32(btext, b) || b == 0 || (ls >> extra)) {
          parse_fail(lineno, "expected `budget <bytes>`");
        }
        spec->set_edge_budget(b);
        continue;
      }
    }
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) {
      parse_fail(lineno, "expected `<node>: op ; op ; ...`");
    }
    std::uint32_t id = 0;
    if (!parse_u32(trimmed(line.substr(0, colon)), id) ||
        id >= spec->size()) {
      parse_fail(lineno, "bad node id '" + line.substr(0, colon) + "'");
    }
    auto seq = spec->node(id);
    std::string rest = line.substr(colon + 1);
    std::istringstream ops(rest);
    std::string opstr;
    while (std::getline(ops, opstr, ';')) {
      opstr = trimmed(opstr);
      if (opstr.empty()) {
        continue;
      }
      std::istringstream os(opstr);
      std::string name;
      os >> name;
      std::vector<std::uint32_t> args;
      std::string a;
      while (os >> a) {
        std::uint32_t v = 0;
        if (!parse_u32(a, v)) {
          parse_fail(lineno, "bad operand '" + a + "' in '" + opstr + "'");
        }
        args.push_back(v);
      }
      const auto want = [&](std::size_t n) {
        if (args.size() != n) {
          parse_fail(lineno, "'" + name + "' takes " + std::to_string(n) +
                                 " operand(s)");
        }
      };
      // Arity for ops with an optional trailing payload-size operand.
      const auto want_between = [&](std::size_t lo, std::size_t hi) {
        if (args.size() < lo || args.size() > hi) {
          parse_fail(lineno, "'" + name + "' takes " + std::to_string(lo) +
                                 " or " + std::to_string(hi) + " operand(s)");
        }
      };
      const auto user_tag = [&](std::uint32_t v) -> std::uint16_t {
        if (!is_user_tag(v)) {
          parse_fail(lineno, "tag " + std::to_string(v) +
                                 " is outside the user tags 0-32767");
        }
        return static_cast<std::uint16_t>(v);
      };
      const auto elems_arg = [&](std::size_t i) -> std::uint32_t {
        if (args.size() <= i) {
          return kDefaultElems;
        }
        if (args[i] == 0) {
          parse_fail(lineno, "payload size must be at least 1 element");
        }
        return args[i];
      };
      try {
        if (name == "send") {
          want_between(2, 3);
          seq.send(args[0], user_tag(args[1]), elems_arg(2));
        } else if (name == "recv") {
          want_between(2, 3);
          seq.recv(args[0], user_tag(args[1]), elems_arg(2));
        } else if (name == "recvany") {
          want(1);
          seq.recv_any(user_tag(args[0]));
        } else if (name == "barrier") {
          want(0);
          seq.barrier();
        } else if (name == "bcast") {
          want(1);
          seq.broadcast(args[0]);
        } else if (name == "reduce") {
          want(1);
          seq.reduce_sum(args[0]);
        } else if (name == "allreduce") {
          want(0);
          seq.allreduce_sum();
        } else {
          parse_fail(lineno, "unknown op '" + name + "'");
        }
        spec->ops_[id].back().line = lineno;
      } catch (const CommSpecError& e) {
        const std::string what = e.what();
        if (what.rfind("line ", 0) == 0) {
          throw;  // already positioned by parse_fail above
        }
        parse_fail(lineno, what);
      }
    }
  }
  if (!spec.has_value()) {
    throw CommSpecError("empty comm spec: missing `dim <d>`");
  }
  return *spec;
}

}  // namespace fpst::occam
