#include "check/comm_volume.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "check/chan_graph.hpp"

namespace fpst::check {

namespace {

using occam::CommSpec;

constexpr std::uint64_t kBytesPerElem = 8;

/// One lowered endpoint of a channel, kept for line-mapped diagnostics.
struct EndPoint {
  net::NodeId node = 0;     ///< the node whose sequence contains the op
  net::NodeId peer = 0;     ///< the other side (sender for recvs)
  bool any = false;
  std::uint32_t elems = 0;
  std::size_t origin = 0;   ///< CommOp index in the node's sequence
};

/// All traffic on one (destination, tag) channel.
struct Channel {
  std::vector<EndPoint> sends;
  std::vector<EndPoint> recvs;  ///< specific-source receives
  std::vector<EndPoint> anys;   ///< recvany receives
};

std::size_t op_line(const CommSpec& spec, const EndPoint& e) {
  return spec.ops(e.node)[e.origin].line;
}

std::string chan_name(net::NodeId dst, std::uint32_t tag) {
  std::ostringstream os;
  os << "channel (-> node " << dst << ", tag " << tag << ")";
  return os.str();
}

}  // namespace

VolumeAnalysis analyze_volume(const CommSpec& spec) {
  VolumeAnalysis res;
  res.dimension = spec.dimension();
  const net::Hypercube cube{spec.dimension()};
  const std::size_t n = spec.size();

  std::vector<net::Flow> flows;
  std::map<std::pair<net::NodeId, std::uint32_t>, Channel> chans;

  for (net::NodeId id = 0; id < n; ++id) {
    for (const CommEvent& e : lower_comm(spec, id)) {
      if (e.is_send) {
        flows.push_back(
            net::Flow{id, e.peer, std::uint64_t{e.elems} * kBytesPerElem});
        ++res.messages;
        res.payload_bytes += std::uint64_t{e.elems} * kBytesPerElem;
        chans[{e.peer, e.tag}].sends.push_back(
            EndPoint{id, e.peer, false, e.elems, e.origin});
      } else if (e.any) {
        chans[{id, e.tag}].anys.push_back(
            EndPoint{id, 0, true, e.elems, e.origin});
      } else {
        chans[{id, e.tag}].recvs.push_back(
            EndPoint{id, e.peer, false, e.elems, e.origin});
      }
    }
  }

  // ---- channel-protocol checks ----
  for (const auto& [key, ch] : chans) {
    const auto& [dst, tag] = key;
    if (!occam::is_user_tag(tag)) {
      continue;  // collective tags: lowered pairwise, always sound
    }

    // Arity: per-source when every recv names its source; totals once a
    // recvany can absorb from anyone.
    if (ch.anys.empty()) {
      std::map<net::NodeId, std::pair<std::uint64_t, std::uint64_t>> per_src;
      for (const EndPoint& s : ch.sends) {
        ++per_src[s.node].first;
      }
      for (const EndPoint& r : ch.recvs) {
        ++per_src[r.peer].second;
      }
      for (const auto& [src, counts] : per_src) {
        if (counts.first == counts.second) {
          continue;
        }
        // Anchor the diagnostic on the surplus side's first op.
        const bool surplus_send = counts.first > counts.second;
        const EndPoint* at = nullptr;
        for (const EndPoint& e : surplus_send ? ch.sends : ch.recvs) {
          if ((surplus_send ? e.node : e.peer) == src) {
            at = &e;
            break;
          }
        }
        std::ostringstream os;
        os << chan_name(dst, tag) << ": node " << src << " sends "
           << counts.first << " message(s) but node " << dst << " receives "
           << counts.second << " from it";
        res.report.add(Severity::kError, "chan-arity", 0,
                       at != nullptr ? op_line(spec, *at) : 0, os.str(),
                       DiagClass::kValidity);
      }
    } else {
      const std::uint64_t recv_total = ch.recvs.size() + ch.anys.size();
      if (ch.sends.size() != recv_total) {
        std::ostringstream os;
        os << chan_name(dst, tag) << ": " << ch.sends.size()
           << " send(s) but " << recv_total
           << " receive(s) (including recvany)";
        const EndPoint& at =
            ch.sends.size() > recv_total ? ch.sends.front() : ch.anys.front();
        res.report.add(Severity::kError, "chan-arity", 0, op_line(spec, at),
                       os.str(), DiagClass::kValidity);
      }
    }

    // Payload consistency: every op on the channel must agree on elems.
    const std::uint32_t expect = !ch.sends.empty() ? ch.sends.front().elems
                                 : !ch.recvs.empty()
                                     ? ch.recvs.front().elems
                                     : ch.anys.front().elems;
    const auto check_elems = [&](const std::vector<EndPoint>& eps) {
      for (const EndPoint& e : eps) {
        if (e.elems == expect) {
          continue;
        }
        std::ostringstream os;
        os << chan_name(dst, tag) << ": payload sizes disagree (" << e.elems
           << " vs " << expect << " elements) — the receiver would copy "
           << "a different number of bytes than the sender staged";
        res.report.add(Severity::kError, "payload-mismatch", 0,
                       op_line(spec, e), os.str(), DiagClass::kValidity);
        return;  // one diagnostic per channel is enough
      }
    };
    check_elems(ch.sends);
    check_elems(ch.recvs);
  }

  // ---- per-edge volume through the simulator's own router ----
  res.edges = net::ecube_edge_traffic(cube, flows);
  for (const net::EdgeTraffic& e : res.edges) {
    res.total_hops += e.crossings;
    res.max_edge_crossings = std::max(res.max_edge_crossings, e.crossings);
  }

  if (spec.edge_budget().has_value()) {
    const std::uint64_t budget = *spec.edge_budget();
    for (const net::EdgeTraffic& e : res.edges) {
      if (e.bytes <= budget) {
        continue;
      }
      std::ostringstream os;
      os << "cube edge " << e.a << " <-> " << e.b << " carries " << e.bytes
         << " payload bytes, over the " << budget << "-byte link budget";
      res.report.add(Severity::kError, "edge-overload", 0, 0, os.str(),
                     DiagClass::kPerformance);
    }
  }
  return res;
}

}  // namespace fpst::check
