#include "scenario/timeline.h"

#include <algorithm>
#include <ostream>

#include "util/assert.h"

namespace manet::scenario {

void TimelineRecorder::on_role_change(sim::Time t, net::NodeId node,
                                      cluster::Role old_role,
                                      cluster::Role new_role) {
  role_events_.push_back({t, node, old_role, new_role});
}

void TimelineRecorder::on_affiliation_change(sim::Time t, net::NodeId node,
                                             net::NodeId old_head,
                                             net::NodeId new_head) {
  affiliation_events_.push_back({t, node, old_head, new_head});
}

void TimelineRecorder::snapshot(LiveContext& ctx) {
  const sim::Time now = ctx.sim.now();
  nodes_per_snapshot_ = ctx.network.size();
  for (std::size_t i = 0; i < ctx.network.size(); ++i) {
    const auto* agent = ctx.agents[i];
    SnapshotRow row;
    row.t = now;
    row.node = static_cast<net::NodeId>(i);
    row.pos = ctx.network.node(row.node).position(now);
    row.role = agent->role();
    row.head = agent->cluster_head();
    row.gateway = agent->is_gateway();
    row.metric = agent->metric();
    snapshots_.push_back(row);
  }
}

void TimelineRecorder::schedule_snapshots(LiveContext& ctx, double period,
                                          double until) {
  MANET_CHECK(period > 0.0, "snapshot period=" << period);
  for (double t = 0.0; t <= until + 1e-9; t += period) {
    ctx.sim.schedule_at(t, [this, &ctx] { snapshot(ctx); });
  }
}

net::NodeId TimelineRecorder::head_at(sim::Time t, net::NodeId node) const {
  // Snapshots are appended in time order, nodes_per_snapshot_ rows each.
  net::NodeId head = net::kInvalidNode;
  for (const auto& row : snapshots_) {
    if (row.t > t) {
      break;
    }
    if (row.node == node) {
      head = row.head;
    }
  }
  return head;
}

void TimelineRecorder::write_events_csv(std::ostream& os) const {
  os << "t,node,kind,from,to\n";
  os.precision(12);
  // Merge the two event streams in time order for a single readable log.
  std::size_t ri = 0, ai = 0;
  const auto emit_role = [&](const RoleEvent& e) {
    os << e.t << ',' << e.node << ",role," << cluster::role_name(e.old_role)
       << ',' << cluster::role_name(e.new_role) << '\n';
  };
  const auto emit_affil = [&](const AffiliationEvent& e) {
    const auto name = [](net::NodeId id) {
      return id == net::kInvalidNode ? std::string("-")
                                     : std::to_string(id);
    };
    os << e.t << ',' << e.node << ",affiliation," << name(e.old_head) << ','
       << name(e.new_head) << '\n';
  };
  while (ri < role_events_.size() || ai < affiliation_events_.size()) {
    const bool take_role =
        ai >= affiliation_events_.size() ||
        (ri < role_events_.size() &&
         role_events_[ri].t <= affiliation_events_[ai].t);
    if (take_role) {
      emit_role(role_events_[ri++]);
    } else {
      emit_affil(affiliation_events_[ai++]);
    }
  }
}

void TimelineRecorder::write_snapshots_csv(std::ostream& os) const {
  os << "t,node,x,y,role,head,gateway,metric\n";
  os.precision(12);
  for (const auto& row : snapshots_) {
    os << row.t << ',' << row.node << ',' << row.pos.x << ',' << row.pos.y
       << ',' << cluster::role_name(row.role) << ',';
    if (row.head == net::kInvalidNode) {
      os << '-';
    } else {
      os << row.head;
    }
    os << ',' << (row.gateway ? 1 : 0) << ',' << row.metric << '\n';
  }
}

}  // namespace manet::scenario
