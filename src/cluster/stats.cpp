#include "cluster/stats.h"

#include <algorithm>

#include "util/assert.h"

namespace manet::cluster {

namespace {

// Locates `node` in a reign list kept ascending by node id.
auto reign_lower_bound(std::vector<std::pair<net::NodeId, sim::Time>>& v,
                       net::NodeId node) {
  return std::lower_bound(
      v.begin(), v.end(), node,
      [](const auto& r, net::NodeId id) { return r.first < id; });
}

}  // namespace

ClusterStats::ClusterStats(double warmup) : warmup_(warmup) {
  MANET_CHECK(warmup >= 0.0, "warmup=" << warmup);
}

void ClusterStats::on_role_change(sim::Time t, net::NodeId node,
                                  Role old_role, Role new_role) {
  MANET_ASSERT(old_role != new_role);
  // Reign tracking runs from t=0 so lifetimes of heads elected during
  // warm-up are still measured correctly.
  if (new_role == Role::kHead) {
    const auto it = reign_lower_bound(reign_since_, node);
    if (it == reign_since_.end() || it->first != node) {
      reign_since_.insert(it, {node, t});
    } else {
      it->second = t;
    }
  } else if (old_role == Role::kHead) {
    const auto it = reign_lower_bound(reign_since_, node);
    if (it != reign_since_.end() && it->first == node) {
      head_lifetimes_.add(t - it->second);
      add_tenure(node, t - it->second);
      reign_since_.erase(it);
    }
  }
  if (t < warmup_) {
    return;
  }
  ++role_changes_;
  if (new_role == Role::kHead) {
    ++head_gains_;
  } else if (old_role == Role::kHead) {
    ++head_losses_;
  }
}

void ClusterStats::on_affiliation_change(sim::Time t, net::NodeId node,
                                         net::NodeId old_head,
                                         net::NodeId new_head) {
  if (t < warmup_) {
    return;
  }
  if (old_head != net::kInvalidNode && new_head != net::kInvalidNode &&
      old_head != node && new_head != node) {
    ++reaffiliations_;
  }
}

void ClusterStats::finish(sim::Time end) {
  MANET_CHECK(!finished_, "finish() called twice");
  finished_ = true;
  // reign_since_ is ascending by node id, so the censored lifetimes enter
  // the accumulator in a reproducible order.
  for (const auto& [node, since] : reign_since_) {
    head_lifetimes_.add(end - since);
    add_tenure(node, end - since);
  }
  reign_since_.clear();
}

void ClusterStats::add_tenure(net::NodeId node, double seconds) {
  const auto it = std::lower_bound(
      head_tenure_.begin(), head_tenure_.end(), node,
      [](const auto& r, net::NodeId id) { return r.first < id; });
  if (it == head_tenure_.end() || it->first != node) {
    head_tenure_.insert(it, {node, seconds});
  } else {
    it->second += seconds;
  }
}

ClusterSampler::ClusterSampler(sim::Simulator& sim,
                               std::vector<const WeightedClusterAgent*> agents)
    : sim_(sim), agents_(std::move(agents)) {
  MANET_CHECK(!agents_.empty(), "sampler with no agents");
  for (const auto* a : agents_) {
    MANET_CHECK(a != nullptr, "null agent");
  }
}

void ClusterSampler::start(sim::Time first_at, sim::Time period,
                           sim::Time until) {
  MANET_CHECK(period > 0.0, "period=" << period);
  MANET_CHECK(until >= first_at, "until < first_at");
  period_ = period;
  until_ = until;
  sim_.schedule_at(first_at, [this] { tick(); });
}

void ClusterSampler::tick() {
  sample_now();
  const sim::Time next = sim_.now() + period_;
  if (next <= until_ + 1e-9) {
    sim_.schedule_at(next, [this] { tick(); });
  }
}

void ClusterSampler::sample_now() {
  std::size_t heads = 0;
  std::size_t gateways = 0;
  std::size_t undecided = 0;
  sizes_scratch_.assign(agents_.size(), 0);
  for (const auto* a : agents_) {
    switch (a->role()) {
      case Role::kHead:
        ++heads;
        break;
      case Role::kMember:
        if (a->is_gateway()) {
          ++gateways;
        }
        break;
      case Role::kUndecided:
        ++undecided;
        break;
    }
    const net::NodeId head = a->cluster_head();
    if (head != net::kInvalidNode) {
      // agents_[i] corresponds to node i, so every advertised head indexes
      // the scratch directly; resize guards partial-agent test setups.
      if (head >= sizes_scratch_.size()) {
        sizes_scratch_.resize(head + 1, 0);
      }
      ++sizes_scratch_[head];
    }
  }
  num_clusters_.add(static_cast<double>(heads));
  num_gateways_.add(static_cast<double>(gateways));
  num_undecided_.add(static_cast<double>(undecided));
  // Ascending head id: the accumulation order is a function of the sample,
  // not of standard-library hash order.
  for (const std::size_t size : sizes_scratch_) {
    if (size > 0) {
      cluster_sizes_.add(static_cast<double>(size));
    }
  }
}

}  // namespace manet::cluster
