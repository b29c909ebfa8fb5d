#include "spans.h"

#include <algorithm>
#include <ostream>

#include "report.h"

namespace perfbench {

Tracer::Tracer(std::size_t capacity) : capacity_(capacity), origin_(now_s()) {
  spans_.reserve(std::min<std::size_t>(capacity, 4096));
}

int Tracer::open(const char* name, const char* layer, int parent, int cell,
                 int lane) {
  const double t = now_s();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, layer, t, t, parent, cell, lane});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::close(int id) {
  const double t = now_s();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.at(static_cast<std::size_t>(id)).t1 = t;
}

int Tracer::add(const char* name, const char* layer, double t0, double t1,
                int parent, int cell, int lane) {
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= capacity_) {
    ++dropped_;
    auto& row = dropped_by_layer_[layer];
    row.first += 1;
    row.second += t1 - t0;
    return kNone;
  }
  spans_.push_back({name, layer, t0, t1, parent, cell, lane});
  return static_cast<int>(spans_.size() - 1);
}

std::size_t Tracer::stored() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::uint64_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

std::vector<Tracer::LayerRow> Tracer::layer_table() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Children of each span, as intervals clipped to the parent.
  std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent != kNone) {
      const Span& p = spans_[static_cast<std::size_t>(s.parent)];
      const double a = std::max(s.t0, p.t0);
      const double b = std::min(s.t1, p.t1);
      if (b > a) {
        kids[static_cast<std::size_t>(s.parent)].emplace_back(a, b);
      }
    }
  }
  std::map<std::string, LayerRow> rows;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double cur_a = 0.0;
    double cur_b = -1.0;
    for (const auto& [a, b] : iv) {
      if (a > cur_b) {
        covered += std::max(0.0, cur_b - cur_a);
        cur_a = a;
        cur_b = b;
      } else {
        cur_b = std::max(cur_b, b);
      }
    }
    covered += std::max(0.0, cur_b - cur_a);
    LayerRow& row = rows[s.layer];
    row.layer = s.layer;
    row.count += 1;
    row.total_s += s.t1 - s.t0;
    row.self_s += std::max(0.0, (s.t1 - s.t0) - covered);
  }
  for (const auto& [layer, agg] : dropped_by_layer_) {
    LayerRow& row = rows[layer];
    row.layer = layer;
    row.count += agg.first;
    row.total_s += agg.second;
    row.self_s += agg.second;  // dropped spans are leaves
  }
  std::vector<LayerRow> out;
  for (auto& [layer, row] : rows) {
    out.push_back(row);
  }
  return out;
}

void Tracer::write_chrome(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::size_t> order(spans_.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                   std::size_t b) {
    return spans_[a].t0 < spans_[b].t0;
  });
  out << "{\"traceEvents\":[";
  for (std::size_t k = 0; k < order.size(); ++k) {
    const Span& s = spans_[order[k]];
    out << (k > 0 ? ",\n" : "\n") << "{\"name\":\"" << s.name
        << "\",\"cat\":\"" << s.layer << "\",\"ph\":\"X\",\"pid\":0,\"tid\":"
        << s.lane << ",\"ts\":" << num((s.t0 - origin_) * 1e6)
        << ",\"dur\":" << num((s.t1 - s.t0) * 1e6) << ",\"args\":{\"id\":"
        << order[k] << ",\"parent\":" << s.parent << ",\"cell\":" << s.cell
        << "}}";
  }
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

}  // namespace perfbench
