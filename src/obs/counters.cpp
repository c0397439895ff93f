#include "obs/counters.hpp"

#include <algorithm>

namespace sci::obs {

CounterRegistry& CounterRegistry::instance() {
  static CounterRegistry registry;
  return registry;
}

Counter& CounterRegistry::get(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.try_emplace(std::string(name)).first;
  }
  return it->second;
}

CounterSnapshot CounterRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  CounterSnapshot snap;
  snap.reserve(counters_.size());
  for (const auto& [name, ctr] : counters_) snap.emplace_back(name, ctr.value());
  return snap;
}

std::uint64_t snapshot_value(const CounterSnapshot& snap, std::string_view name) {
  const auto it = std::lower_bound(
      snap.begin(), snap.end(), name,
      [](const auto& entry, std::string_view n) { return entry.first < n; });
  return (it != snap.end() && it->first == name) ? it->second : 0;
}

CounterSnapshot snapshot_delta(const CounterSnapshot& before, const CounterSnapshot& after) {
  CounterSnapshot delta;
  for (const auto& [name, value] : after) {
    const std::uint64_t base = snapshot_value(before, name);
    if (value != base) delta.emplace_back(name, value - base);
  }
  return delta;
}

}  // namespace sci::obs
