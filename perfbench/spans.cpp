#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <utility>

namespace perfbench {

std::uint32_t SpanLog::open(const char* name, std::uint32_t parent,
                            std::int64_t op, Clock::time_point start) {
  std::lock_guard lock(mutex_);
  spans_.push_back({name, start, start, parent, op});
  return static_cast<std::uint32_t>(spans_.size());
}

void SpanLog::close(std::uint32_t id, Clock::time_point end) {
  std::lock_guard lock(mutex_);
  spans_[id - 1].end = end;
}

std::uint32_t SpanLog::add(const char* name, std::uint32_t parent,
                           std::int64_t op, Clock::time_point start,
                           Clock::time_point end) {
  std::lock_guard lock(mutex_);
  spans_.push_back({name, start, end, parent, op});
  return static_cast<std::uint32_t>(spans_.size());
}

std::vector<Span> SpanLog::spans() const {
  std::lock_guard lock(mutex_);
  return spans_;
}

std::map<std::string, SpanTotals> SpanLog::totals() const {
  const std::vector<Span> all = spans();
  // Children's intervals per parent, clipped to the parent; their union is
  // the part of the parent that is not self time.
  std::vector<std::vector<std::pair<Clock::time_point, Clock::time_point>>>
      children(all.size());
  for (const Span& s : all) {
    if (s.parent == 0) continue;
    const Span& p = all[s.parent - 1];
    const auto a = std::max(s.start, p.start);
    const auto b = std::min(s.end, p.end);
    if (a < b) children[s.parent - 1].emplace_back(a, b);
  }
  std::map<std::string, SpanTotals> out;
  for (std::size_t i = 0; i < all.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    Clock::time_point reach = all[i].start;
    for (const auto& [a, b] : kids) {
      const auto from = std::max(a, reach);
      if (b > from) {
        covered += seconds_between(from, b);
        reach = b;
      }
    }
    SpanTotals& t = out[all[i].name];
    const double d = seconds_between(all[i].start, all[i].end);
    ++t.count;
    t.total_s += d;
    t.self_s += d - covered;
  }
  return out;
}

std::string SpanLog::to_json() const {
  const std::vector<Span> all = spans();
  Clock::time_point origin = all.empty() ? Clock::time_point{} : all[0].start;
  for (const Span& s : all) origin = std::min(origin, s.start);
  std::ostringstream out;
  char buf[160];
  out << "{\"spans\": [\n";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::snprintf(buf, sizeof buf,
                  "{\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, "
                  "\"end_s\": %.9f, \"parent\": %u, \"op\": %lld}",
                  i + 1, s.name, seconds_between(origin, s.start),
                  seconds_between(origin, s.end), s.parent,
                  static_cast<long long>(s.op));
    out << "  " << buf << (i + 1 < all.size() ? ",\n" : "\n");
  }
  out << "],\n\"self_time\": {\n";
  const auto totals = this->totals();
  std::size_t k = 0;
  for (const auto& [name, t] : totals) {
    std::snprintf(buf, sizeof buf,
                  "\"count\": %llu, \"total_s\": %.9f, \"self_s\": %.9f",
                  static_cast<unsigned long long>(t.count), t.total_s,
                  t.self_s);
    out << "  \"" << name << "\": {" << buf << "}"
        << (++k < totals.size() ? ",\n" : "\n");
  }
  out << "}}\n";
  return out.str();
}

}  // namespace perfbench
