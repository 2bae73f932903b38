#include "workload.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace perfbench {

using columbia::core::ScenarioSpec;

namespace {

// Batch rounds. Each round evaluates every listed spec once, in a seeded
// order. Listing a spec more than once raises its share; the shares put
// the median and p90 inside one spec's cluster of latencies (fig9 and
// fig5 here, ext-btio and flow fig5 in io_flow) rather than on the edge
// between two, where a small shift would move them a whole cluster.
const char* const kMpiRound[] = {"fig5", "fig5", "fig7", "fig9",
                                 "fig9", "fig9", "ext-ins3d-multinode"};
const char* const kIoRound[] = {"ext-checkpoint", "ext-io-overlap", "ext-btio",
                                "ext-btio",       "ext-btio",       "fig5",
                                "fig5"};
// Nominal host seconds of one round on a 4-CPU host; it turns --seconds
// into a fixed op count, so a faster simulator finishes the same work in
// less wall time.
constexpr double kMpiRoundSeconds = 1.15;
constexpr double kIoRoundSeconds = 0.8;

// The serve probe: an open loop over bench_serve's cheap ids, so it
// measures simserve's queue and cache rather than the simulations.
const char* const kProbeIds[] = {"table1", "fig8", "ext-linpack",
                                 "ext-shmem", "table2"};
constexpr int kProbeHot = 30;
constexpr int kProbeCold = 120;
constexpr double kProbeRate = 150.0;

template <std::size_t N>
constexpr std::size_t count(const char* const (&)[N]) {
  return N;
}

ScenarioSpec plain(const char* id, const char* transport = "event") {
  ScenarioSpec s;
  s.experiment = id;
  s.transport = transport;
  return s;
}

constexpr Workload kWorkloads[] = {Workload::MpiApps, Workload::IoFlow};

const char* io_transport(const char* id) {
  // fig5 runs on the event transport in mpi_apps; here it takes the flow
  // transport, so a change that trades one backend against the other
  // shows on one of the two workloads.
  return std::string(id) == "fig5" ? "flow" : "event";
}

template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.below(i)]);
  }
}

std::vector<ScenarioSpec> round_specs(Workload w) {
  std::vector<ScenarioSpec> out;
  if (w == Workload::MpiApps) {
    for (const char* id : kMpiRound) out.push_back(plain(id));
  } else {
    for (const char* id : kIoRound) out.push_back(plain(id, io_transport(id)));
  }
  return out;
}

std::string salt(std::uint64_t seed, std::size_t i) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "s%016llx-%zu",
                static_cast<unsigned long long>(seed), i);
  return buf;
}

/// Shuffles `ops`, salts the cold ones, and lays Poisson arrivals at
/// `rate` over them. The gaps are scaled so the last request is due at
/// exactly ops / rate seconds: every seed offers the same load over the
/// same span, and only the arrival pattern differs.
std::vector<Op> open_loop(std::vector<Op> ops, std::uint64_t seed, double rate) {
  Rng rng(seed);
  shuffle(ops, rng);
  std::vector<double> gaps(ops.size());
  double total = 0.0;
  for (double& g : gaps) total += g = -std::log(1.0 - rng.uniform());
  const double scale = static_cast<double>(ops.size()) / rate / total;
  double t = 0.0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    t += gaps[i] * scale;
    ops[i].due_s = t;
    if (ops[i].kind != OpKind::Hot) ops[i].spec.label = salt(seed, i);
  }
  return ops;
}

}  // namespace

bool parse_workload(const std::string& name, Workload& out) {
  for (Workload w : kWorkloads) {
    if (name == workload_name(w)) {
      out = w;
      return true;
    }
  }
  return false;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::MpiApps: return "mpi_apps";
    case Workload::IoFlow: return "io_flow";
  }
  return "?";
}

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::size_t Rng::below(std::size_t n) {
  return static_cast<std::size_t>(next() % n);
}

Plan make_plan(Workload w, std::uint64_t seed, int seconds) {
  const double round_s = w == Workload::MpiApps ? kMpiRoundSeconds : kIoRoundSeconds;
  const int rounds = std::max(1, static_cast<int>(std::lround(seconds / round_s)));
  Rng rng(seed);
  Plan plan;
  const std::vector<ScenarioSpec> round = round_specs(w);
  for (int r = 0; r < rounds; ++r) {
    std::vector<ScenarioSpec> order = round;
    shuffle(order, rng);
    for (auto& spec : order) plan.ops.push_back({std::move(spec), OpKind::Plain, 0.0});
  }
  plan.warmup = distinct_specs(w);
  return plan;
}

Plan make_serve_probe_plan(std::uint64_t seed) {
  std::vector<Op> ops;
  for (int i = 0; i < kProbeHot; ++i) {
    ops.push_back({plain(kProbeIds[i % count(kProbeIds)]), OpKind::Hot, 0.0});
  }
  for (int i = 0; i < kProbeCold; ++i) {
    ops.push_back({plain(kProbeIds[i % count(kProbeIds)]), OpKind::Cold, 0.0});
  }
  // The warm-up evaluates every probe spec with an empty label, which is
  // what makes the hot requests cache hits; cold ones carry a salt.
  return {open_loop(std::move(ops), seed, kProbeRate), serve_probe_specs()};
}

double serve_probe_rate() { return kProbeRate; }

std::vector<ScenarioSpec> serve_probe_specs() {
  std::vector<ScenarioSpec> out;
  for (const char* id : kProbeIds) out.push_back(plain(id));
  return out;
}

std::string fingerprint_key(const ScenarioSpec& spec) {
  ScenarioSpec s = spec;
  s.label.clear();
  return s.hash_hex();
}

std::vector<ScenarioSpec> distinct_specs(Workload w) {
  std::map<std::string, ScenarioSpec> by_key;
  for (auto& s : round_specs(w)) by_key.emplace(fingerprint_key(s), std::move(s));
  std::vector<ScenarioSpec> out;
  for (auto& [key, spec] : by_key) out.push_back(std::move(spec));
  return out;
}

std::optional<double> percentile(std::vector<double> samples, double p,
                                 std::string& error) {
  const std::size_t n = samples.size();
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
  if (n == 0 || rank == 0 || n - rank < 10) {
    std::ostringstream msg;
    msg << "p" << p * 100 << " of " << n << " samples has "
        << (n >= rank ? n - rank : 0) << " beyond it; at least 10 are needed";
    error = msg.str();
    return std::nullopt;
  }
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

Fingerprint fingerprint_of(const std::string& report,
                           const std::string& check_json,
                           const std::string& profile_json) {
  return {columbia::core::fnv1a64(report), columbia::core::fnv1a64(check_json),
          columbia::core::fnv1a64(profile_json)};
}

bool FingerprintTable::parse(const std::string& text, std::string& error) {
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string key, note;
    Fingerprint fp;
    if (!(fields >> key >> std::hex >> fp.report >> fp.check >> fp.profile)) {
      error = "fingerprints line " + std::to_string(lineno) + " is malformed";
      return false;
    }
    std::getline(fields >> std::ws, note);
    entries_[key] = {fp, note};
  }
  return true;
}

std::string FingerprintTable::render() const {
  std::ostringstream out;
  out << "# perfbench result fingerprints: fnv1a64 of the report bytes,\n"
         "# the simcheck JSON and the simprof JSON of each distinct spec\n"
         "# (key = spec hash with the label cleared). Regenerate with\n"
         "# `colbench --write-fingerprints <file>`.\n";
  for (const auto& [key, e] : entries_) {
    char buf[80];
    std::snprintf(buf, sizeof buf, " %016llx %016llx %016llx",
                  static_cast<unsigned long long>(e.fp.report),
                  static_cast<unsigned long long>(e.fp.check),
                  static_cast<unsigned long long>(e.fp.profile));
    out << key << buf << "  " << e.note << "\n";
  }
  return out.str();
}

void FingerprintTable::set(const ScenarioSpec& spec, const Fingerprint& fp,
                           const std::string& note) {
  entries_[fingerprint_key(spec)] = {fp, note};
}

bool FingerprintTable::matches(const ScenarioSpec& spec,
                               const Fingerprint& got) const {
  const auto it = entries_.find(fingerprint_key(spec));
  return it != entries_.end() && it->second.fp == got;
}

bool Tally::check(const FingerprintTable& fps, const ScenarioSpec& spec, bool ok,
                  const Fingerprint& got) {
  const bool good = ok && fps.matches(spec, got);
  ++attempted;
  failed += !good;
  return good;
}

}  // namespace perfbench
