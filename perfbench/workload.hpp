#pragma once
/// \file workload.hpp
/// The benchmark's inputs and its pure helpers: the workloads and the
/// serve probe as seeded op lists, the percentile rule, and the committed
/// result fingerprints every timed op is checked against. Nothing here
/// runs the simulator, so the unit tests link only this and col_spec.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/spec.hpp"

namespace perfbench {

/// Both workloads are a closed loop over core::Evaluator on one thread.
enum class Workload { MpiApps, IoFlow };

bool parse_workload(const std::string& name, Workload& out);
const char* workload_name(Workload w);

/// splitmix64: a seeded stream whose output is fixed by the algorithm, so
/// the same seed gives the same inputs with any standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1).
  double uniform();
  /// Uniform in [0, n).
  std::size_t below(std::size_t n);

 private:
  std::uint64_t state_;
};

/// What kind of request an op is: workload ops are Plain; the serve probe
/// sends Hot (cached) and Cold (salted, evaluated) requests.
enum class OpKind { Plain, Hot, Cold };

struct Op {
  columbia::core::ScenarioSpec spec;
  OpKind kind = OpKind::Plain;
  /// Serve probe only: when the request is due, in seconds after the
  /// schedule starts. Latency is measured from here, not from submit.
  double due_s = 0.0;
};

struct Plan {
  std::vector<Op> ops;  ///< the timed phase, in order
  /// Distinct specs evaluated once, untimed, during set-up. In the serve
  /// probe this is what makes the hot requests cache hits.
  std::vector<columbia::core::ScenarioSpec> warmup;
};

/// The op list for `seconds` of nominal work. The op count and every
/// spec's share are fixed by the workload and `seconds`; the seed sets
/// only the order, the arrival gaps and the label salts.
Plan make_plan(Workload w, std::uint64_t seed, int seconds);

/// The serve probe: 150 requests for cheap specs, a fifth of them cache
/// hits, as Poisson arrivals into simserve::Service. The traced run uses
/// it to measure the simserve layer, which the workloads bypass.
Plan make_serve_probe_plan(std::uint64_t seed);
/// Its arrival rate in requests per second.
double serve_probe_rate();
/// Its distinct specs (all with empty labels).
std::vector<columbia::core::ScenarioSpec> serve_probe_specs();

/// The spec with its label cleared: labels change the cache key but never
/// the result bytes, so this is the fingerprint key.
std::string fingerprint_key(const columbia::core::ScenarioSpec& spec);

/// Every label-free spec a workload can generate, sorted by key.
std::vector<columbia::core::ScenarioSpec> distinct_specs(Workload w);

/// Nearest-rank percentile (p in (0, 1)) of `samples`. Refuses, with a
/// message in `error`, when fewer than ten samples lie beyond it: a tail
/// percentile resting on a handful of samples is noise.
std::optional<double> percentile(std::vector<double> samples, double p,
                                 std::string& error);

double median(std::vector<double> samples);

/// fnv1a64 of the report bytes and of each analyzer artifact; an artifact
/// the spec did not request is the empty string and fingerprints as such.
struct Fingerprint {
  std::uint64_t report = 0;
  std::uint64_t check = 0;
  std::uint64_t profile = 0;
  bool operator==(const Fingerprint&) const = default;
};

Fingerprint fingerprint_of(const std::string& report,
                           const std::string& check_json,
                           const std::string& profile_json);

class FingerprintTable {
 public:
  /// Parses the committed file: one `<key> <report> <check> <profile>`
  /// line per spec (hex), `#` comments. False with `error` on a bad line.
  bool parse(const std::string& text, std::string& error);
  std::string render() const;

  void set(const columbia::core::ScenarioSpec& spec, const Fingerprint& fp,
           const std::string& note);
  /// True only when the spec has a committed fingerprint equal to `got`;
  /// an unknown spec is a failure too.
  bool matches(const columbia::core::ScenarioSpec& spec,
               const Fingerprint& got) const;
  std::size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    Fingerprint fp;
    std::string note;
  };
  std::map<std::string, Entry> entries_;
};

/// Counts timed ops and the ones that failed: an op fails when it is not
/// ok or its bytes differ from the committed fingerprint.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Records one op and returns whether it passed.
  bool check(const FingerprintTable& fps, const columbia::core::ScenarioSpec& spec,
             bool ok, const Fingerprint& got);
};

}  // namespace perfbench
