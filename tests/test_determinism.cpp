// The repo-wide golden determinism gate: the entire experiment registry
// runs twice with every optional subsystem switched on at once — MPI
// correctness checking (--check), profiling with trace export
// (--profile), and seeded fault injection (--faults 42:0.25) — and every
// artifact either pass emits must be byte-identical: rendered reports,
// check reports (text + JSON), profile reports (text + JSON), Chrome
// traces, gantt/comm CSVs, and the fault counters.
//
// This is the determinism contract stated in DESIGN.md made executable:
// a run is a pure function of (spec, seed). The two passes run at the
// same time on two host threads, each experiment in a run context of its
// own, so any state leaking between runs would show up as differing
// bytes. A deterministic *failure* is
// still deterministic — exceptions are folded into the golden string
// rather than aborting the pass, so both passes must throw identically
// or not at all.
//
// Two passes of one binary agreeing says nothing about a change that
// shifts a number deterministically, so each experiment's artifact bytes
// are also hashed (FNV-1a 64) and compared by experiment id against
// tests/goldens/registry_fingerprints.txt, which pins them across
// commits. Every run writes the fingerprints it computed to
// registry_fingerprints.txt in the test's build directory; to regenerate
// the golden after an intended change, copy that file over the committed
// one and name each changed id and why in CHANGES.md.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "core/spec.hpp"
#include "machine/transport.hpp"
#include "sim/run_context.hpp"
#include "simcheck/checker.hpp"
#include "simfault/collector.hpp"
#include "simprof/profiler.hpp"

namespace columbia {
namespace {

/// One full registry sweep: the concatenated artifact bytes, plus one
/// FNV-1a fingerprint of each experiment's share of them.
struct Pass {
  std::string bytes;
  std::vector<std::pair<std::string, std::uint64_t>> fingerprints;
};

/// One full registry sweep under `transport` with check + profile +
/// faults enabled, each experiment in a run context of its own.
Pass golden_pass(machine::TransportModel transport) {
  Pass pass;
  for (const auto& exp : core::experiment_registry()) {
    std::ostringstream os;
    os << "==== " << exp.id << " ====\n";
    sim::RunContext ctx;
    ctx.transport = transport;
    simcheck::CheckCollector check_on(ctx);
    simprof::ProfileCollector profile_on(ctx);
    simfault::FaultCollector faults(ctx,
                                    simfault::FaultSpec::uniform(42, 0.25));
    try {
      os << exp.run_exec(core::Exec::sequential().in(ctx)).render();
    } catch (const std::exception& e) {
      os << "exception: " << e.what() << "\n";
    } catch (...) {
      os << "exception: (non-standard)\n";
    }
    const simprof::ProfileReport prof = profile_on.drain_report();
    const simprof::TraceArtifacts trace = profile_on.drain_trace();
    const simcheck::CheckReport check = check_on.drain();
    const simfault::FaultStats stats = faults.drain();

    os << check.render() << check.to_json() << prof.render() << prof.to_json();
    if (trace.valid) {
      os << trace.chrome_json() << trace.gantt_csv() << trace.comm_csv();
    }
    os << "faults: worlds=" << stats.worlds
       << " dropped=" << stats.messages_dropped << " retries=" << stats.retries
       << " lost=" << stats.messages_lost << "\n";
    const std::string block = os.str();
    pass.fingerprints.emplace_back(exp.id, core::fnv1a64(block));
    pass.bytes += block;
  }
  return pass;
}

/// Both passes of one mode at once, on two host threads.
std::pair<Pass, Pass> concurrent_passes(machine::TransportModel transport) {
  Pass second;
  std::thread other([&second, transport] { second = golden_pass(transport); });
  Pass first = golden_pass(transport);
  other.join();
  return {std::move(first), std::move(second)};
}

/// Context around the first differing byte — EXPECT_EQ on multi-megabyte
/// strings would drown the log.
std::string first_divergence(const std::string& a, const std::string& b) {
  const std::size_t n = std::min(a.size(), b.size());
  std::size_t at = 0;
  while (at < n && a[at] == b[at]) ++at;
  if (at == n && a.size() == b.size()) return "(identical)";
  const std::size_t lo = at < 120 ? 0 : at - 120;
  std::ostringstream os;
  os << "first divergence at byte " << at << " (sizes " << a.size() << " vs "
     << b.size() << ")\n"
     << "pass 1: …" << a.substr(lo, 240) << "…\n"
     << "pass 2: …" << b.substr(lo, 240) << "…\n";
  return os.str();
}

std::string hex16(std::uint64_t h) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i, h >>= 4) out[i] = digits[h & 0xf];
  return out;
}

/// Fingerprint file lines are "<mode> <experiment id> <fnv1a64 hex>",
/// keyed here by "<mode> <id>".
using Fingerprints = std::map<std::string, std::string>;

Fingerprints read_fingerprints(const std::string& path) {
  Fingerprints out;
  std::ifstream in(path);
  std::string mode;
  std::string id;
  std::string hash;
  while (in >> mode >> id >> hash) out[mode + " " + id] = hash;
  return out;
}

/// Records `mode`'s fingerprints in the build directory's copy of the
/// golden file (other modes keep their committed lines, so the file is
/// complete even when one test runs alone), then compares them by
/// experiment id against the committed golden.
void check_fingerprints(const std::string& mode, const Pass& pass) {
  const Fingerprints golden = read_fingerprints(COLUMBIA_GOLDEN_FINGERPRINTS);
  Fingerprints computed = read_fingerprints(COLUMBIA_COMPUTED_FINGERPRINTS);
  if (computed.empty()) computed = golden;
  const std::string prefix = mode + " ";
  for (auto it = computed.begin(); it != computed.end();) {
    it = it->first.rfind(prefix, 0) == 0 ? computed.erase(it) : std::next(it);
  }
  for (const auto& [id, h] : pass.fingerprints) computed[prefix + id] = hex16(h);
  {
    std::ofstream out(COLUMBIA_COMPUTED_FINGERPRINTS);
    for (const auto& [key, h] : computed) out << key << " " << h << "\n";
  }

  std::size_t golden_ids = 0;
  for (const auto& [key, h] : golden) {
    if (key.rfind(prefix, 0) != 0) continue;
    ++golden_ids;
    const auto it = computed.find(key);
    EXPECT_TRUE(it != computed.end()) << key << ": golden id no longer runs";
  }
  for (const auto& [id, h] : pass.fingerprints) {
    const auto it = golden.find(prefix + id);
    if (it == golden.end()) {
      ADD_FAILURE() << prefix << id << ": no golden fingerprint";
    } else {
      EXPECT_EQ(it->second, hex16(h))
          << prefix << id << ": artifact bytes changed from the golden";
    }
  }
  EXPECT_EQ(golden_ids, pass.fingerprints.size()) << mode;
}

TEST(GoldenDeterminism, RegistryWithCheckProfileFaultsIsByteIdentical) {
  const auto [pass1, pass2] =
      concurrent_passes(machine::TransportModel::Event);
  ASSERT_FALSE(pass1.bytes.empty());
  EXPECT_TRUE(pass1.bytes == pass2.bytes)
      << first_divergence(pass1.bytes, pass2.bytes);
  check_fingerprints("event", pass1);
}

TEST(GoldenDeterminism, IoExperimentsSeqVsParallelAreByteIdentical) {
  // The storage experiments tear filesystems down on pool threads (the
  // per-run I/O stats publish path) and the NFS scenarios drive Network
  // transfers from scenario closures — exactly the places where a
  // parallel sweep could diverge from the sequential baseline. Each also
  // regenerates under check + profile + faults like the full gate.
  for (const std::string id :
       {"ext-io", "ext-checkpoint", "ext-btio", "ext-io-overlap"}) {
    const auto* exp = core::find_experiment(id);
    ASSERT_NE(exp, nullptr) << id;
    sim::RunContext ctx;
    simcheck::CheckCollector check_on(ctx);
    simprof::ProfileCollector profile_on(ctx);
    simfault::FaultCollector faults(ctx,
                                    simfault::FaultSpec::uniform(42, 0.25));
    const std::string seq =
        exp->run_exec(core::Exec::sequential().in(ctx)).render();
    const std::string par =
        exp->run_exec(core::Exec::parallel().in(ctx)).render();
    EXPECT_TRUE(seq == par) << id << "\n" << first_divergence(seq, par);
  }
}

TEST(GoldenDeterminism, RegistryUnderFlowTransportIsByteIdentical) {
  // The same contract with the fluid network backend selected for every
  // run (what `--transport flow` does): every experiment, still under
  // check + profile + faults, must regenerate byte-identically.
  const auto [pass1, pass2] = concurrent_passes(machine::TransportModel::Flow);
  ASSERT_FALSE(pass1.bytes.empty());
  EXPECT_TRUE(pass1.bytes == pass2.bytes)
      << first_divergence(pass1.bytes, pass2.bytes);
  check_fingerprints("flow", pass1);
}

}  // namespace
}  // namespace columbia
