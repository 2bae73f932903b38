#pragma once
/// \file transport.hpp
/// The Network's transport-model seam: `event` (the original
/// resource-queueing backend, every serialization hop simulated) or
/// `flow` (a fluid bulk-transfer backend where contention is resolved by
/// a max-min fair bandwidth-sharing solver and a transfer costs a single
/// start/finish event pair).
///
/// Selection is per run: the binaries parse `--transport <event|flow>`
/// through the shared RunOptionsParser into the run's ScenarioSpec, the
/// evaluation stores it in its sim::RunContext, and every Network built
/// without an explicit backend picks it up from its Engine's context —
/// so the ~30 Network construction sites need no signature churn, and two
/// runs with different transports can share a process. Code that
/// *requires* one backend (the full-Columbia experiment is only tractable
/// under flow) passes the model explicitly instead.

#include <string>

namespace columbia::sim {
struct RunContext;
}  // namespace columbia::sim

namespace columbia::machine {

enum class TransportModel {
  Event,  ///< per-hop resource queueing (exact serialization order)
  Flow,   ///< fluid max-min fair sharing (epoch-solved, event-minimal)
};

const char* to_string(TransportModel model);

/// Parses "event"/"flow". Returns false (with a message in `error`) on
/// anything else — the binaries turn that into a hard usage error.
bool parse_transport(const std::string& name, TransportModel& model,
                     std::string& error);

/// The transport of `ctx`: its selection, or Event outside any run.
TransportModel transport_of(const sim::RunContext* ctx);

}  // namespace columbia::machine
