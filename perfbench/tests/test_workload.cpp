// Tests for the benchmark's own inputs and checks: seeded op lists,
// the percentile rule, and fingerprint-checked ops.

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>

#include "workload.hpp"

namespace perfbench {
namespace {

const Workload kAll[] = {Workload::MpiApps, Workload::IoFlow};

/// Every byte of a plan that reaches the program or the schedule.
std::string render(const Plan& plan) {
  std::string out;
  char buf[64];
  for (const Op& op : plan.ops) {
    std::snprintf(buf, sizeof buf, " %a %d\n", op.due_s, static_cast<int>(op.kind));
    out += op.spec.canonical_json() + buf;
  }
  for (const auto& spec : plan.warmup) out += "warm " + spec.canonical_json() + "\n";
  return out;
}

std::vector<std::string> key_order(const Plan& plan) {
  std::vector<std::string> keys;
  for (const Op& op : plan.ops) keys.push_back(fingerprint_key(op.spec));
  return keys;
}

TEST(Plan, SameSeedGivesByteIdenticalOpsAndSchedule) {
  for (Workload w : kAll) {
    EXPECT_EQ(render(make_plan(w, 7, 10)), render(make_plan(w, 7, 10))) << workload_name(w);
  }
  EXPECT_EQ(render(make_serve_probe_plan(7)), render(make_serve_probe_plan(7)));
}

TEST(Plan, OtherSeedGivesSameDistinctSpecsInAnotherOrder) {
  for (Workload w : kAll) {
    const Plan a = make_plan(w, 1, 10);
    const Plan b = make_plan(w, 2, 10);
    ASSERT_EQ(a.ops.size(), b.ops.size()) << workload_name(w);
    const auto ka = key_order(a);
    const auto kb = key_order(b);
    EXPECT_NE(ka, kb) << workload_name(w);
    EXPECT_EQ(std::multiset<std::string>(ka.begin(), ka.end()),
              std::multiset<std::string>(kb.begin(), kb.end()))
        << workload_name(w);
    std::set<std::string> distinct;
    for (const auto& spec : distinct_specs(w)) distinct.insert(fingerprint_key(spec));
    EXPECT_EQ(std::set<std::string>(ka.begin(), ka.end()), distinct) << workload_name(w);
  }
}

TEST(Plan, ServeProbeSaltsColdRequestsAndKeepsHotOnesCached) {
  const Plan plan = make_serve_probe_plan(3);
  EXPECT_NE(render(plan), render(make_serve_probe_plan(4)));
  std::set<std::string> cold_labels;
  for (const Op& op : plan.ops) {
    if (op.kind == OpKind::Hot) {
      EXPECT_TRUE(op.spec.label.empty());
    } else {
      EXPECT_TRUE(cold_labels.insert(op.spec.label).second) << op.spec.label;
    }
  }
  for (const auto& spec : plan.warmup) EXPECT_TRUE(spec.label.empty());
  double last = 0.0;
  for (const Op& op : plan.ops) {
    EXPECT_GT(op.due_s, last);
    last = op.due_s;
  }
  // Every seed's schedule spans the op count over the fixed rate.
  EXPECT_NEAR(last, static_cast<double>(plan.ops.size()) / serve_probe_rate(), 1e-9);
}

TEST(Percentile, RefusesFewerThanTenSamplesBeyond) {
  std::string error;
  std::vector<double> v(99);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i);
  EXPECT_FALSE(percentile(v, 0.9, error).has_value());
  EXPECT_NE(error.find("at least 10"), std::string::npos);
  v.push_back(99.0);
  const auto p90 = percentile(v, 0.9, error);
  ASSERT_TRUE(p90.has_value());
  EXPECT_EQ(*p90, 89.0);
  EXPECT_FALSE(percentile(std::vector<double>(19, 1.0), 0.5, error).has_value());
  EXPECT_TRUE(percentile(std::vector<double>(20, 1.0), 0.5, error).has_value());
  EXPECT_FALSE(percentile({}, 0.5, error).has_value());
}

TEST(Fingerprints, WrongExpectedFingerprintCountsAsFailedOp) {
  columbia::core::ScenarioSpec spec;
  spec.experiment = "fig5";
  const Fingerprint right = fingerprint_of("report bytes", "", "");
  FingerprintTable table;
  std::string error;
  char line[128];
  std::snprintf(line, sizeof line, "%s %016llx %016llx %016llx  fig5\n",
                fingerprint_key(spec).c_str(),
                static_cast<unsigned long long>(right.report + 1),
                static_cast<unsigned long long>(right.check),
                static_cast<unsigned long long>(right.profile));
  ASSERT_TRUE(table.parse(line, error)) << error;

  Tally tally;
  EXPECT_FALSE(tally.check(table, spec, true, right));
  EXPECT_EQ(tally.attempted, 1u);
  EXPECT_EQ(tally.failed, 1u);

  table.set(spec, right, "fig5");
  spec.label = "any label";  // labels do not change the expected bytes
  EXPECT_TRUE(tally.check(table, spec, true, right));
  EXPECT_FALSE(tally.check(table, spec, false, right));  // !ok fails too
  spec.experiment = "fig7";  // no committed fingerprint
  EXPECT_FALSE(tally.check(table, spec, true, right));
  EXPECT_EQ(tally.attempted, 4u);
  EXPECT_EQ(tally.failed, 3u);
}

TEST(Fingerprints, TableRoundTripsAndRejectsMalformedLines) {
  FingerprintTable table;
  columbia::core::ScenarioSpec spec;
  spec.experiment = "sec42";
  spec.check = true;
  table.set(spec, fingerprint_of("a", "b", ""), "sec42 check");
  FingerprintTable back;
  std::string error;
  ASSERT_TRUE(back.parse(table.render(), error)) << error;
  EXPECT_EQ(back.render(), table.render());
  EXPECT_TRUE(back.matches(spec, fingerprint_of("a", "b", "")));
  EXPECT_FALSE(back.parse("abc 12\n", error));
}

}  // namespace
}  // namespace perfbench
